"""The campaign service's job scheduler.

The scheduler owns three layers of deduplication (cheapest first):

1. **in flight** — a second submission of a job id already queued or
   running attaches to the same :class:`JobHandle`;
2. **persistent store** — a job id with a stored result is answered from
   :class:`~repro.service.store.ResultStore` without executing a trial;
3. **compile cache** — distinct jobs over the same (source, config) pair
   share one compilation through the
   :class:`~repro.toolchain.workbench.Workbench` LRU.

Execution: a campaign is queued as shards on the
:class:`~repro.service.fleet.FleetCoordinator`, whose shard table is the
only queue.  Remote fleet workers lease shards of every queued job over
HTTP, in ``(priority, submission order)``; while no worker is active,
``runners`` dedicated threads claim them through
:meth:`~repro.service.fleet.FleetCoordinator.run_local`, so the event
loop (and the HTTP tier on top of it) stays responsive.  A fleet of zero
is the single-host service.  Each runner thread owns a private
:class:`~repro.toolchain.executor.CampaignExecutor` (``trial_workers``
processes) to shard trials; with ``trial_workers=0`` trials run on the
in-process fork engine.  Two runner threads attacking one workload are
serialised by a per-(program, workload) lock — the checkpoint-forked
trial scheduler reuses one trial CPU per workload and is not
re-entrant.  Compile jobs have no shards: they run on the loop's
default executor as soon as they are submitted.

Progress events stream to any number of subscribers per job (asyncio
queues feeding the NDJSON HTTP endpoint); lifecycle events are also
persisted for replay after the job — or the process — is gone.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
import weakref
from typing import Any, AsyncIterator, Optional

from repro.obs.metrics import MetricsRegistry, RegistryStats
from repro.obs.profile import ENGINE_COUNTERS, EngineProfiler
from repro.obs.trace import JobTraceRecorder
from repro.service.jobs import JobError, job_from_dict
from repro.service.store import ResultStore

#: Default submission priority (lower number = served earlier).
PRIORITY_DEFAULT = 10

#: Event kinds persisted to the store for post-hoc replay (high-frequency
#: per-batch progress stays in memory only).  The fleet lifecycle events
#: are persisted too: "which worker lost which shard" is exactly what an
#: operator replays after the fact.
PERSISTED_EVENTS = frozenset(
    {
        "queued",
        "started",
        "attack-finished",
        "finished",
        "failed",
        "cancelled",
        "shard-stolen",
        "shard-retried",
        "shard-resumed",
    }
)


class UnknownJobError(KeyError):
    """A job id the scheduler and the store have never seen."""


class SchedulerStats(RegistryStats):
    """Counters the /status endpoint exposes (and tests assert on).

    Attribute-compatible with the old dataclass (``stats.executed += 1``
    still works), but the storage is :class:`~repro.obs.metrics.
    MetricsRegistry` counters — the same series ``GET /metrics`` renders,
    so the two surfaces cannot disagree.
    """

    _FIELDS = {
        "submitted": "repro_jobs_submitted_total",
        "executed": "repro_jobs_executed_total",
        "failed": "repro_jobs_failed_total",
        "cancelled": "repro_jobs_cancelled_total",
        "deduplicated_inflight": "repro_jobs_deduplicated_inflight_total",
        "deduplicated_store": "repro_jobs_deduplicated_store_total",
    }


class JobHandle:
    """Live state of one queued/running job."""

    def __init__(self, job, job_id: str):
        self.job = job
        self.job_id = job_id
        self.state = "queued"
        #: Optional :class:`repro.obs.trace.JobTraceRecorder` following
        #: this job's lifecycle (None with observability disabled).
        self.trace: Optional[JobTraceRecorder] = None
        #: The program a runner thread compiled for this job's local
        #: shards: every shard reuses it (one workload lock), and the
        #: engine counters are sampled from it when the job completes.
        self.program = None
        #: ``time.perf_counter()`` when the job started (first claim or
        #: lease; ``repro_job_seconds`` runs from here).
        self.started = 0.0
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Swallow "exception was never retrieved" for fire-and-forget
        # submissions that only ever poll /status.
        self.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self.events: list[dict[str, Any]] = []
        self.subscribers: list[asyncio.Queue] = []


#: Per-(program, workload) locks: the memoized TrialScheduler reuses one
#: trial CPU per workload, so two runner threads must not attack the same
#: workload concurrently.  Entries are keyed by ``id(program)`` but carry
#: a weakref that (a) removes the entry when the program is collected and
#: (b) detects id reuse — locks live exactly as long as their program and
#: are never evicted, so a handed-out lock cannot be silently replaced.
#: (CompiledProgram is an eq-without-hash dataclass, so it cannot key a
#: WeakKeyDictionary directly.)
_workload_locks: dict[int, tuple] = {}
_workload_locks_guard = threading.Lock()


def _drop_workload_locks(program_id: int, ref) -> None:
    with _workload_locks_guard:
        entry = _workload_locks.get(program_id)
        if entry is not None and entry[0] is ref:
            del _workload_locks[program_id]


def _workload_lock(program, function: str, args: tuple) -> threading.Lock:
    program_id = id(program)
    with _workload_locks_guard:
        entry = _workload_locks.get(program_id)
        if entry is None or entry[0]() is not program:
            ref = weakref.ref(
                program,
                lambda r, pid=program_id: _drop_workload_locks(pid, r),
            )
            entry = _workload_locks[program_id] = (ref, {})
        locks = entry[1]
        key = (function, tuple(args))
        lock = locks.get(key)
        if lock is None:
            lock = locks[key] = threading.Lock()
        return lock


class JobScheduler:
    """Owns the job handles, the runner threads, the workbench, and the
    store; the fleet coordinator owns the shard queue."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workbench=None,
        runners: int = 2,
        trial_workers: int = 0,
        cache_size: int = 64,
        lease_ttl: float = 10.0,
        observability: bool = True,
    ):
        from repro.service.fleet import FleetCoordinator

        if runners < 1:
            raise ValueError(f"runners must be >= 1, got {runners}")
        if trial_workers < 0:
            raise ValueError(f"trial_workers must be >= 0, got {trial_workers}")
        if workbench is None:
            from repro.toolchain.workbench import Workbench

            workbench = Workbench(cache_size=cache_size)
        self.store = store if store is not None else ResultStore(":memory:")
        self.workbench = workbench
        self.runners = runners
        self.trial_workers = trial_workers
        #: ``observability=False`` turns off span recording and trace
        #: persistence (metrics counters stay — they back /status).
        self.observability = bool(observability)
        #: One registry backs the scheduler, the coordinator, and
        #: ``GET /metrics``, so /status counters and the Prometheus
        #: scrape read the same storage.
        self.registry = MetricsRegistry()
        #: Every campaign queues its shards on the fleet coordinator:
        #: remote workers lease them over HTTP, and with no worker active
        #: the runner threads claim them — so a fleet of zero behaves
        #: exactly like a single-host service.
        self.fleet = FleetCoordinator(
            store=self.store, lease_ttl=lease_ttl, registry=self.registry
        )
        self.stats = SchedulerStats(self.registry)
        self._profiler = EngineProfiler(self.registry)
        self._inflight: dict[str, JobHandle] = {}
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        # All job-lifecycle store *writes* funnel through this one thread:
        # SQLite write contention (another process holding the WAL lock)
        # must stall this worker, never the event loop — and a single
        # thread keeps writes in submission order.  WAL readers never
        # block on writers, so reads stay inline.
        self._store_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-store"
        )
        # Terminal states and full event logs are written to the store
        # asynchronously (via the pool above); these bounded overlays
        # answer status()/events() consistently in the window before the
        # writes land (and keep recent replays cheap).
        self._terminal: OrderedDict[str, tuple[str, Optional[str]]] = OrderedDict()
        self._recent_events: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()
        # Traces ride the same async store thread as events; this overlay
        # answers trace() in the window before the write lands.
        self._recent_traces: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "JobScheduler":
        if self._threads:
            raise RuntimeError("scheduler already started")
        self._loop = asyncio.get_running_loop()
        self._threads = [
            threading.Thread(
                target=self._claim_loop, name=f"repro-service-runner-{i}", daemon=True
            )
            for i in range(self.runners)
        ]
        for thread in self._threads:
            thread.start()
        return self

    @property
    def closed(self) -> bool:
        """True once shutdown began — the HTTP tier answers 503 with a
        ``Retry-After`` hint instead of queueing doomed work."""
        return self._closed

    async def close(self) -> None:
        """Stop the runner threads after their current shards and drain
        the store thread.  Jobs still queued or leased keep their ledger
        rows (and stored shards) and resume on the next start."""
        self._closed = True
        self._stop.set()
        self.fleet.wake()
        for thread in self._threads:
            await asyncio.to_thread(thread.join)
        self._threads = []
        self._store_pool.shutdown(wait=True)

    def resume_from_store(self) -> int:
        """Re-enqueue jobs left ``queued``/``running`` by a dead process.

        Returns the number of jobs resumed.  Must be called on the event
        loop after :meth:`start`.
        """
        resumed = 0
        for record in self.store.resumable_jobs():
            if record.job_id in self._inflight:
                continue
            try:
                job = job_from_dict(record.spec)
            except JobError as exc:
                self._remember_terminal(
                    record.job_id, "failed", f"unresumable spec: {exc}"
                )
                self._store_write(
                    self.store.set_state,
                    record.job_id,
                    "failed",
                    f"unresumable spec: {exc}",
                )
                continue
            self._enqueue(job, record.job_id, PRIORITY_DEFAULT, requeue=True)
            resumed += 1
        return resumed

    # -- submission --------------------------------------------------------
    def submit(self, job, priority: int = PRIORITY_DEFAULT) -> tuple[str, bool]:
        """Queue a job (idempotently); returns ``(job_id, deduplicated)``.

        Must be called on the event loop.  ``deduplicated`` is true when
        the id was already in flight or already has a stored result.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        job_id = job.job_id()
        if job_id in self._inflight:
            self.stats.deduplicated_inflight += 1
            return job_id, True
        record = self.store.get_job(job_id)
        if record is not None and record.state == "done":
            if self._stored_result_current(job_id, job):
                self.stats.deduplicated_store += 1
                return job_id, True
            # The scheme builder was replaced since this result was
            # computed (register_scheme(replace=True) bumps the revision,
            # exactly like the Workbench compile cache): re-execute.
        self._enqueue(job, job_id, priority, requeue=False)
        return job_id, False

    def _stored_result_current(self, job_id: str, job) -> bool:
        from repro.service.jobs import _scheme_revision

        payload = self.store.get_result(job_id)
        if (
            payload is None
            or payload.get("scheme_revision") != _scheme_revision(job.config)
        ):
            return False
        if job.kind == "campaign":
            # Pre-analytics payloads (stored before per-trial recording
            # existed) cannot build vulnerability maps; treat them as
            # stale so a resubmission re-executes and upgrades the row —
            # the one escape hatch a service client has.
            attacks = (payload.get("report") or {}).get("attacks") or {}
            if any("records" not in attack for attack in attacks.values()):
                return False
        return True

    def _enqueue(self, job, job_id: str, priority: int, requeue: bool) -> None:
        # A resubmission supersedes a failed/cancelled attempt's overlays
        # AND its persisted event log — a replay must never end at a stale
        # terminal event from the previous attempt.
        self._terminal.pop(job_id, None)
        self._recent_events.pop(job_id, None)
        self._store_write(self.store.clear_events, [job_id])
        # The durable ledger write rides the ordered store thread like
        # every other write (SQLite contention must never stall the event
        # loop); the ack therefore slightly precedes durability — a crash
        # in that window loses only the queued entry, and job ids are
        # deterministic so clients can simply resubmit.
        self._store_write(
            self.store.record_job, job_id, job.kind, job.to_dict(), True
        )
        handle = JobHandle(job, job_id)
        if self.observability:
            handle.trace = JobTraceRecorder(job_id)
            self._recent_traces.pop(job_id, None)
        self._inflight[job_id] = handle
        self.stats.submitted += 1
        self._publish(
            handle,
            {
                "event": "queued",
                "job_id": job_id,
                "kind": job.kind,
                "title": job.title,
                "resumed": requeue,
            },
        )
        if job.kind != "campaign":
            self._run_compile(handle)
            return
        try:
            self.fleet.add_job(
                job,
                emit=self._emitter(handle),
                on_done=lambda payload, error: self._loop.call_soon_threadsafe(
                    self._commit, handle, payload, error
                ),
                priority=priority,
            )
        except Exception as exc:  # noqa: BLE001 — e.g. the shard store unreadable
            self._fail(handle, exc)

    # -- queries -----------------------------------------------------------
    def status(self, job_id: str) -> dict[str, Any]:
        handle = self._inflight.get(job_id)
        record = self.store.get_job(job_id)
        if record is not None:
            status = record.to_dict()
        elif handle is not None:
            # Submitted moments ago: the ledger write is still queued on
            # the store thread; answer from the live handle.
            status = {
                "job_id": job_id,
                "kind": handle.job.kind,
                "title": handle.job.title,
                "error": None,
                "submitted_at": None,
                "started_at": None,
                "finished_at": None,
            }
        else:
            raise UnknownJobError(job_id)
        if handle is not None:
            status["state"] = handle.state
        elif job_id in self._terminal:
            status["state"], status["error"] = self._terminal[job_id]
        return status

    async def result(self, job_id: str) -> dict[str, Any]:
        """The job's result payload, waiting for completion if needed."""
        handle = self._inflight.get(job_id)
        if handle is not None:
            try:
                return await asyncio.shield(handle.future)
            except asyncio.CancelledError:
                if handle.future.cancelled():
                    raise JobError(f"job {job_id} was cancelled") from None
                raise
        payload = self.store.get_result(job_id)
        if payload is not None:
            return payload
        record = self.store.get_job(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        raise JobError(
            f"job {job_id} is {record.state} and has no result"
            + (f": {record.error}" if record.error else "")
        )

    async def events(self, job_id: str) -> AsyncIterator[dict[str, Any]]:
        """Stream the job's events: full replay of what already happened,
        then live events until the job reaches a terminal state."""
        handle = self._inflight.get(job_id)
        if handle is None:
            recent = self._recent_events.get(job_id)
            if recent is not None:  # full in-memory log, incl. batch events
                for event in list(recent):
                    yield event
                return
            if self.store.get_job(job_id) is None:
                raise UnknownJobError(job_id)
            for event in self.store.events(job_id):
                yield event
            return
        queue: asyncio.Queue = asyncio.Queue()
        # No await between the replay snapshot and subscribing, so no
        # event can slip between the two.
        for event in handle.events:
            queue.put_nowait(event)
        if handle.future.done():
            queue.put_nowait(None)
        else:
            handle.subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                if event is None:
                    return
                yield event
        finally:
            if queue in handle.subscribers:
                handle.subscribers.remove(queue)

    # -- observability -----------------------------------------------------
    def trace(self, job_id: str) -> Optional[list[dict[str, Any]]]:
        """The job's span list: live spans while it executes, the
        persisted trace afterwards.  ``None`` for a known job with no
        trace (observability disabled, or pre-v3 rows).  Raises
        :class:`UnknownJobError` for a job nobody has ever seen."""
        handle = self._inflight.get(job_id)
        if handle is not None and handle.trace is not None:
            return handle.trace.export()
        recent = self._recent_traces.get(job_id)
        if recent is not None:
            return list(recent)
        stored = self.store.get_trace(job_id)
        if stored is not None:
            return stored
        if handle is None and self.store.get_job(job_id) is None:
            raise UnknownJobError(job_id)
        return None

    def collect(self) -> MetricsRegistry:
        """Refresh point-in-time gauges and return the shared registry —
        the ``GET /metrics`` scrape path.  Counters and histograms are
        always current (they are the live storage for stats objects and
        executor merges); only gauges need a poll."""
        registry = self.registry
        registry.gauge("repro_queue_depth").set(
            sum(handle.state == "queued" for handle in self._inflight.values())
        )
        registry.gauge("repro_jobs_inflight").set(len(self._inflight))
        registry.gauge("repro_runners").set(self.runners)
        registry.gauge("repro_trial_workers").set(self.trial_workers)
        self._profiler.sample_workbench(self.workbench)
        for state, count in self.store.counts().items():
            registry.gauge("repro_store_jobs", labels={"state": state}).set(count)
        fleet_status = self.fleet.status()
        registry.gauge("repro_fleet_workers_active").set(
            len(fleet_status.get("workers") or ())
        )
        for state, count in (fleet_status.get("shards") or {}).items():
            registry.gauge("repro_fleet_shards", labels={"state": state}).set(count)
        return registry

    def observability_status(self) -> dict[str, Any]:
        """The ``/status`` observability block: whether tracing is on,
        how many series exist, and the engine counters ``top`` needs to
        compute throughput deltas between polls."""
        registry = self.collect()
        return {
            "enabled": self.observability,
            "series": registry.series_count(),
            "engine": {
                field: registry.counter(series).value
                for field, series in ENGINE_COUNTERS.items()
            },
        }

    # -- analysis ----------------------------------------------------------
    async def vulnerability_map(self, job_id: str) -> dict[str, Any]:
        """The stored campaign's per-instruction vulnerability map, as a
        JSON payload.  Built off-loop (compile is a cache hit for jobs
        this process ran; the golden run is memoized per program)."""
        loop = asyncio.get_running_loop()
        vmap = await loop.run_in_executor(None, self._locked_map, job_id)
        return {"job_id": job_id, "kind": "vulnerability-map", "map": vmap.to_dict()}

    async def scheme_diff(self, job_a: str, job_b: str) -> dict[str, Any]:
        """Residual-vulnerability diff of two stored campaigns.

        The two jobs must attack the *same program input* — identical
        (source, initializers) content and (function, args) workload —
        otherwise the verdicts would compare unrelated binaries."""
        from repro.analysis.diff import SchemeDiff, require_same_program_input

        require_same_program_input(self.store, job_a, job_b)
        loop = asyncio.get_running_loop()
        # Independent builds (different schemes -> different programs and
        # workload locks): overlap their executor slots.
        map_a, map_b = await asyncio.gather(
            loop.run_in_executor(None, self._locked_map, job_a),
            loop.run_in_executor(None, self._locked_map, job_b),
        )
        diff = SchemeDiff.build(map_a, map_b)
        return {"a": job_a, "b": job_b, "kind": "scheme-diff", "diff": diff.to_dict()}

    def _campaign_job(self, job_id: str):
        from repro.service.jobs import job_from_dict

        record = self.store.get_job(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        try:
            job = job_from_dict(record.spec)
        except JobError as exc:
            raise JobError(f"job {job_id} has an unparsable spec: {exc}") from exc
        if job.kind != "campaign":
            raise JobError(f"job {job_id} is a {job.kind!r} job; maps need a campaign")
        return job

    def _locked_map(self, job_id: str):
        """Map a stored job under its workload lock — the golden-trace
        scheduler reuses one trial CPU per workload and must not be
        touched while a runner thread attacks the same workload.  The map
        is built from the exact program object the lock is keyed on
        (re-consulting the LRU could return a different one)."""
        from repro.analysis.vulnmap import map_from_store

        job = self._campaign_job(job_id)
        program = job.compile(self.workbench)
        with _workload_lock(program, job.function, tuple(job.args)):
            return map_from_store(self.store, job_id, program=program)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued or running job at once: its shards leave the
        queue, and a shard result still in flight is dropped as unknown.
        Done jobs are left alone."""
        handle = self._inflight.get(job_id)
        if handle is None:
            record = self.store.get_job(job_id)
            if record is None:
                raise UnknownJobError(job_id)
            return {"job_id": job_id, "state": record.state, "cancelled": False}
        self.fleet.cancel(job_id)
        self._finalize_cancel(handle)
        return {"job_id": job_id, "state": "cancelled", "cancelled": True}

    # -- execution ---------------------------------------------------------
    def _claim_loop(self) -> None:
        """A runner thread: claim and run shards until :meth:`close`."""
        executor = None
        if self.trial_workers:
            from repro.toolchain.executor import CampaignExecutor

            executor = CampaignExecutor(
                max_workers=self.trial_workers,
                metrics=self.registry if self.observability else None,
            )
        try:
            self.fleet.run_local(
                lambda job, index, emit: self._run_shard(job, index, emit, executor),
                self._stop,
            )
        finally:
            if executor is not None:
                executor.close()

    def _run_shard(self, job, index: int, emit, executor) -> dict[str, Any]:
        """One locally claimed shard, under the workload lock keyed on the
        exact compiled object (see :func:`_workload_lock`)."""
        # The loop owns the handles; a lookup is atomic, and a cancelled
        # job's handle may be gone (its result is dropped anyway).
        handle = self._inflight.get(job.job_id())
        program = handle.program if handle is not None else None
        if program is None:
            # Wall-clock lands only in the histogram and the trace span —
            # never in the compiled program or any compared artifact.
            started = time.perf_counter()
            if handle is not None and handle.trace is not None:
                with handle.trace.span("compile", kind=job.kind):
                    program = job.compile(self.workbench)
            else:
                program = job.compile(self.workbench)
            self.registry.histogram("repro_compile_seconds").observe(
                time.perf_counter() - started
            )
            if handle is not None:
                handle.program = program
        with _workload_lock(program, job.function, job.args):
            payload = job.run_shard(
                self.workbench, index, executor=executor, emit=emit, program=program
            )
        if executor is not None:
            self._profiler.sample_executor(executor)
        return payload

    def _run_compile(self, handle: JobHandle) -> None:
        self._on_event(
            handle,
            {"event": "started", "job_id": handle.job_id, "kind": handle.job.kind},
        )
        run = self._loop.run_in_executor(None, handle.job.execute, self.workbench)
        run.add_done_callback(
            lambda done: self._commit(
                handle,
                None if done.exception() else done.result(),
                done.exception(),
            )
        )

    def _commit(
        self,
        handle: JobHandle,
        payload: Optional[dict[str, Any]],
        error: Optional[BaseException],
    ) -> None:
        """The loop-side end of a job: store the result, then publish
        ``finished`` (or ``failed``)."""
        if handle.future.done() or self._closed:
            # Cancelled; or shutting down, when the ledger row and any
            # stored shards resume the job on the next start.
            return
        # The job-completion engine boundary: fold the trial schedulers'
        # own counters into the shared registry (sampled once per job, so
        # the no-hook fast loop stays untouched).
        if handle.program is not None:
            self._profiler.sample_program(handle.program)
        self._profiler.sample_workbench(self.workbench)
        if error is not None:
            self._fail(handle, error)
            return
        # Result durability before the 'finished' event: a client that
        # sees the stream end must find the result in the store.
        write = self._loop.run_in_executor(
            self._store_pool, self.store.store_result, handle.job_id, payload
        )
        write.add_done_callback(
            lambda done: self._finish(handle, payload, done.exception())
        )

    def _finish(
        self, handle: JobHandle, payload: dict[str, Any], error: Optional[BaseException]
    ) -> None:
        if handle.future.done():
            return  # cancelled while the result was stored
        if error is not None:
            self._fail(handle, error)
            return
        self.stats.executed += 1
        self.registry.histogram("repro_job_seconds").observe(
            time.perf_counter() - handle.started
        )
        handle.state = "done"
        self._publish(
            handle,
            {"event": "finished", "job_id": handle.job_id, "kind": handle.job.kind},
        )
        handle.future.set_result(payload)
        self._persist_trace(handle)
        self._close_stream(handle)

    def _fail(self, handle: JobHandle, exc: BaseException) -> None:
        error = f"{type(exc).__name__}: {exc}"
        self.stats.failed += 1
        handle.state = "failed"
        self._remember_terminal(handle.job_id, "failed", error)
        self._store_write(self.store.set_state, handle.job_id, "failed", error)
        self._publish(
            handle,
            {
                "event": "failed",
                "job_id": handle.job_id,
                "error": error,
                "traceback": "".join(
                    traceback.format_exception(exc, limit=8)
                ),
            },
        )
        if not handle.future.done():
            handle.future.set_exception(JobError(error))
        self._persist_trace(handle)
        self._close_stream(handle)

    def _finalize_cancel(self, handle: JobHandle) -> None:
        self.stats.cancelled += 1
        handle.state = "cancelled"
        self._remember_terminal(handle.job_id, "cancelled")
        self._store_write(self.store.set_state, handle.job_id, "cancelled")
        self._publish(
            handle, {"event": "cancelled", "job_id": handle.job_id}
        )
        handle.future.cancel()
        self._persist_trace(handle)
        self._close_stream(handle)

    # -- event plumbing ----------------------------------------------------
    def _emitter(self, handle: JobHandle):
        """The job's ``emit`` for the coordinator, runner threads and
        executor merge loops: stamp the event on the emitting thread,
        then hop onto the loop for publication."""
        recorder = handle.trace

        def emit(payload: dict[str, Any]) -> None:
            at_ms = recorder.tracer.now_ms() if recorder is not None else None
            self._loop.call_soon_threadsafe(self._on_event, handle, payload, at_ms)

        return emit

    def _on_event(
        self,
        handle: JobHandle,
        payload: dict[str, Any],
        at_ms: Optional[float] = None,
    ) -> None:
        if handle.future.done():
            return  # a cancelled job's late shard events
        if payload["event"] == "started":
            handle.state = "running"
            handle.started = time.perf_counter()
            self._store_write(self.store.set_state, handle.job_id, "running")
        self._publish(handle, payload, at_ms)

    def _publish(
        self,
        handle: JobHandle,
        payload: dict[str, Any],
        at_ms: Optional[float] = None,
    ) -> None:
        handle.events.append(payload)
        if handle.trace is not None:
            # The recorder folds the event stream into spans.  _publish
            # always runs on the event loop, so per-handle calls are
            # serialised without any extra locking.
            handle.trace.on_event(payload, at_ms=at_ms)
        if payload.get("event") in PERSISTED_EVENTS:
            self._store_write(self.store.append_event, handle.job_id, payload)
        for queue in handle.subscribers:
            queue.put_nowait(payload)

    def _persist_trace(self, handle: JobHandle) -> None:
        recorder = handle.trace
        if recorder is None:
            return
        spans = recorder.export()
        self.registry.counter("repro_traces_total").inc()
        self._recent_traces[handle.job_id] = spans
        self._recent_traces.move_to_end(handle.job_id)
        while len(self._recent_traces) > 256:
            self._recent_traces.popitem(last=False)
        self._store_write(self.store.store_trace, handle.job_id, spans)

    def _remember_terminal(
        self, job_id: str, state: str, error: Optional[str] = None
    ) -> None:
        self._terminal[job_id] = (state, error)
        self._terminal.move_to_end(job_id)
        while len(self._terminal) > 1024:
            self._terminal.popitem(last=False)

    def _store_write(self, fn, *args) -> None:
        """Fire-and-forget store write on the (ordered) store thread;
        durability failures are reported, never fatal to the service."""

        def write() -> None:
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001
                print(
                    f"repro.service: store write {fn.__name__}{args[:1]} "
                    f"failed: {exc}",
                    file=sys.stderr,
                )

        try:
            self._store_pool.submit(write)
        except RuntimeError:  # pool shut down mid-flight
            write()

    def _close_stream(self, handle: JobHandle) -> None:
        for queue in handle.subscribers:
            queue.put_nowait(None)
        handle.subscribers = []
        self._recent_events[handle.job_id] = handle.events
        self._recent_events.move_to_end(handle.job_id)
        while len(self._recent_events) > 256:
            self._recent_events.popitem(last=False)
        self._inflight.pop(handle.job_id, None)
