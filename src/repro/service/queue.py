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
:meth:`~repro.service.fleet.FleetCoordinator.run_local`.  A fleet of
zero is the single-host service.  Each runner thread owns a private
:class:`~repro.toolchain.executor.CampaignExecutor` (``trial_workers``
processes) to shard trials; with ``trial_workers=0`` trials run on the
in-process fork engine.  Two runner threads attacking one workload are
serialised by a per-(program, workload) lock — the checkpoint-forked
trial scheduler reuses one trial CPU per workload and is not
re-entrant.  Compile jobs have no shards: each runs on a thread of its
own as soon as it is submitted.

Publication: the submitting thread publishes a job's first events,
before anything else can emit for it; every later event, the completion
and a cancellation go through one **commit thread**, in order.  Each
writes the store first — the persisted event, and before a terminal
event the result, the state and the trace — and then publishes the
event to the job's handle, an event list plus a condition that event
streams, :meth:`JobScheduler.wait` and shutdown wait on.  Each lifecycle
step is one store transaction, committed before anything is published:
enqueue (the job record and ``queued``), start (``running`` and
``started``) and the end (the result or final state, the trace and the
terminal event).  The coordinator calls ``emit`` and ``on_done`` under
its own lock, so both only enqueue.  Lifecycle events persist for replay
after the job — or the process — is gone.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from queue import SimpleQueue
from typing import Any, Iterator, Optional

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
    """Counters the /status endpoint exposes (and tests assert on),
    stored as the :class:`~repro.obs.metrics.MetricsRegistry` series
    ``GET /metrics`` renders, so the two surfaces cannot disagree."""

    _FIELDS = {
        "submitted": "repro_jobs_submitted_total",
        "executed": "repro_jobs_executed_total",
        "failed": "repro_jobs_failed_total",
        "cancelled": "repro_jobs_cancelled_total",
        "deduplicated_inflight": "repro_jobs_deduplicated_inflight_total",
        "deduplicated_store": "repro_jobs_deduplicated_store_total",
    }


class JobHandle:
    """Live state of one queued/running job: the events published so
    far, and the condition every reader of them waits on."""

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
        self.events: list[dict[str, Any]] = []
        #: Notified when an event is published and at shutdown; guards
        #: ``events`` and ``state``.
        self.changed = threading.Condition()

    @property
    def ended(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def publish(self, payload: dict[str, Any], state: Optional[str] = None) -> None:
        """Append an event (and set a new ``state``); wake every reader."""
        with self.changed:
            if state is not None:
                self.state = state
            self.events.append(payload)
            self.changed.notify_all()


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
    """Owns the job handles, the runner threads, the commit thread, the
    workbench, and the store; the fleet coordinator owns the shard
    queue.  Threads start on construction and stop at :meth:`close`."""

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
        self.fleet = FleetCoordinator(
            store=self.store, lease_ttl=lease_ttl, registry=self.registry
        )
        self.stats = SchedulerStats(self.registry)
        self._profiler = EngineProfiler(self.registry)
        self._inflight: dict[str, JobHandle] = {}
        #: Full event logs (batch events included) of recently ended
        #: jobs, for cheap replays.
        self._recent_events: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()
        #: Guards the two tables above: submit's check-and-insert, and
        #: the commit thread retiring a handle from one into the other.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False
        #: The commit thread's work, in order: ``(fn, args)``, or ``None``
        #: to stop.
        self._commits: SimpleQueue = SimpleQueue()
        self._committer = threading.Thread(
            target=self._commit_loop, name="repro-service-commit", daemon=True
        )
        self._committer.start()
        #: Runner threads and running compile jobs; close() joins them.
        self._threads = [
            threading.Thread(
                target=self._claim_loop, name=f"repro-service-runner-{i}", daemon=True
            )
            for i in range(runners)
        ]
        for thread in self._threads:
            thread.start()

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once shutdown began — the HTTP tier answers 503 with a
        ``Retry-After`` hint instead of queueing doomed work."""
        return self._closed

    def close(self) -> None:
        """Stop the runner threads after their current shards, drain the
        commit thread, then wake every event stream and result waiter.
        Jobs still queued or leased keep their ledger rows (and stored
        shards) and resume on the next start."""
        with self._lock:
            self._closed = True
        self._stop.set()
        self.fleet.wake()
        for thread in self._threads:
            thread.join()
        self._commits.put(None)
        self._committer.join()
        for handle in list(self._inflight.values()):
            with handle.changed:
                handle.changed.notify_all()

    def resume_from_store(self) -> int:
        """Re-enqueue jobs left ``queued``/``running`` by a dead process.

        Returns the number of jobs resumed.
        """
        resumed = 0
        for record in self.store.resumable_jobs():
            try:
                job = job_from_dict(record.spec)
            except JobError as exc:
                self._store_write(
                    self.store.set_state,
                    record.job_id,
                    "failed",
                    f"unresumable spec: {exc}",
                )
                continue
            with self._lock:
                if record.job_id in self._inflight:
                    continue
                self._enqueue(job, record.job_id, PRIORITY_DEFAULT, requeue=True)
            resumed += 1
        return resumed

    # -- submission --------------------------------------------------------
    def submit(self, job, priority: int = PRIORITY_DEFAULT) -> tuple[str, bool]:
        """Queue a job (idempotently); returns ``(job_id, deduplicated)``.

        ``deduplicated`` is true when the id was already in flight or
        already has a stored result.
        """
        job_id = job.job_id()
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            if job_id in self._inflight:
                self.stats.deduplicated_inflight += 1
                return job_id, True
            record = self.store.get_job(job_id)
            if record is not None and record.state == "done":
                if self._stored_result_current(job_id, job):
                    self.stats.deduplicated_store += 1
                    return job_id, True
                # The scheme builder was replaced since this result was
                # computed (register_scheme(replace=True) bumps the
                # revision, exactly like the Workbench compile cache):
                # re-execute.
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
        """Record the job, publish ``queued`` and hand the job on — to the
        coordinator, or to a compile thread.  Runs under ``_lock``."""
        # A resubmission supersedes a failed/cancelled attempt's replay
        # log AND its persisted event log — a replay must never end at a
        # stale terminal event from the previous attempt.
        self._recent_events.pop(job_id, None)
        handle = JobHandle(job, job_id)
        if self.observability:
            handle.trace = JobTraceRecorder(job_id)
        queued = {
            "event": "queued",
            "job_id": job_id,
            "kind": job.kind,
            "title": job.title,
            "resumed": requeue,
        }
        with self._step("enqueue", job_id):
            self._store_write(self.store.clear_events, [job_id])
            self._store_write(
                self.store.record_job, job_id, job.kind, job.to_dict(), True
            )
            self._persist(handle, queued)
        self._inflight[job_id] = handle
        self.stats.submitted += 1
        # Published here, before the job reaches anything that emits, so
        # ``queued`` is its first event.
        handle.publish(queued)
        if job.kind != "campaign":
            # A compile job starts at once, on a thread of its own.
            self._on_event(
                handle, {"event": "started", "job_id": job_id, "kind": job.kind}, None
            )
            thread = threading.Thread(
                target=self._run_compile,
                args=(handle,),
                name="repro-service-compile",
                daemon=True,
            )
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]
            thread.start()
            return
        try:
            self.fleet.add_job(
                job,
                emit=self._emitter(handle),
                on_done=lambda payload, error: self._commit(
                    self._finish, handle, payload, error
                ),
                priority=priority,
            )
        except Exception as exc:  # noqa: BLE001 — e.g. the shard store unreadable
            self._commit(self._finish, handle, None, exc)

    # -- queries -----------------------------------------------------------
    def status(self, job_id: str) -> dict[str, Any]:
        handle = self._inflight.get(job_id)
        record = self.store.get_job(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        status = record.to_dict()
        if handle is not None:
            status["state"] = handle.state
        return status

    def wait(self, job_id: str) -> bool:
        """Block until the job ends; ``False`` when the scheduler closed
        first.  A job not in flight (ended, or unknown) returns at once."""
        handle = self._inflight.get(job_id)
        if handle is None:
            return True
        with handle.changed:
            handle.changed.wait_for(lambda: self._quiet(handle))
        return handle.ended

    def result(self, job_id: str, wait: bool = False) -> Optional[dict[str, Any]]:
        """The job's stored result payload, or ``None`` while it has none.

        ``wait`` first blocks until the job ends: then a job that failed
        or was cancelled raises :class:`JobError`, and ``None`` means the
        scheduler closed before the job ended."""
        if wait and not self.wait(job_id):
            return None
        payload = self.store.get_result(job_id)
        if payload is not None or not wait:
            return payload
        record = self.store.get_job(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        raise JobError(
            f"job {job_id} is {record.state} and has no result"
            + (f": {record.error}" if record.error else "")
        )

    def events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """The job's events: a full replay of what already happened, then
        live events until the job ends.  A plain function, so an unknown
        job raises :class:`UnknownJobError` here, not at the first
        ``next()``."""
        with self._lock:
            handle = self._inflight.get(job_id)
            recent = self._recent_events.get(job_id)
        if handle is not None:
            return self._follow(handle)
        if recent is not None:  # full in-memory log, incl. batch events
            return iter(recent)
        if self.store.get_job(job_id) is None:
            raise UnknownJobError(job_id)
        return iter(self.store.events(job_id))

    def _follow(self, handle: JobHandle) -> Iterator[dict[str, Any]]:
        seen, last = 0, False
        while not last:
            with handle.changed:
                handle.changed.wait_for(
                    lambda: len(handle.events) > seen or self._quiet(handle)
                )
                new, last = handle.events[seen:], self._quiet(handle)
            yield from new
            seen += len(new)

    def _quiet(self, handle: JobHandle) -> bool:
        """True once nothing more can be published on ``handle``: it
        ended, or the commit thread has stopped."""
        return handle.ended or not self._committer.is_alive()

    # -- observability -----------------------------------------------------
    def trace(self, job_id: str) -> Optional[list[dict[str, Any]]]:
        """The job's span list: live spans while it executes, the
        persisted trace afterwards.  ``None`` for a known job with no
        trace (observability disabled, or pre-v3 rows).  Raises
        :class:`UnknownJobError` for a job nobody has ever seen."""
        handle = self._inflight.get(job_id)
        if handle is not None and handle.trace is not None:
            return handle.trace.export()
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
        with self._lock:
            handles = list(self._inflight.values())
        registry.gauge("repro_queue_depth").set(
            sum(handle.state == "queued" for handle in handles)
        )
        registry.gauge("repro_jobs_inflight").set(len(handles))
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
    def vulnerability_map(self, job_id: str) -> dict[str, Any]:
        """The stored campaign's per-instruction vulnerability map, as a
        JSON payload (compile is a cache hit for jobs this process ran;
        the golden run is memoized per program)."""
        vmap = self._locked_map(job_id)
        return {"job_id": job_id, "kind": "vulnerability-map", "map": vmap.to_dict()}

    def scheme_diff(self, job_a: str, job_b: str) -> dict[str, Any]:
        """Residual-vulnerability diff of two stored campaigns.

        The two jobs must attack the *same program input* — identical
        (source, initializers) content and (function, args) workload —
        otherwise the verdicts would compare unrelated binaries."""
        from repro.analysis.diff import SchemeDiff, require_same_program_input

        require_same_program_input(self.store, job_a, job_b)
        diff = SchemeDiff.build(self._locked_map(job_a), self._locked_map(job_b))
        return {"a": job_a, "b": job_b, "kind": "scheme-diff", "diff": diff.to_dict()}

    def _locked_map(self, job_id: str):
        """Map a stored job under its workload lock — the golden-trace
        scheduler reuses one trial CPU per workload and must not be
        touched while a runner thread attacks the same workload.  The map
        is built from the exact program object the lock is keyed on
        (re-consulting the LRU could return a different one)."""
        from repro.analysis.vulnmap import VulnerabilityMap, stored_campaign

        job, report = stored_campaign(self.store, job_id)
        program = job.compile(self.workbench)
        with _workload_lock(program, job.function, tuple(job.args)):
            return VulnerabilityMap.build(program, job.function, list(job.args), report)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued or running job at once: its shards leave the
        queue, a shard result still in flight is dropped as unknown, and
        ``cancelled`` is the job's last event.  Done jobs are left
        alone."""
        with self._lock:
            handle = self._inflight.get(job_id)
            # Once closed, the commit thread may be gone: the job stays
            # queued and resumes on the next start.
            if handle is not None and not self._closed:
                self.fleet.cancel(job_id)
                self._commit(self._cancel, handle)
        if handle is None:
            record = self.store.get_job(job_id)
            if record is None:
                raise UnknownJobError(job_id)
            return {"job_id": job_id, "state": record.state, "cancelled": False}
        # A completion committed before the cancel wins: then the job is
        # done, not cancelled.
        self.sync()
        return {
            "job_id": job_id,
            "state": handle.state,
            "cancelled": handle.state == "cancelled",
        }

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
        # A cancelled job's handle may be gone (its result is dropped
        # anyway).
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
        """A compile job's own thread: it commits like a campaign."""
        try:
            payload, error = handle.job.execute(self.workbench), None
        except Exception as exc:  # noqa: BLE001 — fails the job, not the thread
            payload, error = None, exc
        self._commit(self._finish, handle, payload, error)

    # -- the commit thread -------------------------------------------------
    def sync(self) -> None:
        """Block until the commit thread has committed everything queued
        so far: an HTTP call that caused events answers after they are
        stored and published."""
        committed = threading.Event()
        with self._lock:
            closing = self._closed
            if not closing:
                self._commit(committed.set)
        if closing:
            self._committer.join()  # close() drains the queue, then stops it
        else:
            committed.wait()

    def _commit(self, fn, *args) -> None:
        """Queue ``fn(*args)`` for the commit thread (never blocks)."""
        self._commits.put((fn, args))

    def _commit_loop(self) -> None:
        while (task := self._commits.get()) is not None:
            fn, args = task
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 — one bad commit must not stop the rest
                traceback.print_exc()

    def _emitter(self, handle: JobHandle):
        """The job's ``emit`` for the coordinator, runner threads and
        executor merge loops: stamp the event on the emitting thread,
        then queue it for the commit thread."""
        recorder = handle.trace

        def emit(payload: dict[str, Any]) -> None:
            at_ms = recorder.tracer.now_ms() if recorder is not None else None
            self._commit(self._on_event, handle, payload, at_ms)

        return emit

    def _on_event(
        self, handle: JobHandle, payload: dict[str, Any], at_ms: Optional[float]
    ) -> None:
        if handle.ended:
            return  # a cancelled job's late shard events
        if payload["event"] != "started":
            self._persist(handle, payload, at_ms)
            handle.publish(payload)
            return
        handle.started = time.perf_counter()
        with self._step("start", handle.job_id):
            self._store_write(self.store.set_state, handle.job_id, "running")
            self._persist(handle, payload, at_ms)
        handle.publish(payload, "running")

    def _finish(
        self,
        handle: JobHandle,
        payload: Optional[dict[str, Any]],
        error: Optional[BaseException],
    ) -> None:
        """A job's end: store the result, then publish ``finished`` — or
        record the failure, then publish ``failed``."""
        if handle.ended:
            return  # cancelled first
        # The job-completion engine boundary: fold the trial schedulers'
        # own counters into the shared registry (sampled once per job, so
        # the no-hook fast loop stays untouched).
        if handle.program is not None:
            self._profiler.sample_program(handle.program)
        self._profiler.sample_workbench(self.workbench)
        if error is None:
            finished = {
                "event": "finished", "job_id": handle.job_id, "kind": handle.job.kind
            }
            try:
                with self.store.transaction():
                    self.store.store_result(handle.job_id, payload)
                    self._persist_end(handle, finished)
            except Exception as exc:  # noqa: BLE001 — an unstored result fails the job
                error = exc
            else:
                self.stats.executed += 1
                self.registry.histogram("repro_job_seconds").observe(
                    time.perf_counter() - handle.started
                )
                self._retire(handle, "done", finished)
                return
        message = f"{type(error).__name__}: {error}"
        self.stats.failed += 1
        failed = {
            "event": "failed",
            "job_id": handle.job_id,
            "error": message,
            "traceback": "".join(traceback.format_exception(error, limit=8)),
        }
        with self._step("fail", handle.job_id):
            self._store_write(self.store.set_state, handle.job_id, "failed", message)
            self._persist_end(handle, failed)
        self._retire(handle, "failed", failed)

    def _cancel(self, handle: JobHandle) -> None:
        if handle.ended:
            return  # finished or failed first
        self.stats.cancelled += 1
        cancelled = {"event": "cancelled", "job_id": handle.job_id}
        with self._step("cancel", handle.job_id):
            self._store_write(self.store.set_state, handle.job_id, "cancelled")
            self._persist_end(handle, cancelled)
        self._retire(handle, "cancelled", cancelled)

    def _persist(
        self, handle: JobHandle, payload: dict[str, Any], at_ms: Optional[float] = None
    ) -> None:
        """Fold the event into the trace and store it.  The caller
        publishes it once the store has committed."""
        if handle.trace is not None:
            handle.trace.on_event(payload, at_ms=at_ms)
        if payload["event"] in PERSISTED_EVENTS:
            self._store_write(self.store.append_event, handle.job_id, payload)

    def _persist_end(self, handle: JobHandle, payload: dict[str, Any]) -> None:
        """Store a terminal event, with the trace it closes."""
        self._persist(handle, payload)
        if handle.trace is not None:
            self.registry.counter("repro_traces_total").inc()
            self._store_write(self.store.store_trace, handle.job_id, handle.trace.export())

    def _retire(self, handle: JobHandle, state: str, payload: dict[str, Any]) -> None:
        """Publish a terminal event and retire the handle.  The log moves
        to the replay table in the same step as the handle leaves the
        in-flight table, so a reader finds one or the other."""
        with self._lock:
            handle.publish(payload, state)
            self._recent_events[handle.job_id] = handle.events
            self._recent_events.move_to_end(handle.job_id)
            while len(self._recent_events) > 256:
                self._recent_events.popitem(last=False)
            self._inflight.pop(handle.job_id, None)

    @contextmanager
    def _step(self, step: str, job_id: str) -> Iterator[None]:
        """One store transaction around a lifecycle step's writes.  Each
        write reports its own failure; a failed commit is reported the
        same way, never fatal to the service."""
        try:
            with self.store.transaction():
                yield
        except Exception as exc:  # noqa: BLE001
            _report_store_failure(f"{step}('{job_id}')", exc)

    def _store_write(self, fn, *args) -> None:
        """One store write; a durability failure is reported, never
        fatal to the service."""
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001
            _report_store_failure(f"{fn.__name__}{args[:1]}", exc)


def _report_store_failure(what: str, exc: Exception) -> None:
    print(f"repro.service: store write {what} failed: {exc}", file=sys.stderr)
