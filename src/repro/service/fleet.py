"""The service's shard queue and the worker-fleet protocol.

One campaign job splits into **shards** — one per attack spec — each
identified by a content hash (:meth:`CampaignJob.shard_id`).  The
:class:`FleetCoordinator`'s shard table is the service's only queue
(:meth:`~FleetCoordinator.add_job`); remote :class:`FleetRunner`
workers take its shards in ``(priority, submission order)`` over HTTP:

1. ``POST /fleet/lease`` — a worker receives a shard (the full job
   envelope + attack index) under a time-limited lease;
2. ``POST /fleet/shards/<id>/heartbeat`` — it renews the lease while the
   attack executes;
3. ``POST /fleet/shards/<id>/result`` — it posts the shard's
   :class:`~repro.faults.isa_campaign.AttackResult` payload (or a
   structured failure naming the in-flight fault models, extending
   :class:`~repro.toolchain.executor.CampaignExecutorError` across the
   network boundary).

Robustness invariants:

* **Lease expiry = work-stealing.**  A runner that dies or partitions
  mid-shard stops heartbeating; the coordinator returns its shard to the
  pending pool (``steals`` counter) and the next ``lease`` call — any
  healthy worker — picks it up.
* **Idempotent, content-keyed results.**  Shard execution is
  deterministic, so duplicate completions (a stolen lease's original
  worker finishing late, a retried POST after a dropped response) carry
  byte-identical payloads; the first one wins, the rest are counted and
  dropped.  Completed shards are persisted *before* the ack, so a
  coordinator crash never loses acknowledged work — on restart the job
  resumes from its stored shards.
* **Graceful degradation.**  While no remote worker is active, the
  service's runner threads claim shards (:meth:`~FleetCoordinator.
  run_local`, ``local_shards`` counter), one shard of a job at a time so
  a locally run job emits its events in attack order: an empty or
  fully-dead fleet is a single-host service.

The merged report is byte-identical to a single-host run by
construction: :func:`~repro.service.jobs.merge_shards` merges shards in
attack-spec order, and each shard's payload is the same
``attack_result_to_dict`` dict whoever ran it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry, RegistryStats, snapshot_delta
from repro.obs.profile import EngineProfiler
from repro.service.jobs import JobError, merge_shards

#: Worker name the coordinator uses for shards its runner threads claim
#: (never a valid remote worker id).
LOCAL_WORKER = "<local>"

#: A shard that failed (worker error report or stolen lease) more than
#: this many times fails the whole job instead of retrying forever.
MAX_SHARD_ATTEMPTS = 5


class FleetStats(RegistryStats):
    """The ``/status`` ``fleet`` counter block (and what tests assert on).

    Backed by the coordinator's :class:`~repro.obs.metrics.
    MetricsRegistry` — attribute reads/writes and the ``/metrics``
    exposition share one storage, so the two can never disagree.

    ``duplicates`` counts duplicate shard completions dropped by the
    idempotent merge; ``retries`` worker-reported failures that were
    re-queued; ``steals`` expired leases returned to the pool;
    ``local_shards`` shards a runner thread ran (no remote worker
    active); ``resumed_shards`` shards answered from the store after a
    restart.
    """

    _FIELDS = {
        "leases": "repro_fleet_leases_total",
        "heartbeats": "repro_fleet_heartbeats_total",
        "completed": "repro_fleet_shards_completed_total",
        "duplicates": "repro_fleet_duplicates_total",
        "retries": "repro_fleet_retries_total",
        "steals": "repro_fleet_steals_total",
        "local_shards": "repro_fleet_local_shards_total",
        "resumed_shards": "repro_fleet_resumed_shards_total",
    }


@dataclass
class _Shard:
    shard_id: str
    job_id: str
    index: int
    attack: str
    suite: str
    state: str = "pending"  # pending | leased | done
    worker: Optional[str] = None
    token: Optional[str] = None
    #: the lease call (client-chosen id) that holds the lease
    request: Optional[str] = None
    expires: float = 0.0
    attempts: int = 0
    payload: Optional[dict[str, Any]] = None


@dataclass
class _FleetJob:
    job: Any
    job_id: str
    envelope: dict[str, Any]
    shards: list[_Shard]
    emit: Callable[[dict[str, Any]], None]
    on_done: Callable[[Optional[dict[str, Any]], Optional[BaseException]], None]
    scheme_revision: int
    priority: int
    seq: int
    done: int = 0
    #: a ``started`` event was emitted (first claim or lease)
    started: bool = False
    #: a runner thread is running one of this job's shards
    local: bool = False


class FleetCoordinator:
    """Owns the shard table; safe to call from HTTP handler threads,
    submissions and runner threads concurrently.

    All state transitions happen under one condition variable.  Lease
    expiry is swept lazily on every lease, heartbeat and runner-thread
    wake-up, so the coordinator needs no background task of its own.
    Jobs leave the table when they finish, fail or are cancelled; each
    finished or failed job is reported once through its ``on_done``.
    ``emit`` and ``on_done`` are called under the condition, so they
    must not block.
    """

    def __init__(
        self,
        store=None,
        *,
        lease_ttl: float = 10.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.store = store
        #: Also the silence after which a worker no longer counts as
        #: *active* (the threshold for running shards locally): a live
        #: worker talks at least that often (heartbeats run at ttl/3).
        self.lease_ttl = lease_ttl
        #: Shared metrics home: the scheduler hands its registry down so
        #: fleet counters, queue counters, and worker rollups land in one
        #: place (a standalone coordinator gets a private registry).
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = FleetStats(self.registry)
        self._cond = threading.Condition()
        #: Registered jobs in lease order: ``(priority, submission order)``.
        self._jobs: dict[str, _FleetJob] = {}
        self._shards: dict[str, _Shard] = {}
        self._workers: dict[str, float] = {}
        self._token_seq = 0
        self._job_seq = 0

    # -- worker bookkeeping ------------------------------------------------
    def _touch_worker_locked(self, worker: str, now: float) -> None:
        if worker == LOCAL_WORKER:
            return
        self._workers[worker] = now
        if len(self._workers) > 1024:  # bounded: drop the longest-silent
            for stale in sorted(self._workers, key=self._workers.get)[:256]:
                del self._workers[stale]

    # -- lazy lease expiry -------------------------------------------------
    def _sweep_locked(self, now: float) -> None:
        stolen = False
        for shard in list(self._shards.values()):
            if (
                shard.state != "leased"
                or shard.worker == LOCAL_WORKER
                or shard.expires >= now
                or shard.job_id not in self._jobs  # failed earlier in this sweep
            ):
                continue
            stolen = True
            job = self._jobs[shard.job_id]
            job.emit(
                {
                    "event": "shard-stolen",
                    "shard": shard.shard_id,
                    "attack": shard.attack,
                    "index": shard.index,
                    "worker": shard.worker,
                    "attempts": shard.attempts + 1,
                }
            )
            shard.state = "pending"
            shard.worker = None
            shard.token = None
            shard.attempts += 1
            self.stats.steals += 1
            if shard.attempts >= MAX_SHARD_ATTEMPTS:
                self._fail_locked(
                    job,
                    JobError(
                        f"shard {shard.shard_id} ({shard.attack}) lost "
                        f"{shard.attempts} leases in a row; giving up"
                    ),
                )
        if stolen:
            # Only a steal makes new work claimable.  An unconditional
            # notify would let idle runner threads wake each other forever.
            self._cond.notify_all()

    # -- the queue ---------------------------------------------------------
    def add_job(
        self,
        job,
        *,
        emit: Optional[Callable[[dict[str, Any]], None]] = None,
        on_done: Callable[[Optional[dict[str, Any]], Optional[BaseException]], None],
        priority: int = 0,
    ) -> None:
        """Queue ``job``'s shards; lower ``priority`` numbers go first,
        ties in submission order.  Shards a previous coordinator stored
        are resumed, not re-executed.  ``emit`` receives the job's events
        from whichever thread causes them; ``on_done(payload, error)`` is
        called once, with one of the two ``None``, when the job merges or
        fails (within this call when every shard was resumed)."""
        from repro.service.jobs import _scheme_revision

        emit = emit or (lambda payload: None)
        job_id = job.job_id()
        revision = _scheme_revision(job.config)
        shards = [
            _Shard(
                shard_id=job.shard_id(index),
                job_id=job_id,
                index=index,
                attack=spec.default_label,
                suite=spec.suite,
            )
            for index, spec in enumerate(job.attacks)
        ]
        stored = self.store.shard_payloads(job_id) if self.store else {}
        with self._cond:
            if job_id in self._jobs:
                raise JobError(f"job {job_id} is already queued on the fleet")
            self._job_seq += 1
            fleet_job = _FleetJob(
                job=job,
                job_id=job_id,
                envelope=job.to_dict(),
                shards=shards,
                emit=emit,
                on_done=on_done,
                scheme_revision=revision,
                priority=priority,
                seq=self._job_seq,
            )
            self._jobs[job_id] = fleet_job
            self._jobs = dict(
                sorted(self._jobs.items(), key=lambda kv: (kv[1].priority, kv[1].seq))
            )
            for shard in shards:
                self._shards[shard.shard_id] = shard
                row = stored.get(shard.shard_id)
                # Stale-revision rows (scheme builder replaced since the
                # shard ran) are ignored and re-executed, mirroring the
                # scheduler's store-dedup invalidation.
                if row is not None and row[1] == revision:
                    shard.payload = row[2]
                    shard.state = "done"
                    fleet_job.done += 1
                    self.stats.resumed_shards += 1
                    emit(
                        {
                            "event": "shard-resumed",
                            "shard": shard.shard_id,
                            "attack": shard.attack,
                            "index": shard.index,
                        }
                    )
            if fleet_job.done == len(shards):
                self._complete_locked(fleet_job)
            else:
                self._cond.notify()  # one thread: one shard of a job at a time

    def cancel(self, job_id: str) -> bool:
        """Drop a job from the queue at once; ``on_done`` is never called
        for it, and results for its shards in flight are answered as
        unknown.  Returns whether the job was queued."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                self._close_locked(job)
            return job is not None

    def _close_locked(self, job: _FleetJob) -> None:
        del self._jobs[job.job_id]
        for shard in job.shards:
            self._shards.pop(shard.shard_id, None)

    def _complete_locked(self, job: _FleetJob) -> None:
        self._close_locked(job)
        self._start_locked(job)
        try:
            payload = merge_shards(job.job, [shard.payload for shard in job.shards])
        except (JobError, KeyError, TypeError) as exc:
            # A malformed shard payload: the job is closed already, so
            # on_done is the only way left to end it.
            job.on_done(None, exc)
        else:
            job.on_done(payload, None)

    def _fail_locked(self, job: _FleetJob, error: BaseException) -> None:
        self._close_locked(job)
        job.on_done(None, error)

    def _start_locked(self, job: _FleetJob) -> None:
        if not job.started:
            job.started = True
            job.emit({"event": "started", "job_id": job.job_id, "kind": job.job.kind})

    def _hand_out_locked(
        self, job: _FleetJob, shard: _Shard, worker: str, token: str, expires: float
    ) -> None:
        shard.state = "leased"
        shard.worker = worker
        shard.token = token
        shard.expires = expires
        self._start_locked(job)
        job.emit(
            {
                "event": "attack-started",
                "attack": shard.attack,
                "suite": shard.suite,
                "index": shard.index,
                "of": len(job.shards),
                "worker": worker,
                "attempt": shard.attempts + 1,
            }
        )

    # -- worker-facing protocol -------------------------------------------
    def lease(
        self,
        worker: str,
        ttl: Optional[float] = None,
        request: Optional[str] = None,
    ) -> Optional[dict[str, Any]]:
        """Hand the first pending shard, in ``(priority, submission
        order)``, to ``worker`` (or ``None`` when there is no work).
        Called by ``POST /fleet/lease``.

        ``request`` identifies one lease call across its transport
        retries.  A request that already holds a lease never received
        the response (dropped, or answered twice on a duplicated
        request): it gets that lease back, renewed, instead of a second
        shard while the first expires as a steal that counts against
        :data:`MAX_SHARD_ATTEMPTS`."""
        if not worker or worker == LOCAL_WORKER:
            raise JobError(f"invalid fleet worker id {worker!r}")
        ttl = self.lease_ttl if ttl is None else float(ttl)
        ttl = max(0.05, min(ttl, 10 * self.lease_ttl))
        now = time.monotonic()
        with self._cond:
            self._touch_worker_locked(worker, now)
            self._sweep_locked(now)
            for shard in self._shards.values() if request is not None else ():
                if (
                    shard.request == request
                    and shard.state == "leased"
                    and shard.worker == worker
                ):
                    shard.expires = now + ttl
                    return self._lease_payload(shard, self._jobs[shard.job_id], ttl)
            for job in self._jobs.values():
                for shard in job.shards:
                    if shard.state != "pending":
                        continue
                    self._token_seq += 1
                    shard.request = request
                    self.stats.leases += 1
                    self._hand_out_locked(
                        job, shard, worker, f"{worker}:{self._token_seq}", now + ttl
                    )
                    return self._lease_payload(shard, job, ttl)
        return None

    @staticmethod
    def _lease_payload(shard: _Shard, job: _FleetJob, ttl: float) -> dict[str, Any]:
        return {
            "shard_id": shard.shard_id,
            "job_id": shard.job_id,
            "attack_index": shard.index,
            "attack": shard.attack,
            "suite": shard.suite,
            "token": shard.token,
            "ttl": ttl,
            "job": job.envelope,
        }

    def heartbeat(
        self,
        shard_id: str,
        worker: str,
        token: str,
        ttl: Optional[float] = None,
        metrics: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """Renew a lease; ``valid: False`` tells the worker its lease was
        stolen (or the shard is gone) and it should abandon the shard.

        ``metrics`` is an optional worker-side registry *delta*
        (:meth:`~repro.obs.metrics.MetricsRegistry.delta`) riding the
        beat; the coordinator rolls it up so ``/metrics`` aggregates
        engine throughput across the whole fleet.
        """
        if metrics:
            self.registry.merge(metrics)
        ttl = self.lease_ttl if ttl is None else float(ttl)
        now = time.monotonic()
        with self._cond:
            self._touch_worker_locked(worker, now)
            self.stats.heartbeats += 1
            self._sweep_locked(now)
            shard = self._shards.get(shard_id)
            if shard is None:
                return {"valid": False, "state": "unknown"}
            if shard.state != "leased" or shard.token != token:
                return {"valid": False, "state": shard.state}
            shard.expires = now + max(0.05, ttl)
            return {"valid": True, "state": "leased", "ttl": ttl}

    def submit_result(
        self,
        shard_id: str,
        worker: str,
        payload: Optional[dict[str, Any]] = None,
        token: Optional[str] = None,
        error: Optional[str] = None,
        fault_models: Optional[list[str]] = None,
    ) -> dict[str, Any]:
        """Record a shard completion (idempotently) or a worker-reported
        failure (re-queues the shard and names the in-flight fault
        models in the job's event stream).  The job's last shard merges
        the result and reports it through ``on_done``."""
        now = time.monotonic()
        with self._cond:
            self._touch_worker_locked(worker, now)
            shard = self._shards.get(shard_id)
            if shard is None:
                return {"accepted": False, "unknown": True}
            job = self._jobs[shard.job_id]
            if error is not None:
                return self._record_failure_locked(
                    shard, job, worker, token, error, fault_models
                )
            if payload is None:
                raise JobError("shard result needs 'result' or 'error'")
            if shard.state == "done":
                self.stats.duplicates += 1
                return {"accepted": True, "duplicate": True}
        # Durability before the ack (and outside the condition — a slow
        # store write must not stall lease/heartbeat traffic): a worker
        # whose ack is lost will retry, and the retry lands on the
        # duplicate path above.
        if self.store is not None:
            self.store.store_shard(
                shard_id,
                shard.job_id,
                shard.index,
                job.scheme_revision,
                payload,
            )
        with self._cond:
            shard = self._shards.get(shard_id)
            if shard is None:  # job finished/cancelled while we wrote
                return {"accepted": False, "unknown": True}
            if shard.state == "done":
                self.stats.duplicates += 1
                return {"accepted": True, "duplicate": True}
            shard.payload = payload
            shard.state = "done"
            shard.worker = worker
            self.stats.completed += 1
            job = self._jobs[shard.job_id]
            job.done += 1
            # Progress consumers only need the tallies; the per-trial
            # records stay out of the event stream and the persisted
            # event log — they live once, in the result.
            event_result = dict(payload.get("result") or {})
            event_result.pop("records", None)
            job.emit(
                {
                    "event": "attack-finished",
                    "attack": shard.attack,
                    "index": shard.index,
                    "of": len(job.shards),
                    "result": event_result,
                    "worker": worker,
                }
            )
            if job.done == len(job.shards):
                self._complete_locked(job)
            return {"accepted": True, "duplicate": False}

    def _record_failure_locked(
        self, shard, job, worker, token, error, fault_models
    ) -> dict[str, Any]:
        if shard.state != "leased" or (token is not None and shard.token != token):
            # A stale worker (stolen lease) reporting failure must not
            # re-queue a shard someone else now owns.
            return {"accepted": False, "stale": True, "state": shard.state}
        shard.state = "pending"
        shard.worker = None
        shard.token = None
        shard.attempts += 1
        self.stats.retries += 1
        job.emit(
            {
                "event": "shard-retried",
                "shard": shard.shard_id,
                "attack": shard.attack,
                "index": shard.index,
                "worker": worker,
                "error": error,
                "fault_models": list(fault_models or []),
                "attempts": shard.attempts,
            }
        )
        if shard.attempts >= MAX_SHARD_ATTEMPTS:
            self._fail_locked(
                job,
                JobError(
                    f"shard {shard.shard_id} ({shard.attack}) failed "
                    f"{shard.attempts} times; last error: {error}"
                ),
            )
        else:
            self._cond.notify()
        return {"accepted": True, "requeued": True}

    # -- runner threads ----------------------------------------------------
    def run_local(
        self,
        execute: Callable[[Any, int, Callable[[dict[str, Any]], None]], dict[str, Any]],
        stop: threading.Event,
    ) -> None:
        """A runner thread's loop: while no remote worker is active,
        claim pending shards in queue order — never two of one job at
        once — and run each with ``execute(job, index, emit)``, until
        ``stop`` is set (then :meth:`wake`).  An exception from
        ``execute``, or from persisting its result, fails the job."""
        while True:
            with self._cond:
                # Checked under the lock that wake() notifies under, so a
                # stop between this test and the wait cannot be missed.
                if stop.is_set():
                    return
                now = time.monotonic()
                self._sweep_locked(now)
                claimed = self._claim_locked(now)
                if claimed is None:
                    # New work notifies; lease expiry and a fleet falling
                    # silent do not, so poll for them while shards exist.
                    self._cond.wait(self.lease_ttl / 4 if self._shards else None)
                    continue
            job, shard = claimed
            try:
                payload = execute(job.job, shard.index, job.emit)
                with self._cond:  # `+=` on a stats counter is read-modify-write
                    self.stats.local_shards += 1
                self.submit_result(
                    shard.shard_id, LOCAL_WORKER, payload=payload, token=shard.token
                )
            except Exception as exc:  # noqa: BLE001 — fails the job, not the thread
                with self._cond:
                    if self._jobs.get(job.job_id) is job:
                        self._fail_locked(job, exc)
            finally:
                # No notify: this thread claims the job's next shard itself,
                # and idle threads had nothing else to claim.
                with self._cond:
                    job.local = False

    def wake(self) -> None:
        """Wake every idle :meth:`run_local` thread (to see its ``stop``)."""
        with self._cond:
            self._cond.notify_all()

    def _claim_locked(self, now: float) -> Optional[tuple[_FleetJob, _Shard]]:
        if any(now - seen <= self.lease_ttl for seen in self._workers.values()):
            return None  # remote workers lease the queue
        for job in self._jobs.values():
            if job.local:
                continue
            for shard in job.shards:
                if shard.state == "pending":
                    job.local = True
                    self._hand_out_locked(
                        job, shard, LOCAL_WORKER, LOCAL_WORKER, float("inf")
                    )
                    return job, shard
        return None

    # -- introspection -----------------------------------------------------
    def status(self) -> dict[str, Any]:
        now = time.monotonic()
        with self._cond:
            states: dict[str, int] = {}
            for shard in self._shards.values():
                states[shard.state] = states.get(shard.state, 0) + 1
            return {
                "workers": sorted(
                    worker
                    for worker, seen in self._workers.items()
                    if now - seen <= self.lease_ttl
                ),
                "lease_ttl": self.lease_ttl,
                "jobs": len(self._jobs),
                "shards": states,
                "counters": self.stats.to_dict(),
            }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
class FleetRunner:
    """A worker-fleet runner: lease, execute, heartbeat, report, repeat.

    Transport failures never kill the loop — every call retries with the
    client's exponential backoff, and an empty pool is polled at the
    coordinator-suggested cadence.  A
    :class:`~repro.toolchain.executor.CampaignExecutorError` (trial
    worker process death) is reported to the coordinator with the
    in-flight fault-model names, so the shard is re-queued and the
    operator can see *what* took the worker down.

    ``address`` is ``"host:port"`` or a configured
    :class:`~repro.service.client.ServiceClient`.  The runner closes the
    client's connections when :meth:`run_forever` returns.
    """

    def __init__(
        self,
        address,
        *,
        worker_id: Optional[str] = None,
        ttl: float = 5.0,
        poll: float = 0.2,
        workbench=None,
        trial_workers: int = 0,
    ):
        from repro.service.client import ServiceClient

        self.client = ServiceClient.parse(address)
        self.worker_id = worker_id or f"worker-{id(self):x}"
        self.ttl = ttl
        self.poll = poll
        self.trial_workers = trial_workers
        self._workbench = workbench
        self._executor = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.leases = 0
        self.shards_done = 0
        self.shards_failed = 0
        #: Worker-local registry: engine counters folded in after each
        #: shard, shipped to the coordinator as heartbeat deltas.
        self.registry = MetricsRegistry()
        self._profiler = EngineProfiler(self.registry)
        #: Snapshot acknowledged by the last successful heartbeat — the
        #: delta baseline.  Touched only by the (one-at-a-time, joined)
        #: heartbeat threads.
        self._last_sent: Optional[dict[str, Any]] = None

    @property
    def workbench(self):
        if self._workbench is None:
            from repro.toolchain.workbench import Workbench

            self._workbench = Workbench()
        return self._workbench

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "FleetRunner":
        """Run the lease loop on a daemon thread (tests/harness use)."""
        if self._thread is not None:
            raise RuntimeError("runner already started")
        self._thread = threading.Thread(
            target=self.run_forever, name=f"repro-fleet-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, join: bool = True) -> None:
        self._stop.set()
        if join and self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "FleetRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the loop ----------------------------------------------------------
    def run_forever(self, max_shards: Optional[int] = None) -> None:
        from repro.service.client import ServiceError

        try:
            while not self._stop.is_set():
                if max_shards is not None and self.shards_done >= max_shards:
                    return
                try:
                    leased = self.client.fleet_lease(self.worker_id, ttl=self.ttl)
                except ServiceError:
                    # Coordinator unreachable (the client already retried
                    # with backoff): keep polling until stopped.
                    if self._stop.wait(self.poll):
                        return
                    continue
                shard = leased.get("shard")
                if shard is None:
                    delay = float(leased.get("retry_after") or self.poll)
                    if self._stop.wait(min(delay, self.poll)):
                        return
                    continue
                self.leases += 1
                self.registry.counter("repro_worker_leases_total").inc()
                self._run_shard(shard)
        finally:
            if self._executor is not None:
                self._executor.close(wait=False)
                self._executor = None
            self.client.close()

    def _run_shard(self, shard: dict[str, Any]) -> None:
        from repro.service.client import ServiceError
        from repro.service.jobs import job_from_dict
        from repro.toolchain.executor import CampaignExecutorError

        shard_id = shard["shard_id"]
        token = shard["token"]
        hb_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(shard_id, token, hb_stop),
            name=f"repro-fleet-{self.worker_id}-hb",
            daemon=True,
        )
        heartbeat.start()
        program = None
        try:
            try:
                job = job_from_dict(shard["job"])
                program = job.compile(self.workbench)
                payload = job.run_shard(
                    self.workbench,
                    shard["attack_index"],
                    executor=self._trial_executor(),
                    program=program,
                )
            except CampaignExecutorError as exc:
                # The network extension of local executor recovery: name
                # the in-flight fault models in the shard's event stream.
                self._count_shard_failed()
                self._report_error(
                    shard_id,
                    token,
                    str(exc),
                    [repr(model) for model in exc.fault_models[:8]],
                )
                return
            except Exception as exc:  # noqa: BLE001 — shard bugs must not kill the loop
                self._count_shard_failed()
                self._report_error(
                    shard_id, token, f"{type(exc).__name__}: {exc}", []
                )
                return
            try:
                self.client.fleet_result(
                    shard_id, self.worker_id, token=token, result=payload
                )
                self.shards_done += 1
                self.registry.counter("repro_worker_shards_done_total").inc()
            except ServiceError:
                # The coordinator will steal the lease; the re-run is
                # deterministic and the eventual duplicate merges cleanly.
                self._count_shard_failed()
        finally:
            hb_stop.set()
            heartbeat.join(timeout=5)
            self._sample_engine(program)
            self._flush_metrics(shard_id, token)

    def _trial_executor(self):
        if self.trial_workers and self._executor is None:
            from repro.toolchain.executor import CampaignExecutor

            # One in-shard recovery attempt before reporting the failure
            # (and its fault models) back to the coordinator: a single
            # dead trial process shouldn't cost a whole lease round-trip.
            self._executor = CampaignExecutor(
                max_workers=self.trial_workers,
                max_batch_retries=1,
                metrics=self.registry,
            )
        return self._executor

    def _count_shard_failed(self) -> None:
        self.shards_failed += 1
        self.registry.counter("repro_worker_shards_failed_total").inc()

    def _sample_engine(self, program) -> None:
        """After-shard boundary: fold the engine's own counters into the
        worker registry (the next heartbeat ships the delta)."""
        if program is not None:
            self._profiler.sample_program(program)
        if self._workbench is not None:
            self._profiler.sample_workbench(self._workbench)
        if self._executor is not None:
            self._profiler.sample_executor(self._executor)

    def _flush_metrics(self, shard_id: str, token: str) -> None:
        """Best-effort final beat carrying whatever the heartbeat loop
        hasn't shipped yet (the shard's own engine counters land here —
        the loop was already asleep when the shard finished).  A stolen
        lease still merges the metrics; only the renewal is refused."""
        from repro.service.client import ServiceError

        snapshot = self.registry.snapshot()
        delta = snapshot_delta(self._last_sent, snapshot)
        if not (delta.get("counters") or delta.get("histograms")):
            return
        try:
            self.client.fleet_heartbeat(
                shard_id, self.worker_id, token, ttl=self.ttl, metrics=delta
            )
            self._last_sent = snapshot
        except ServiceError:
            pass  # the next shard's heartbeats re-ship the delta

    def _report_error(
        self, shard_id: str, token: str, error: str, fault_models: list[str]
    ) -> None:
        from repro.service.client import ServiceError

        try:
            self.client.fleet_result(
                shard_id,
                self.worker_id,
                token=token,
                error=error,
                fault_models=fault_models,
            )
        except ServiceError:
            pass  # lease expiry re-queues the shard anyway

    def _heartbeat_loop(
        self, shard_id: str, token: str, stop: threading.Event
    ) -> None:
        from repro.service.client import ServiceError

        interval = max(0.05, self.ttl / 3.0)
        while not stop.wait(interval):
            snapshot = self.registry.snapshot()
            delta = snapshot_delta(self._last_sent, snapshot)
            try:
                renewed = self.client.fleet_heartbeat(
                    shard_id,
                    self.worker_id,
                    token,
                    ttl=self.ttl,
                    metrics=delta or None,
                )
            except ServiceError:
                continue  # transient; the next beat retries the delta too
            self._last_sent = snapshot
            if not renewed.get("valid"):
                return  # lease stolen: stop renewing (result may still land)
