"""Parallel fault-campaign execution across worker processes.

A campaign is embarrassingly parallel: every trial is independent given
the compiled program.  :class:`CampaignExecutor` shards a trial batch
across a ``multiprocessing`` pool:

* workers are forked where the platform can fork, and inherit the
  parent's :class:`~repro.backend.driver.CompiledProgram` with its
  memoized trial schedulers, so a pool forked after the parent captured
  a workload's golden run reuses it.  Elsewhere the program is pickled
  once per worker (pool initializer; see ``CodeImage.__getstate__``),
  and each worker captures its own golden run on first use;
* workers stream back compact ``(outcome, exit_code)`` pairs — plus the
  fault's golden fire index when ``record_trials`` is set — which the
  parent merges into an :class:`~repro.faults.isa_campaign.AttackResult`
  in submission order, so parallel tallies — including the order-sensitive
  ``wrong_codes`` and per-trial ``records`` lists — are byte-identical to
  the single-process engine.

Usage::

    with CampaignExecutor(max_workers=4) as executor:
        result = run_attack(program, "cmp", [7, 7], models, executor=executor)
        # or: workbench.campaign(src, "cmp", [7, 7]).attack(...).run(executor=executor)
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Optional

from repro.faults.isa_campaign import AttackResult

#: An attack is cut into this many batches per worker process, so a slow
#: batch leaves the other workers something to do.
BATCHES_PER_WORKER = 4


class CampaignExecutorError(RuntimeError):
    """A worker process died (or the pool broke) mid-campaign.

    Carries the batch that was in flight so callers can report *which*
    fault model took the worker down (``fault_models`` is the failing
    batch, in submission order).
    """

    def __init__(self, message: str, fault_models: Optional[list] = None):
        super().__init__(message)
        self.fault_models = list(fault_models or [])

# -- worker side ------------------------------------------------------------
_WORKER_PROGRAM = None


def _init_worker(program) -> None:
    global _WORKER_PROGRAM
    _WORKER_PROGRAM = program


def _run_batch(
    function,
    args,
    models,
    max_cycles,
    record_trials=False,
    spec=None,
    collect_metrics=False,
):
    from repro.faults.isa_campaign import run_trials
    from repro.faults.scheduler import TrialScheduler

    scheduler = TrialScheduler.for_program(_WORKER_PROGRAM, function, args, spec=spec)
    if not collect_metrics:
        return (*run_trials(scheduler, models, max_cycles, record_trials), None)
    import time

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import ENGINE_COUNTERS

    stats_before = {
        field: int(getattr(scheduler.stats, field, 0)) for field in ENGINE_COUNTERS
    }
    started = time.perf_counter()
    rows, cycles = run_trials(scheduler, models, max_cycles, record_trials)
    registry = MetricsRegistry()
    for field, series in ENGINE_COUNTERS.items():
        delta = int(getattr(scheduler.stats, field, 0)) - stats_before[field]
        if delta > 0:
            registry.counter(series).inc(delta)
    registry.histogram("repro_engine_batch_seconds").observe(
        time.perf_counter() - started
    )
    return rows, cycles, registry.snapshot()


# -- parent side ------------------------------------------------------------
class CampaignExecutor:
    """A process pool dedicated to fault-campaign trials.

    The pool is bound to the first program it runs (workers hold its
    unpickled image); running a different program restarts the pool.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_batch_retries: int = 0,
        metrics=None,
    ):
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`.  When set,
        #: workers count their engine activity (trials, forked trials,
        #: simulated cycles, per-batch wall seconds) into a throwaway
        #: worker-side registry whose picklable snapshot rides back with
        #: the batch results and merges here — the parent's registry sees
        #: fleet-wide engine totals without any shared state.  ``None``
        #: (the default) keeps the worker loop entirely metrics-free.
        self.metrics = metrics
        #: Broken-pool recovery budget: when a worker dies, rebuild the
        #: pool and resubmit the failed batches up to this many times per
        #: attack before raising :class:`CampaignExecutorError`.  Trials
        #: are deterministic, so a resubmitted batch merges into the same
        #: byte-identical result.  The default (0) preserves fail-fast
        #: behaviour; fleet workers opt in.
        self.max_batch_retries = max_batch_retries
        #: Batches resubmitted after pool rebuilds (across the executor's
        #: lifetime) — surfaced in worker/service diagnostics.
        self.batch_retries = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._program = None
        #: Optional progress hook, called after each merged batch with
        #: ``(batches_done, batch_count, trials_done, trial_count)``.  The
        #: service tier uses it to stream per-batch campaign progress.
        self.on_batch: Optional[Callable[[int, int, int, int], None]] = None

    # -- lifecycle --------------------------------------------------------
    def _pool_for(self, program) -> ProcessPoolExecutor:
        if self._pool is not None and self._program is not program:
            self.close()
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(program,),
            )
            self._program = program
        return self._pool

    def close(self, wait: bool = True) -> None:
        """Shut the pool down.  Idempotent: safe to call repeatedly, after
        a worker crash, and from ``finally`` blocks racing ``__exit__``.
        ``wait=False`` additionally cancels queued batches and returns
        without draining the workers (service shutdown mid-campaign)."""
        pool, self._pool, self._program = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution --------------------------------------------------------
    def run_attack(
        self,
        program,
        function: str,
        args: list[int],
        models,
        attack_name: str = "attack",
        max_cycles: int = 2_000_000,
        record_trials: bool = False,
        spec=None,
    ) -> AttackResult:
        """Shard ``models`` into batches and merge the streamed outcomes.

        ``spec`` (a :class:`repro.spec.SpecConfig` — frozen and built from
        primitives, so it pickles to workers unchanged) runs every
        worker's golden execution and trials speculatively; the
        per-worker schedulers reconstruct identical transient digests, so
        sharded speculative reports match the single-process engine."""
        models = list(models)
        result = AttackResult(attack_name)
        if record_trials:
            result.records = []
        if not models:
            return result
        pool = self._pool_for(program)
        target_batches = max(1, self.max_workers * BATCHES_PER_WORKER)
        batch_size = max(1, -(-len(models) // target_batches))
        batches = [models[i : i + batch_size] for i in range(0, len(models), batch_size)]
        collect_metrics = self.metrics is not None
        futures = [
            pool.submit(
                _run_batch, function, list(args), batch, max_cycles,
                record_trials, spec, collect_metrics,
            )
            for batch in batches
        ]
        trials_done = 0
        retries_left = self.max_batch_retries
        index = 0
        while index < len(batches):  # submission order == model order
            future = futures[index]
            try:
                outcomes, batch_cycles, batch_metrics = future.result()
            except BrokenExecutor as exc:
                # The pool is unusable once a worker dies; drop it so the
                # next run_attack starts a fresh one.  Every batch that had
                # not finished when the pool broke is a crash candidate
                # (the breakage fails all pending futures at once, so the
                # first future to raise need not be the culprit); surface
                # them all, leading fault models first.
                failed = [
                    j
                    for j in range(index, len(batches))
                    if futures[j].cancelled() or futures[j].exception() is not None
                ]
                self.close()
                if retries_left > 0:
                    # Recovery: fresh pool, resubmit exactly the batches
                    # that never completed.  Completed futures keep their
                    # results and the merge below still walks submission
                    # order, so the rebuilt run stays byte-identical.
                    retries_left -= 1
                    self.batch_retries += len(failed)
                    if collect_metrics:
                        self.metrics.counter(
                            "repro_engine_batch_retries_total"
                        ).inc(len(failed))
                    pool = self._pool_for(program)
                    for j in failed:
                        futures[j] = pool.submit(
                            _run_batch, function, list(args), batches[j],
                            max_cycles, record_trials, spec, collect_metrics,
                        )
                    continue
                in_flight = [batches[j] for j in failed]
                models_in_flight = [m for batch in in_flight for m in batch]
                leads = ", ".join(repr(batch[0]) for batch in in_flight[:6])
                if len(in_flight) > 6:
                    leads += ", ..."
                raise CampaignExecutorError(
                    f"worker process died during attack {attack_name!r}: "
                    f"{len(in_flight)} of {len(batches)} batches were in "
                    f"flight ({len(models_in_flight)} trials; leading fault "
                    f"models: {leads})",
                    fault_models=models_in_flight,
                ) from exc
            result.add_rows(outcomes)
            result.simulated_cycles += batch_cycles
            if batch_metrics is not None and self.metrics is not None:
                self.metrics.merge(batch_metrics)
            trials_done += len(batches[index])
            if self.on_batch is not None:
                self.on_batch(index + 1, len(batches), trials_done, len(models))
            index += 1
        return result
