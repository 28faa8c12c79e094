"""Sampled engine profiling: where do the simulated cycles go?

The trial fast loop (checkpoint fork → run → classify) must stay
hook-free — PR 6's CI gate holds its throughput to spec.  So profiling
*samples* instead of instrumenting: every interesting engine object
already keeps cheap counters for its own purposes
(:class:`~repro.faults.scheduler.SchedulerStats`, the Workbench cache
hit/miss pair, :attr:`CampaignExecutor.batch_retries`), and
:class:`EngineProfiler` reads them at natural boundaries — after a
shard or a job, after a batch, on a heartbeat — folding the *deltas* into a
:class:`~repro.obs.metrics.MetricsRegistry`.

Sampling at boundaries means the registry always reflects completed
work (no torn reads mid-trial) and costs nothing while trials run.
"""

from __future__ import annotations

import weakref
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry

#: SchedulerStats field -> counter series (monotonic; sampled as deltas).
ENGINE_COUNTERS: dict[str, str] = {
    "trials": "repro_engine_trials_total",
    "forked": "repro_engine_trials_forked_total",
    "short_circuited": "repro_engine_trials_short_circuited_total",
    "simulated_instructions": "repro_engine_instructions_total",
    "simulated_cycles": "repro_engine_cycles_total",
    "superblock_blocks": "repro_engine_superblock_blocks_total",
    "superblock_deopt_steps": "repro_engine_superblock_deopt_steps_total",
    "rejoined": "repro_engine_trials_rejoined_total",
    "saved_instructions": "repro_engine_instructions_saved_total",
}


class EngineProfiler:
    """Folds engine-object counters into a registry, delta-safely.

    One profiler per registry owner (job scheduler, fleet worker).
    ``sample_*`` methods are idempotent between engine progress: sampling
    twice adds nothing, so callers can sample opportunistically.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Last-sampled counts per scheduler and per executor.  Weak keys:
        #: a program's scheduler memo evicts old schedulers, and an entry
        #: keyed by ``id()`` would outlive its object and hand a fresh
        #: scheduler at the same address its predecessor's baseline.
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._executor_retries: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- trial schedulers ---------------------------------------------------
    def sample_scheduler(self, scheduler: Any) -> None:
        """Fold one :class:`~repro.faults.scheduler.TrialScheduler`'s
        stats into the registry (counters as deltas, ladder shape as
        gauges)."""
        stats = scheduler.stats
        previous = self._seen.get(scheduler, {})
        current: dict[str, int] = {}
        for field, series in ENGINE_COUNTERS.items():
            value = int(getattr(stats, field, 0))
            current[field] = value
            delta = value - previous.get(field, 0)
            if delta > 0:
                self.registry.counter(series).inc(delta)
        self._seen[scheduler] = current
        self.registry.gauge("repro_engine_checkpoints").set(stats.checkpoints)
        self.registry.gauge("repro_engine_checkpoint_interval").set(stats.interval)
        dirty = getattr(
            getattr(scheduler, "_trial_cpu", None), "_dirty_pages", None
        )
        if dirty is not None:
            self.registry.gauge("repro_engine_dirty_pages").set(len(dirty))

    def sample_program(self, program: Any) -> None:
        """Sample every scheduler memoized on a compiled program — at a
        job or shard boundary for the in-process fork engine, whose fast
        loop carries no hooks at all."""
        for scheduler in dict(getattr(program, "_schedulers", {}) or {}).values():
            self.sample_scheduler(scheduler)

    # -- compile cache ------------------------------------------------------
    def sample_workbench(self, workbench: Any) -> None:
        self.registry.gauge("repro_compile_cache_hits").set(workbench.hits)
        self.registry.gauge("repro_compile_cache_misses").set(workbench.misses)
        self.registry.gauge("repro_compile_cache_programs").set(
            workbench.cached_programs
        )

    # -- trial executors ----------------------------------------------------
    def sample_executor(self, executor: Any) -> None:
        """Fold a :class:`~repro.toolchain.executor.CampaignExecutor`'s
        pool-rebuild counter in (its per-batch engine counters arrive via
        the worker snapshot merge, not here)."""
        retries = int(getattr(executor, "batch_retries", 0))
        previous = self._executor_retries.get(executor, 0)
        if retries > previous:
            self.registry.counter("repro_engine_batch_retries_total").inc(
                retries - previous
            )
        self._executor_retries[executor] = retries
