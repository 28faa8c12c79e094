"""The public metric catalogue: every series name, its type, its help.

One table, three consumers:

* :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus` takes the
  ``# HELP`` text from here;
* ``docs/observability.md`` documents every entry — the documentation
  test (:mod:`tests.test_docs_snippets`) fails when a catalogue entry is
  missing from the page, the same contract the fault-model reference has;
* tests assert that everything a live service exposes on ``/metrics``
  appears here, so an undeclared series cannot ship.

Counters follow the Prometheus ``_total`` suffix convention; histograms
render as summaries (p50/p90/p99).  Label dimensions (``state=``,
``action=``) are noted in the help text.
"""

from __future__ import annotations

#: name -> (type, help).  Types: "counter" | "gauge" | "histogram".
CATALOG: dict[str, tuple[str, str]] = {
    # -- engine (trial execution; merged in from forked workers and fleet
    # -- heartbeats, so these are totals across every process that worked
    # -- for this service) --------------------------------------------------
    "repro_engine_trials_total": (
        "counter", "Fault trials executed (all engines, all workers)."
    ),
    "repro_engine_trials_forked_total": (
        "counter", "Trials served by checkpoint forking (vs full re-runs)."
    ),
    "repro_engine_trials_short_circuited_total": (
        "counter",
        "Trials answered from the golden suffix without simulating.",
    ),
    "repro_engine_instructions_total": (
        "counter", "Instructions actually simulated by trials."
    ),
    "repro_engine_cycles_total": (
        "counter", "Cycles actually simulated by trials."
    ),
    "repro_engine_superblock_blocks_total": (
        "counter",
        "Compiled traces entered by fork-engine trials.",
    ),
    "repro_engine_superblock_deopt_steps_total": (
        "counter",
        "Instructions fork-engine trials single-stepped instead of running "
        "compiled traces (open fault windows, code reached the first "
        "time, near-timeout tails).",
    ),
    "repro_engine_trials_rejoined_total": (
        "counter",
        "Trials whose state matched the golden run's except for the CFI "
        "monitor at their probe checkpoint, decided from the golden run.",
    ),
    "repro_engine_instructions_saved_total": (
        "counter",
        "Instructions rejoined trials were decided for without simulating "
        "(projected end minus the probe).",
    ),
    "repro_engine_batch_retries_total": (
        "counter", "Trial batches resubmitted after a worker-pool rebuild."
    ),
    "repro_engine_checkpoints": (
        "gauge", "Checkpoints held by the most recently sampled scheduler."
    ),
    "repro_engine_checkpoint_interval": (
        "gauge",
        "Retired-instruction spacing of the sampled scheduler's checkpoint "
        "ladder (doubles when the ladder thins).",
    ),
    "repro_engine_dirty_pages": (
        "gauge",
        "Pages the sampled scheduler's most recent trial left dirty on the "
        "CPU it borrowed.",
    ),
    "repro_engine_batch_seconds": (
        "histogram", "Wall-clock seconds per merged trial batch."
    ),
    # -- compile cache -------------------------------------------------------
    "repro_compile_seconds": (
        "histogram", "Wall-clock seconds per service-side compile call."
    ),
    "repro_compile_cache_hits": (
        "gauge", "Workbench compile-cache hits (lifetime of the workbench)."
    ),
    "repro_compile_cache_misses": (
        "gauge", "Workbench compile-cache misses (real compilations)."
    ),
    "repro_compile_cache_programs": (
        "gauge", "Programs currently resident in the Workbench LRU."
    ),
    # -- job queue -----------------------------------------------------------
    "repro_jobs_submitted_total": ("counter", "Jobs accepted onto the queue."),
    "repro_jobs_executed_total": ("counter", "Jobs executed to completion."),
    "repro_jobs_failed_total": ("counter", "Jobs that ended in failure."),
    "repro_jobs_cancelled_total": ("counter", "Jobs cancelled before finishing."),
    "repro_jobs_deduplicated_inflight_total": (
        "counter", "Submissions answered by an already-queued/running job."
    ),
    "repro_jobs_deduplicated_store_total": (
        "counter", "Submissions answered from the persistent result store."
    ),
    "repro_queue_depth": (
        "gauge", "Jobs queued with no shard claimed or leased yet."
    ),
    "repro_jobs_inflight": ("gauge", "Jobs queued or running right now."),
    "repro_runners": ("gauge", "Runner threads claiming shards locally."),
    "repro_trial_workers": (
        "gauge", "Configured trial worker processes per runner thread."
    ),
    "repro_store_jobs": (
        "gauge", "Jobs in the persistent ledger, by state= label."
    ),
    "repro_job_seconds": (
        "histogram", "Wall-clock seconds per executed job."
    ),
    "repro_traces_total": ("counter", "Job traces recorded to the store."),
    # -- fleet ---------------------------------------------------------------
    "repro_fleet_leases_total": ("counter", "Shard leases handed to workers."),
    "repro_fleet_heartbeats_total": ("counter", "Shard lease renewals received."),
    "repro_fleet_shards_completed_total": (
        "counter", "Shard results accepted (first completion per shard)."
    ),
    "repro_fleet_duplicates_total": (
        "counter", "Duplicate shard completions dropped by the idempotent merge."
    ),
    "repro_fleet_retries_total": (
        "counter", "Worker-reported shard failures that were re-queued."
    ),
    "repro_fleet_steals_total": (
        "counter", "Expired leases returned to the pool (work-stealing)."
    ),
    "repro_fleet_local_shards_total": (
        "counter", "Shards runner threads ran locally (no remote worker active)."
    ),
    "repro_fleet_resumed_shards_total": (
        "counter", "Shards answered from the store after a restart."
    ),
    "repro_fleet_workers_active": (
        "gauge", "Workers heard from within the worker TTL."
    ),
    "repro_fleet_shards": (
        "gauge", "Live shard-table entries, by state= label."
    ),
    # -- fleet worker (one series per FleetRunner; heartbeats roll them up
    # -- into the coordinator's registry) ------------------------------------
    "repro_worker_leases_total": ("counter", "Shard leases this worker took."),
    "repro_worker_shards_done_total": (
        "counter", "Shards this worker completed and had accepted."
    ),
    "repro_worker_shards_failed_total": (
        "counter", "Shards this worker failed or could not deliver."
    ),
    # -- service chaos harness ----------------------------------------------
    "repro_chaos_decisions_total": (
        "counter",
        "Chaos-proxy decisions, by action= label (pass/drop/delay/duplicate).",
    ),
}


def help_text(name: str) -> str:
    """The catalogue help line for ``name`` (a placeholder when the
    series is not declared — tests flag those)."""
    entry = CATALOG.get(name)
    return entry[1] if entry is not None else "undocumented series"


def metric_type(name: str) -> str:
    entry = CATALOG.get(name)
    return entry[0] if entry is not None else "untyped"
