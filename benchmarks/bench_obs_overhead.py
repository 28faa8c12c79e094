"""Observability overhead gate: instrumentation must be near-free.

Two measurements:

* **overhead** — fork-engine campaign throughput with the
  :class:`repro.obs.profile.EngineProfiler` sampling at every attack
  boundary (more often than the service, which samples once per job)
  versus the same
  campaign with no observability at all.  The gated ratio compares the
  *best* round of each arm (arm order alternates per round, so neither
  arm systematically eats host-load ramps): metrics-enabled throughput
  must stay ≥ 95 % of disabled
  (``benchmarks/baselines/BENCH_obs.json``, tolerance 0.05).  Best-of-N
  is deliberately load-robust — transient contention slows some rounds,
  but a real regression (someone instrumenting the trial fast loop)
  slows every round, including the best one.  Sampling reads a handful
  of counters per *attack*, not per trial, so the ratio should sit at
  ~1.0.
* **artifacts** — a small served campaign with full tracing on, whose
  ``/metrics`` scrape and span trace are written to
  ``benchmarks/results/`` (``obs_metrics_scrape.txt``,
  ``obs_sample_trace.ndjson``) — the CI observability job uploads both,
  so every run leaves an inspectable sample of the two exposition
  formats.

Results land in ``BENCH_obs.json`` (section ``obs_overhead``).
"""

import gc
import json
import statistics
import time
from pathlib import Path

from repro.bench import (
    bench_json_path,
    check_bench_regression,
    format_table,
    record_bench_json,
    save_table,
)
from repro.obs import EngineProfiler, MetricsRegistry, Tracer
from repro.programs import load_source
from repro.service import BackgroundService
from repro.service.jobs import ATTACK_SUITES, AttackSpec, CampaignJob
from repro.toolchain import CompileConfig, Workbench

OBS_JSON = bench_json_path().with_name("BENCH_obs.json")
OBS_BASELINE = Path(__file__).resolve().parent / "baselines" / "BENCH_obs.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Paired timing rounds (each round runs both arms back to back, in
#: alternating order, so slow drift on a busy CI host cannot bias one
#: arm).
ROUNDS = 9
#: Campaign sweeps per timed arm (amortises timer granularity).
SWEEPS = 16


def _campaign_once(program, profiler=None):
    """One production-shaped attack: fork engine, per-trial recording —
    and, on the metrics arm, the after-attack profiler sample.  The
    skip sweep covers every instruction, so one campaign is tens of
    trials over ~10 ms — one registry read per attack, not per trial, and
    the service reads once per job."""
    result = ATTACK_SUITES["skip-sweep"](
        program,
        "integer_compare",
        [7, 7],
        engine="fork",
        record_trials=True,
    )
    if profiler is not None:
        profiler.sample_program(program)
    return result


def _time_arm(program, profiler=None):
    start = time.perf_counter()
    trials = 0
    for _ in range(SWEEPS):
        trials += _campaign_once(program, profiler).trials
    return trials / (time.perf_counter() - start)


def test_obs_overhead_within_five_percent():
    workbench = Workbench()
    program = workbench.compile(
        load_source("integer_compare"), CompileConfig(scheme="ancode")
    )
    profiler = EngineProfiler(MetricsRegistry())
    _campaign_once(program)  # warm-up: golden run + scheduler memoisation

    off_runs, on_runs = [], []
    for round_index in range(ROUNDS):
        if round_index % 2 == 0:
            off_runs.append(_time_arm(program))
            on_runs.append(_time_arm(program, profiler))
        else:
            on_runs.append(_time_arm(program, profiler))
            off_runs.append(_time_arm(program))
    best_off, best_on = max(off_runs), max(on_runs)
    ratio = best_on / best_off

    assert profiler.registry.counter("repro_engine_trials_total").value > 0

    payload = {
        "rounds": ROUNDS,
        "sweeps_per_arm": SWEEPS,
        "throughput_off_trials_per_s": round(best_off, 1),
        "throughput_on_trials_per_s": round(best_on, 1),
        "throughput_ratio": round(ratio, 4),
        "median_paired_ratio": round(
            statistics.median(
                on / off for on, off in zip(on_runs, off_runs)
            ),
            4,
        ),
    }
    record_bench_json("obs_overhead", payload, path=OBS_JSON)
    check_bench_regression(
        "obs_overhead",
        "throughput_ratio",
        ratio,
        baseline_path=OBS_BASELINE,
        tolerance=0.05,
    )
    save_table(
        "obs_overhead",
        format_table(
            "Observability overhead — fork-engine campaign throughput",
            ["Metric", "Value"],
            [[key, value] for key, value in payload.items()],
        ),
    )


def test_obs_sample_artifacts():
    """Serve one traced campaign and write the two exposition formats to
    benchmarks/results/ for the CI artifact upload."""
    job = CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=(7, 7),
        config=CompileConfig(scheme="ancode"),
        attacks=(
            AttackSpec.make("branch-flip", max_branches=4),
            AttackSpec.make("skip-sweep"),
        ),
        title="obs-sample",
    )
    with BackgroundService() as service:
        client = service.client()
        client.run(job)
        scrape = client.metrics()
        spans = client.trace(job.job_id())

    assert "# TYPE repro_engine_trials_total counter" in scrape
    assert [s["name"] for s in spans][:2] == ["job", "compile"]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs_metrics_scrape.txt").write_text(scrape)
    ndjson = "".join(
        json.dumps(span, sort_keys=True) + "\n" for span in spans
    )
    (RESULTS_DIR / "obs_sample_trace.ndjson").write_text(ndjson)
    # The NDJSON must round-trip through the Tracer's own reader.
    assert len(Tracer.from_ndjson(ndjson)) == len(spans)
    # The service run leaves a generation of garbage (job state, span
    # dicts, scrape text); collect it here so the next bench's timing
    # windows don't absorb our GC pause.
    gc.collect()
