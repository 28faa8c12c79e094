"""E6 — ISA-level attack campaign: the qualitative security comparison.

Reproduces the paper's core security argument end-to-end on compiled code:

* a single branch-direction flip defeats CFI-only, is trapped by
  duplication, and trips the prototype's CFI linking;
* *repeating* the flip at every comparison walks through the duplication
  tree (Section II-C) but still cannot beat the prototype.
"""

import os
import time

import pytest

from repro.bench import (
    check_bench_regression,
    format_table,
    record_bench_json,
    save_table,
)
from repro.faults.classify import Outcome
from repro.faults.isa_campaign import (
    branch_flip_sweep,
    operand_corruption_sweep,
    repeated_branch_flip,
    run_attack,
    skip_sweep,
)
from repro.faults.models import InstructionSkip
from repro.programs import load_source
from repro.toolchain import CampaignBuilder, CompileConfig, table3_schemes

SCHEMES = table3_schemes()
ARGS = [7, 7]
#: Gate on single steps per fork trial of the strided memcmp sweep: a
#: skip trial steps its window, which retires nothing, and the code it
#: reaches for the first time (the sweep is cold: each trace compiles at
#: its second reach).
MAX_DEOPT_STEPS_PER_TRIAL = 2


@pytest.fixture(scope="module")
def programs(workbench):
    source = load_source("integer_compare")
    return {
        scheme: workbench.compile(source, CompileConfig(scheme=scheme))
        for scheme in SCHEMES
    }


def run_campaign(programs):
    table = {}
    for scheme in SCHEMES:
        report = (
            CampaignBuilder(programs[scheme], "integer_compare", ARGS)
            .attack(branch_flip_sweep, name="single-flip", max_branches=1)
            .attack(repeated_branch_flip, name="repeated-flip")
            .attack(skip_sweep, name="skip-sweep")
            .run()
        )
        table[scheme] = report.attacks
    return table


def test_security_campaign(benchmark, programs):
    table = benchmark.pedantic(run_campaign, args=(programs,), rounds=1, iterations=1)

    # CFI-only: the decision is the single point of failure.
    assert table["none"]["single-flip"].undetected_wrong == 1
    assert table["none"]["repeated-flip"].undetected_wrong == 1
    # Duplication: catches one flip, defeated by repetition (Section II-C).
    assert table["duplication"]["single-flip"].outcomes.get(Outcome.DETECTED_TRAP, 0) == 1
    assert table["duplication"]["repeated-flip"].undetected_wrong == 1
    # Prototype: detects both, via the CFI linking (Figure 2).
    assert table["ancode"]["single-flip"].outcomes.get(Outcome.DETECTED_CFI, 0) == 1
    assert table["ancode"]["repeated-flip"].outcomes.get(Outcome.DETECTED_CFI, 0) == 1
    assert table["ancode"]["repeated-flip"].undetected_wrong == 0
    # Instruction skips must never silently change any scheme's result.
    for scheme in SCHEMES:
        assert table[scheme]["skip-sweep"].undetected_wrong == 0

    rows = []
    for scheme in SCHEMES:
        for attack, result in table[scheme].items():
            outcome_text = ", ".join(
                f"{k.value}:{v}" for k, v in sorted(result.outcomes.items(), key=lambda e: e[0].value)
            )
            rows.append([scheme, attack, result.trials, outcome_text])
    text = format_table(
        "E6 — attack outcomes per scheme (single vs repeated branch flips, skips)",
        ["Scheme", "Attack", "Trials", "Outcomes"],
        rows,
    )
    save_table("security_isa_campaign", text)


# ---------------------------------------------------------------------------
# Quick-mode campaign engine bench: the default engine vs the reference oracle
# ---------------------------------------------------------------------------
def _quick_campaign(programs, engine, memcmp_models):
    """A representative mixed workload; returns (trials, simulated cycles)."""
    trials = cycles = 0
    # integer_compare: the paper's minimal protected decision — full suite.
    micro = programs["ancode"]
    for result in (
        skip_sweep(micro, "integer_compare", ARGS, engine=engine),
        branch_flip_sweep(micro, "integer_compare", ARGS, max_branches=8, engine=engine),
        repeated_branch_flip(micro, "integer_compare", ARGS, engine=engine),
        operand_corruption_sweep(micro, "integer_compare", ARGS, engine=engine),
    ):
        trials += result.trials
        cycles += result.simulated_cycles
    # memcmp: a loopy workload with injection points spread over the
    # whole execution.
    result = run_attack(
        programs["memcmp-ancode"],
        "run_memcmp",
        [128],
        memcmp_models,
        "strided-skip",
        engine=engine,
    )
    trials += result.trials
    cycles += result.simulated_cycles
    return trials, cycles


def _memcmp_models(memcmp):
    """Skip every 32nd dynamic instruction of the golden memcmp run."""
    total = memcmp.trial_scheduler("run_memcmp", [128]).golden.instructions
    return [InstructionSkip(i) for i in range(1, total + 1, 32)]


@pytest.fixture(scope="module")
def engine_programs(workbench):
    return {
        "ancode": workbench.compile(
            load_source("integer_compare"), CompileConfig(scheme="ancode")
        ),
        "memcmp-ancode": workbench.compile(
            load_source("memcmp"), CompileConfig(scheme="ancode")
        ),
    }


def _fresh_images(engine_programs):
    """Drop every memoized golden run, trial CPU, compiled trace and
    pristine image, so a measured campaign pays golden capture,
    checkpoint ladder, CPU allocation and trace compiles."""
    for program in engine_programs.values():
        program._schedulers.clear()
        program._trial_cpus.clear()
        program.image._superblock_cache = None
        program.image._pristine = None


def test_campaign_engine_speedup(benchmark, engine_programs):
    """Checkpoint forking onto trace-compiled trial CPUs is >= 3x the
    reference interpreter in trials/sec on the mixed quick workload,
    single-process, with golden capture and every trace compile charged
    to the fork engine.

    ``cycles_simulated_per_sec`` counts the cycles each engine actually
    simulated.  A fork trial that rejoins the golden run stops at its
    probe, so the fork figure measures work done and is not comparable
    with the reference engine's, which runs every trial to its end."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    memcmp_models = _memcmp_models(engine_programs["memcmp-ancode"])
    measurements = {}
    for engine in ("reference", "fork"):
        _fresh_images(engine_programs)
        start = time.perf_counter()
        trials, cycles = _quick_campaign(engine_programs, engine, memcmp_models)
        seconds = time.perf_counter() - start
        measurements[engine] = {
            "trials": trials,
            "seconds": round(seconds, 3),
            "trials_per_sec": round(trials / seconds, 1),
            "cycles_simulated_per_sec": round(cycles / seconds),
        }

    speedup = (
        measurements["fork"]["trials_per_sec"]
        / measurements["reference"]["trials_per_sec"]
    )
    payload = {
        **measurements,
        "speedup_vs_reference": round(speedup, 2),
        "parallel": _parallel_measurement(engine_programs),
    }
    record_bench_json("campaign_quick", payload)
    check_bench_regression("campaign_quick", "speedup_vs_reference", speedup)
    assert speedup >= 3.0, (
        f"fork engine only {speedup:.1f}x the reference engine "
        f"({measurements})"
    )


def test_memcmp_strided_engine_speedup(benchmark, engine_programs):
    """The loop-dominated campaign: a strided skip sweep over memcmp[256],
    where trace compilation pays most.  Gated against the reference
    oracle (>= 10x trials/sec, hard floor) and against the checked-in
    baseline ratio.

    Golden capture and the traces the campaign compiles on demand stay
    inside the timed region.  The cold compile of the trace of *every*
    partition entry of the image, from a freshly compiled image, is
    reported separately as ``trace_compile_seconds``, and the cold golden
    capture of the campaign's workload on another fresh image as
    ``golden_capture_seconds`` (informational, ungated); ``suffix_traces``
    counts the traces the campaign compiled from addresses inside a
    trace, where its faults left the PC, and ``suffix_compile_seconds``
    is their cold compile on that fresh image.

    ``rejoined`` counts the fork engine's trials that were decided from
    the golden run at their rejoin probe: a timing-free check that the
    shortcut stays on (the bench fails when it is 0).

    ``deopt_steps_per_trial`` counts the instructions each fork trial
    single-stepped instead of running on compiled traces.  The count is
    exact, so it gates without timing noise: above
    ``MAX_DEOPT_STEPS_PER_TRIAL`` traces stopped pausing where trials
    need them (before the fault window and at the probe), or stopped
    starting where faults leave the PC.
    """
    from repro.faults.scheduler import TrialScheduler
    from repro.isa.superblock import superblock_tables, trace_entries
    from repro.minic.driver import compile_source

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    memcmp = engine_programs["memcmp-ancode"]
    args = [256]
    total = memcmp.trial_scheduler("run_memcmp", args).golden.instructions
    models = [InstructionSkip(i) for i in range(1, total + 1, 24)]

    fresh = compile_source(load_source("memcmp"), config=CompileConfig(scheme="ancode"))
    fresh_cpu = fresh.prepare_cpu("run_memcmp", args, dispatch="superblock")
    start = time.perf_counter()
    traces = len(superblock_tables(fresh_cpu))
    compile_seconds = time.perf_counter() - start
    fresh_golden = compile_source(
        load_source("memcmp"), config=CompileConfig(scheme="ancode")
    )
    start = time.perf_counter()
    TrialScheduler(fresh_golden, "run_memcmp", args)
    capture_seconds = time.perf_counter() - start

    measurements = {}
    for engine in ("reference", "fork"):
        _fresh_images(engine_programs)
        start = time.perf_counter()
        result = run_attack(
            memcmp, "run_memcmp", args, models, "strided-skip", engine=engine
        )
        seconds = time.perf_counter() - start
        measurements[engine] = {
            "trials": result.trials,
            "seconds": round(seconds, 3),
            "trials_per_sec": round(result.trials / seconds, 1),
        }
    cpu = memcmp.prepare_cpu("run_memcmp", args, dispatch="superblock")
    suffixes = superblock_tables(cpu).keys() - trace_entries(cpu).keys()
    start = time.perf_counter()
    for addr in sorted(suffixes):
        superblock_tables(fresh_cpu, addr)
    suffix_seconds = time.perf_counter() - start
    stats = memcmp.trial_scheduler("run_memcmp", args).stats
    rejoined = stats.rejoined
    deopt_per_trial = stats.superblock_deopt_steps / stats.trials
    speedup = (
        measurements["fork"]["trials_per_sec"]
        / measurements["reference"]["trials_per_sec"]
    )
    payload = {
        **measurements,
        "workload": f"memcmp[{args[0]}] strided-skip x {len(models)} trials",
        "trace_compile_seconds": round(compile_seconds, 3),
        "traces": traces,
        "golden_capture_seconds": round(capture_seconds, 3),
        "suffix_compile_seconds": round(suffix_seconds, 3),
        "suffix_traces": len(suffixes),
        "rejoined": rejoined,
        "deopt_steps_per_trial": round(deopt_per_trial, 2),
        "speedup_vs_reference": round(speedup, 2),
    }
    record_bench_json("campaign_memcmp_strided", payload)
    check_bench_regression("campaign_memcmp_strided", "speedup_vs_reference", speedup)
    assert speedup >= 10.0, (
        f"fork engine only {speedup:.1f}x the reference engine "
        f"({measurements})"
    )
    assert rejoined > 0, "no trial of the strided memcmp sweep rejoined the golden run"
    assert deopt_per_trial <= MAX_DEOPT_STEPS_PER_TRIAL, (
        f"fork trials single-stepped {deopt_per_trial:.1f} instructions each "
        f"(gate: {MAX_DEOPT_STEPS_PER_TRIAL})"
    )


def _parallel_measurement(engine_programs):
    """CampaignExecutor throughput — always measured, never ``null``.

    On a single-CPU host the process pool cannot win, so the measurement
    degrades to a correctness smoke (2 workers, annotated as such) rather
    than silently disappearing from ``BENCH_campaign.json``.
    """
    from repro.toolchain import CampaignExecutor

    cpus = os.cpu_count() or 1
    workers = min(4, cpus)
    note = None
    if workers < 2:
        workers = 2
        note = (
            f"single-cpu host (os.cpu_count()={cpus}): 2-worker run is a "
            f"correctness smoke, no speedup expected"
        )
    memcmp = engine_programs["memcmp-ancode"]
    models = _memcmp_models(memcmp)
    with CampaignExecutor(max_workers=workers) as executor:
        start = time.perf_counter()
        result = run_attack(
            memcmp, "run_memcmp", [128], models, "strided-skip", executor=executor
        )
        seconds = time.perf_counter() - start
    payload = {
        "workers": workers,
        "cpus": cpus,
        "trials": result.trials,
        "seconds": round(seconds, 3),
        "trials_per_sec": round(result.trials / seconds, 1),
    }
    if note is not None:
        payload["note"] = note
    return payload
