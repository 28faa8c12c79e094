"""E8 — speculative-execution adversary: the transient channel per scheme.

The paper's Table III schemes protect the *architectural* branch
decision.  This bench swaps the adversary's layer: fault the branch
predictor (:mod:`repro.spec`) on the bootloader's signature check and
read the boot decision out of the squashed wrong path's transient
trace.  The acceptance gate is the headline claim of the subsystem:

* architecturally, every scheme holds — no speculative fault ever
  forges or corrupts a boot decision (``undetected_wrong == 0``);
* microarchitecturally, every scheme leaks — at least one predictor
  fault per scheme moves the transient digest while the architectural
  verdict stays MASKED/DETECTED, classified ``TRANSIENT_LEAK``.

The second half is the regression guard for the ``window=0``
short-circuit: a ``SpecConfig(window=0)`` campaign must stay within 5%
of the plain engine's trials/sec (same process, same workload) — at
W=0 no branch reaches the speculative retire path, so a miss here means
the short-circuit broke.
"""

import time

from repro.backend import compile_ir
from repro.bench import format_table, record_bench_json, save_table
from repro.crypto import build_signed_image
from repro.crypto.image import BOOT_OK, bootloader_params, prepare_bootloader_module
from repro.faults.classify import Outcome
from repro.faults.isa_campaign import run_attack
from repro.faults.models import InstructionSkip, RegisterBitFlip
from repro.programs import load_source
from repro.spec import SpecConfig
from repro.spec.campaign import speculative_sweep
from repro.toolchain import CompileConfig, table3_schemes

SCHEMES = table3_schemes()
WINDOW = 8
MAX_CYCLES = 30_000_000


def _outcome_text(result):
    return ", ".join(
        f"{outcome.value}:{count}"
        for outcome, count in sorted(
            result.outcomes.items(), key=lambda entry: entry[0].value
        )
    )


# ---------------------------------------------------------------------------
# Secure-boot macro: the boot decision leaks transiently under every scheme
# ---------------------------------------------------------------------------
def test_bootloader_transient_leak(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    image = build_signed_image(b"FW-SPECULATIVE-1" * 4)
    payload = {}
    results = {}
    for scheme in SCHEMES:
        program = compile_ir(
            prepare_bootloader_module(image),
            config=CompileConfig(scheme=scheme, params=bootloader_params()),
        )
        result = speculative_sweep(
            program,
            "bootloader_main",
            [],
            window=WINDOW,
            focus="accept_signature",
            max_branches=8,
            max_cycles=MAX_CYCLES,
        )
        # Sanity: the golden (speculative) boot still accepts the image.
        golden = program.run(
            "bootloader_main", [], max_cycles=MAX_CYCLES,
            spec=SpecConfig(window=WINDOW),
        )
        assert golden.exit_code == BOOT_OK
        results[scheme] = result
        payload[scheme] = {
            "trials": result.trials,
            "outcomes": {o.value: c for o, c in result.outcomes.items()},
            "transient_leaks": result.outcomes.get(Outcome.TRANSIENT_LEAK, 0),
            "undetected_wrong": result.undetected_wrong,
        }
        # Architectural protection holds under every scheme ...
        assert result.undetected_wrong == 0, (scheme, result.outcomes)
        # ... and the transient channel defeats every scheme.
        assert result.outcomes.get(Outcome.TRANSIENT_LEAK, 0) >= 1, (
            scheme,
            result.outcomes,
        )
    record_bench_json("speculative_bootloader", payload)

    rows = [
        [
            scheme,
            results[scheme].trials,
            payload[scheme]["transient_leaks"],
            _outcome_text(results[scheme]),
        ]
        for scheme in SCHEMES
    ]
    text = format_table(
        "E8 — bootloader signature check under predictor faults "
        f"(window={WINDOW}, focus=accept_signature)",
        ["Scheme", "Trials", "Transient leaks", "Outcomes"],
        rows,
    )
    save_table("security_speculative", text)


# ---------------------------------------------------------------------------
# W=0 throughput guard: the short-circuit must keep the plain fast path
# ---------------------------------------------------------------------------

def test_window_zero_throughput_guard(benchmark, workbench):
    """W=0 must *be* the plain engine: no branch reaches the speculative
    retire path and traces inline branches as on a plain CPU, so both
    arms must do identical simulated work.  Gated on the engine's deterministic counters (trials, forks,
    simulated instructions/cycles) plus the outcome histogram rather
    than wall-clock — a 5 % throughput gate proved irreproducible, as
    CPython's adaptive specialisation favours whichever arm ran later
    and ~10 ms timing windows sit at host-scheduler noise, while any
    real W=0 regression (the transient machinery engaging) shows up
    immediately as extra simulated cycles and TRANSIENT_LEAK outcomes.
    Throughput is still recorded in the payload, informationally."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    program = workbench.compile(
        load_source("integer_compare"), CompileConfig(scheme="ancode")
    )
    args = [7, 7]
    total = program.trial_scheduler("integer_compare", args).golden.instructions
    models = [InstructionSkip(i) for i in range(1, total + 1)]
    models += [
        RegisterBitFlip(reg, bit, occ)
        for reg in range(0, 8)
        for bit in (0, 7, 16, 31)
        for occ in (1, total // 2, total)
    ]

    def measure(spec):
        kwargs = {} if spec is None else {"spec": spec}
        program._schedulers.clear()
        program._trial_cpus.clear()
        start = time.perf_counter()
        result = run_attack(
            program, "integer_compare", args, models, "w0-guard", **kwargs
        )
        seconds = time.perf_counter() - start
        (scheduler,) = program._schedulers.values()
        stats = scheduler.stats
        work = {
            "trials": stats.trials,
            "forked": stats.forked,
            "short_circuited": stats.short_circuited,
            "simulated_instructions": stats.simulated_instructions,
            "simulated_cycles": stats.simulated_cycles,
        }
        outcomes = {outcome.name: n for outcome, n in result.outcomes.items()}
        return work, outcomes, result.trials / seconds

    plain_work, plain_outcomes, plain_tps = measure(None)
    w0_work, w0_outcomes, w0_tps = measure(SpecConfig(window=0))
    payload = {
        "trials": plain_work["trials"],
        "plain_trials_per_sec": round(plain_tps, 1),
        "w0_trials_per_sec": round(w0_tps, 1),
        "w0_over_plain": round(w0_tps / plain_tps, 3),
        "simulated_instructions": plain_work["simulated_instructions"],
        "simulated_cycles": plain_work["simulated_cycles"],
    }
    record_bench_json("speculative_w0_guard", payload)
    assert w0_work == plain_work, (
        f"window=0 did different simulated work than the plain engine: "
        f"{w0_work} != {plain_work}"
    )
    assert w0_outcomes == plain_outcomes, (
        f"window=0 changed campaign outcomes: "
        f"{w0_outcomes} != {plain_outcomes}"
    )
