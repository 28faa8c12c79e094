"""Golden-rejoin exactness on the full validation sets.

Runs every trial twice on one ``TrialScheduler``: with the rejoin probes
(the default engine), then with both probes switched off, which is the
engine as it ran before golden rejoin existed.  Each trial's
``ExecutionResult`` (status, codes, cycles, instructions, console) and
``last_trial_end`` must be equal.  The sets:

* ``memcmp-skip`` — a skip of every dynamic instruction of memcmp[128]
  under ancode (the benchmark workload);
* ``memcmp-flip`` — bit 0 of r0, r1 and r13 flipped at every 7th
  dynamic index of the same run, where a larger share of the rejoins
  than among skips comes at the second probe;
* ``bootloader-boot`` — the benchmark's 128 skips and branch flips at
  the end of the secure boot, with its trial budget;
* ``matrix`` — memcmp[24] and integer_compare(7, 7) on both targets
  under none, duplication and ancode, with skips, branch flips,
  register flips and flag flips.

Usage, from the root of a checkout::

    PYTHONPATH=src python benchmarks/rejoin_exactness.py [memcmp-skip|memcmp-flip|bootloader-boot|matrix|all]

Prints one line per workload and exits non-zero on any mismatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.faults.models import (
    BranchDirectionFlip,
    FlagFlip,
    InstructionSkip,
    RegisterBitFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.programs import load_source
from repro.toolchain import CompileConfig, Workbench


def _memcmp128() -> TrialScheduler:
    program = Workbench().compile(load_source("memcmp"), CompileConfig(scheme="ancode"))
    return TrialScheduler(program, "run_memcmp", [128])


def _memcmp_skip():
    scheduler = _memcmp128()
    total = scheduler.golden.instructions
    yield "memcmp-skip", scheduler, [InstructionSkip(i) for i in range(1, total + 1)], {}


def _memcmp_flip():
    scheduler = _memcmp128()
    total = scheduler.golden.instructions
    models = [
        RegisterBitFlip(reg, 0, index)
        for index in range(1, total + 1, 7)
        for reg in (0, 1, 13)
    ]
    yield "memcmp-flip", scheduler, models, {}


def _bootloader_boot():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from engine import BootloaderBoot

    workload = BootloaderBoot(seed=1)
    program = Workbench().compile(
        workload.source, workload.config, initializers=workload.initializers
    )
    scheduler = TrialScheduler(program, workload.function, list(workload.args))
    yield (
        "bootloader-boot",
        scheduler,
        workload.models(scheduler),
        workload.trial_kwargs(scheduler),
    )


def _matrix():
    workbench = Workbench()
    for target in ("baseline", "rv32"):
        for scheme in ("none", "duplication", "ancode"):
            config = CompileConfig(scheme=scheme, target=target)
            for name, function, args in (
                ("memcmp", "run_memcmp", [24]),
                ("integer_compare", "integer_compare", [7, 7]),
            ):
                program = workbench.compile(load_source(name), config)
                scheduler = TrialScheduler(program, function, args)
                total = scheduler.golden.instructions
                trace = scheduler.trace
                branches = len(trace.indices(trace.branch_mnemonic)) + 1
                models = [InstructionSkip(i) for i in range(1, total + 1)]
                models += [BranchDirectionFlip(n) for n in range(1, branches)]
                models += [
                    RegisterBitFlip(reg, bit, index)
                    for index in range(1, total + 1, 3)
                    for reg, bit in ((0, 0), (1, 3), (13, 2))
                ]
                models += [
                    FlagFlip(flag, n) for n in range(1, branches) for flag in "zc"
                ]
                yield f"{name}-{scheme}-{target}", scheduler, models, {}


SETS = {
    "memcmp-skip": _memcmp_skip,
    "memcmp-flip": _memcmp_flip,
    "bootloader-boot": _bootloader_boot,
    "matrix": _matrix,
}


def _rows(scheduler, models, kwargs):
    rows = []
    for model in models:
        result = scheduler.run_trial(model, **kwargs)
        rows.append((result, scheduler.last_trial_end))
    return rows


def check(name, scheduler, models, kwargs) -> int:
    """Mismatching trials of one workload (printed as they are found)."""
    probed = _rows(scheduler, models, kwargs)
    rejoined = scheduler.stats.rejoined
    scheduler._probe = lambda hook: []  # neither probe: no rejoin
    plain = _rows(scheduler, models, kwargs)
    bad = [i for i, (a, b) in enumerate(zip(probed, plain)) if a != b]
    for i in bad[:5]:
        print(f"  {models[i]}: probed {probed[i]} != plain {plain[i]}")
    print(f"{name}: {len(models)} trials, {rejoined} rejoined, {len(bad)} mismatches")
    return len(bad)


def main(argv: list[str]) -> int:
    which = argv[0] if argv else "all"
    names = list(SETS) if which == "all" else [which]
    mismatches = trials = 0
    for name in names:
        for workload in SETS[name]():
            mismatches += check(*workload)
            trials += len(workload[2])
    print(f"total: {trials} trials, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
