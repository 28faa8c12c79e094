"""ISA-level fault-injection campaigns (experiment E6).

Runs a compiled program repeatedly, injecting one fault model per run, and
classifies outcomes.  The headline comparison (paper Section II-C vs. our
Section III): a *single* branch flip is caught by both duplication and the
prototype; *repeating* the flip at every comparison defeats the duplication
tree but still trips the prototype's CFI linking.

Engines
-------
Every attack entry point takes an ``engine``:

* ``"fork"`` (default) — one golden run per workload (memoized on the
  program), trials forked from mid-run checkpoints via
  :class:`~repro.faults.scheduler.TrialScheduler` onto trace-compiled
  CPUs (:mod:`repro.isa.superblock`): a trial single-steps only while its
  fault window is open and chains compiled traces either side.
* ``"reference"`` — a fresh CPU per trial on the original ``isinstance``
  interpreter: the independent oracle, and the baseline the campaign
  benches measure speedups against.

Both are result-identical; ``tests/test_engine_equivalence.py`` enforces
it for every device program and scheme.  ``executor`` accepts a
:class:`~repro.toolchain.executor.CampaignExecutor` to shard fork-engine
trials across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.driver import CompiledProgram
from repro.faults.classify import Outcome, classify
from repro.faults.models import (
    BranchDirectionFlip,
    InstructionSkip,
    RegisterBitFlip,
    RepeatedBranchDirectionFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.isa.cpu import ExecutionResult

ENGINES = ("fork", "reference")


@dataclass
class AttackResult:
    attack: str
    outcomes: dict[Outcome, int] = field(default_factory=dict)
    trials: int = 0
    #: exit codes of WRONG_RESULT trials (to tell fail-safe denials from
    #: security-critical forges)
    wrong_codes: list[int] = field(default_factory=list)
    #: cycles the engine actually simulated (forked trials exclude their
    #: checkpointed prefix) — bench bookkeeping, not part of equality
    simulated_cycles: int = field(default=0, compare=False)
    #: optional per-trial rows ``[fire_index, outcome value, exit_code]``
    #: in trial order, where ``fire_index`` is the fault's first possible
    #: firing index against the golden trace (0 = the fault can never
    #: fire, or the model carries no scheduler metadata).  Filled when a
    #: campaign runs with ``record_trials=True``; the rows are engine-
    #: independent, feed the per-instruction vulnerability maps of
    #: :mod:`repro.analysis`, and — like ``simulated_cycles`` — are not
    #: part of equality.
    records: list[list] | None = field(default=None, compare=False)

    def record(self, outcome: Outcome, exit_code: int | None = None) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.trials += 1
        if outcome is Outcome.WRONG_RESULT and exit_code is not None:
            self.wrong_codes.append(exit_code)

    def record_trial(
        self, fire_index: int | None, outcome: Outcome, exit_code: int
    ) -> None:
        """Append one per-trial row (see :attr:`records`)."""
        if self.records is None:
            self.records = []
        self.records.append([int(fire_index or 0), outcome.value, exit_code])

    def add_rows(self, rows) -> None:
        """Record the rows of :func:`run_trials`, in order."""
        for outcome, exit_code, *fire_index in rows:
            self.record(outcome, exit_code)
            if fire_index:
                self.record_trial(fire_index[0], outcome, exit_code)

    def rate(self, outcome: Outcome) -> float:
        return self.outcomes.get(outcome, 0) / self.trials if self.trials else 0.0

    @property
    def undetected_wrong(self) -> int:
        return self.outcomes.get(Outcome.WRONG_RESULT, 0)


@dataclass
class CampaignReport:
    scheme: str
    attacks: dict[str, AttackResult] = field(default_factory=dict)

    def result(self, attack: str) -> AttackResult:
        return self.attacks.setdefault(attack, AttackResult(attack))


def golden_trace(program: CompiledProgram, function: str, args):
    """The workload's golden trace (one instrumented execution, memoized:
    repeated window/index queries and attack suites all share it)."""
    return TrialScheduler.for_program(program, function, list(args)).trace


def _golden(program, function, args, engine: str) -> ExecutionResult:
    if engine == "fork":
        return TrialScheduler.for_program(program, function, list(args)).golden
    return program.run(function, args, dispatch="reference")


def fire_index_of(model, trace) -> int:
    """The model's first possible firing index against ``trace``, as the
    per-trial records report it (0 = never fires / no scheduler metadata)."""
    first_fire_index = getattr(model, "first_fire_index", None)
    if first_fire_index is None:
        return 0
    return first_fire_index(trace) or 0


def run_trials(
    scheduler: TrialScheduler, models, max_cycles: int, record_trials: bool
) -> tuple[list[tuple], int]:
    """Run one trial per model on ``scheduler`` and classify it against
    the golden run: one ``(outcome, exit_code)`` row per model, in order,
    with the fault's fire index appended when ``record_trials`` (see
    :meth:`AttackResult.add_rows`), and the cycles the trials simulated.
    The fire index resolves against the scheduler's golden trace, which
    is deterministic, so every process computes the same rows.  Holds
    the scheduler's lock, so the cycles are this call's alone."""
    golden, trace = scheduler.golden, scheduler.trace
    rows = []
    with scheduler.lock:
        cycles_before = scheduler.stats.simulated_cycles
        for model in models:
            faulted = scheduler.run_trial(model, max_cycles)
            row = (classify(golden, faulted), faulted.exit_code)
            if record_trials:
                row += (fire_index_of(model, trace),)
            rows.append(row)
        return rows, scheduler.stats.simulated_cycles - cycles_before


def run_attack(
    program: CompiledProgram,
    function: str,
    args: list[int],
    fault_models,
    attack_name: str = "attack",
    max_cycles: int = 2_000_000,
    engine: str = "fork",
    executor=None,
    record_trials: bool = False,
    spec=None,
) -> AttackResult:
    """Run one fault model per trial against a fixed golden run.

    ``record_trials`` additionally fills :attr:`AttackResult.records`
    with one ``[fire_index, outcome, exit_code]`` row per trial — the raw
    material of :mod:`repro.analysis` vulnerability maps.  The rows are
    engine-independent (fire indices resolve against the golden trace),
    but on the reference engine recording instantiates the workload's
    :class:`~repro.faults.scheduler.TrialScheduler` for its trace, so
    leave it off when isolating that engine.

    ``spec`` (a :class:`repro.spec.SpecConfig`) runs the golden execution
    and every trial on speculative CPUs; classification then compares the
    transient-trace digests too, surfacing :data:`Outcome.TRANSIENT_LEAK`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if executor is not None:
        if engine != "fork":
            raise ValueError(
                f"executor trials run on the fork engine; drop executor to "
                f"use engine={engine!r}"
            )
        return executor.run_attack(
            program,
            function,
            args,
            list(fault_models),
            attack_name=attack_name,
            max_cycles=max_cycles,
            record_trials=record_trials,
            spec=spec,
        )
    result = AttackResult(attack_name)
    if record_trials:
        result.records = []
    if engine == "fork":
        scheduler = TrialScheduler.for_program(program, function, list(args), spec=spec)
        rows, result.simulated_cycles = run_trials(
            scheduler, fault_models, max_cycles, record_trials
        )
        result.add_rows(rows)
    else:
        golden = program.run(function, args, dispatch="reference", spec=spec)
        trace = (
            TrialScheduler.for_program(
                program, function, list(args), spec=spec
            ).trace
            if record_trials
            else None
        )
        for model in fault_models:
            cpu = program.prepare_cpu(
                function, args, pre_hooks=[model.hook()], dispatch="reference",
                spec=spec,
            )
            faulted = cpu.run(max_cycles)
            outcome = classify(golden, faulted)
            result.record(outcome, faulted.exit_code)
            if record_trials:
                result.record_trial(
                    fire_index_of(model, trace), outcome, faulted.exit_code
                )
            result.simulated_cycles += faulted.cycles
    return result


# ---------------------------------------------------------------------------
# Stock attack suites
# ---------------------------------------------------------------------------
def skip_sweep(
    program,
    function,
    args,
    first=1,
    last=None,
    engine="fork",
    executor=None,
    record_trials=False,
) -> AttackResult:
    """Skip each dynamic instruction in [first, last] (one per trial)."""
    if last is None:
        last = _golden(program, function, args, engine).instructions
    models = [InstructionSkip(i) for i in range(first, last + 1)]
    return run_attack(
        program,
        function,
        args,
        models,
        skip_sweep.attack_label,
        engine=engine,
        executor=executor,
        record_trials=record_trials,
    )


#: Label each suite's AttackResult carries (consumers — e.g. the service
#: job model — read these instead of re-stating the strings).
skip_sweep.attack_label = "instruction-skip"


def branch_flip_sweep(
    program,
    function,
    args,
    max_branches=64,
    engine="fork",
    executor=None,
    record_trials=False,
) -> AttackResult:
    """Invert each dynamic conditional branch (one per trial)."""
    models = [BranchDirectionFlip(i) for i in range(1, max_branches + 1)]
    return run_attack(
        program,
        function,
        args,
        models,
        branch_flip_sweep.attack_label,
        engine=engine,
        executor=executor,
        record_trials=record_trials,
    )


branch_flip_sweep.attack_label = "branch-flip"


def repeated_branch_flip(
    program, function, args, engine="fork", executor=None, record_trials=False
) -> AttackResult:
    """Invert every conditional branch in the target function's code range."""
    addr_range = program.image.function_ranges[function]
    models = [RepeatedBranchDirectionFlip(addr_range)]
    return run_attack(
        program,
        function,
        args,
        models,
        repeated_branch_flip.attack_label,
        engine=engine,
        executor=executor,
        record_trials=record_trials,
    )


repeated_branch_flip.attack_label = "repeated-branch-flip"


def encoded_window(program, function, args, after_encodes: bool = False) -> tuple[int, int]:
    """Dynamic window from the first encode (MUL) to the first branch.

    Faults inside this window hit the *encoded* dataflow — the region the
    paper's comparison protects.  Faults before it corrupt plain inputs,
    which is the data-encoding scheme's responsibility, not the branch
    protection's.  With ``after_encodes`` the window starts only after the
    last encode retired (strictly the comparison computation).

    Both mnemonic hit-lists come from the workload's single memoized
    golden trace — no extra executions.
    """
    from repro.target import get_target

    target = get_target(program.image.target)
    trace = golden_trace(program, function, args)
    muls = trace.indices(target.encode_mnemonic)
    branches = trace.indices(target.branch_mnemonic)
    if not muls or not branches:
        raise ValueError("program has no encode/branch window")
    pre_branch_muls = [m for m in muls if m < branches[0]]
    start = (pre_branch_muls[-1] + 1) if after_encodes else muls[0]
    return start, branches[0]


def operand_corruption_sweep(
    program,
    function,
    args,
    regs=range(0, 8),
    bits=(0, 7, 16, 31),
    occurrence=3,
    window=None,
    engine="fork",
    executor=None,
    record_trials=False,
) -> AttackResult:
    """Flip register bits (comparison operand corruption).

    With ``window=(lo, hi)`` the flips sweep every dynamic instruction in
    the window; otherwise a single fixed occurrence is used.
    """
    if window is None:
        occurrences = [occurrence]
    else:
        occurrences = list(range(window[0], window[1] + 1))
    models = [
        RegisterBitFlip(reg, bit, occ)
        for reg in regs
        for bit in bits
        for occ in occurrences
    ]
    return run_attack(
        program,
        function,
        args,
        models,
        operand_corruption_sweep.attack_label,
        engine=engine,
        executor=executor,
        record_trials=record_trials,
    )


operand_corruption_sweep.attack_label = "operand-corruption"
