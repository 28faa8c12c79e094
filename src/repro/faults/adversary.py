"""Multi-fault adversary campaigns: k-fault composition with window pruning.

The paper argues its security claims against a *single-fault* adversary,
but its own motivating scenarios (secure boot, signature checks) face
attackers who inject multiple precisely-timed glitches — the threat model
of follow-ups like SCRAMBLE-CFI and EC-CFI.  This module extends the
campaign stack to that adversary:

* :class:`CompositeFault` — an ordered tuple of existing
  :class:`~repro.faults.models.FaultModel`\\ s injected into **one** trial.
  It speaks the full scheduler protocol, so composite trials fork from
  the checkpoint nearest the *first* fault and chain each component's
  resumable hook;
* :func:`compose_space` — generates the k-fault trial space for a
  workload and prunes it aggressively (see below);
* :func:`adversary_sweep` — the attack-suite entry point
  (`CampaignBuilder.adversary()` and the service's ``"adversary"`` suite
  both land here).

Pruning layers
--------------
The naive double-fault space is the product of every first fault with
every second-fault primitive at every dynamic instruction of the run —
quadratic, and overwhelmingly dead weight.  Three reductions, applied in
order, all computed from the single golden trace the
:class:`~repro.faults.scheduler.TrialScheduler` already records:

1. **Window pruning** — the follow-up fault must land within ``window``
   dynamic instructions after the previous fault fires.  This models the
   physical adversary (glitches are fired at a fixed time offset from a
   trigger) and is where the bulk of the quadratic blow-up dies.
2. **Equivalence-class reduction** — a single-fault pre-pass (checkpoint-
   forked, so it is cheap) records where each first fault's trial
   actually *ends*; any pair whose second fault is timed past that point
   is pruned, because the second fault provably cannot fire and the
   composite trial is identical to the already-known single-fault trial.
   Trials that end early in ``FAULT_DETECTED`` or a crash shed their
   entire remaining window this way.  Pairs whose second fault lands
   *before* the first trial ends are kept — a second fault may well
   rescue a detected trial (e.g. by skipping the trap), and those are
   exactly the attacks worth finding.
3. **Commuting-pair dedup** — two composites over the same *set* of
   component faults execute identically when the components fire at
   different indices (hook order within a step is the only difference),
   so only one canonical ordering per set survives.  The generated space
   is duplicate-free by construction (follow-up indices are strictly
   increasing), so this layer is a guard for caller-supplied
   ``first_models`` containing duplicates or overlapping entries.

All pruning is sound for the generated space: every pruned trial is
either outside the adversary's timing window by construction or provably
byte-identical to a trial already accounted for
(``tests/test_faults_adversary.py`` enforces the latter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.faults.isa_campaign import AttackResult, run_attack
from repro.faults.models import (
    BranchDirectionFlip,
    FaultModel,
    FlagFlipAt,
    InstructionSkip,
    PredictorFlip,
)
from repro.faults.scheduler import TrialScheduler

#: Second-fault primitive factories: wire name -> (dyn index -> model).
SECOND_FAULT_KINDS: dict[str, Callable[[int], FaultModel]] = {
    "skip": InstructionSkip,
    "flag-flip": lambda index: FlagFlipAt("z", index),
}

#: Default dynamic-instruction window a follow-up fault must land in.
DEFAULT_WINDOW = 16


@dataclass(frozen=True)
class CompositeFault(FaultModel):
    """An ordered tuple of faults injected into a single trial.

    Semantics match installing every component's hook on one CPU and
    running from the start: each component behaves exactly as it would
    alone (occurrence counters count the *actual* — possibly divergent —
    execution), and an instruction is skipped if any component says so.

    Scheduler protocol: the composite first fires where its earliest
    component first fires against the golden trace, so the
    :class:`~repro.faults.scheduler.TrialScheduler` forks composite
    trials from the checkpoint nearest the *first* fault;
    :meth:`forked_hook` chains every component's ``resumed_hook`` (see
    :mod:`repro.faults.models`), which stays exact after the execution
    diverges from the golden run.
    """

    faults: tuple[FaultModel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.faults:
            raise ValueError("CompositeFault needs at least one component fault")

    @property
    def k(self) -> int:
        return len(self.faults)

    def hook(self):
        hooks = [fault.hook() for fault in self.faults]

        def pre(cpu, instr) -> bool:
            # Every component hook runs every step (occurrence counters
            # must advance even when another component skips), exactly as
            # if the hooks were installed side by side in cpu.pre_hooks.
            skip = False
            for hook in hooks:
                if hook(cpu, instr):
                    skip = True
            return skip

        _annotate_window(pre, hooks)
        return pre

    def first_fire_index(self, trace):
        fires = []
        for fault in self.faults:
            first = getattr(fault, "first_fire_index", None)
            fires.append(first(trace) if first is not None else 1)
        live = [fire for fire in fires if fire is not None]
        # If no component can fire on the golden run, the trial never
        # diverges from it, so no component can ever fire at all.
        return min(live) if live else None

    def forked_hook(self, trace):
        hooks = [_resumed(fault, trace) for fault in self.faults]

        def pre(cpu, instr) -> bool:
            skip = False
            for hook in hooks:
                if hook(cpu, instr):
                    skip = True
            return skip

        _annotate_window(pre, hooks)
        return pre

    def resumed_hook(self, trace):
        # Composites nest: a composite used inside a larger composite
        # resumes by resuming each component.
        return self.forked_hook(trace)


def _resumed(fault: FaultModel, trace):
    resumed = getattr(fault, "resumed_hook", None)
    return resumed(trace) if resumed is not None else fault.hook()


def _annotate_window(pre, hooks) -> None:
    """Propagate ``fire_window`` to a composite hook — only when *every*
    component is window-annotated (one unbounded component makes the
    whole composite unbounded; the trial CPU then deoptimises
    for the entire trial, which is always sound)."""
    windows = [getattr(hook, "fire_window", None) for hook in hooks]
    if all(window is not None for window in windows):
        pre.fire_window = (
            min(window[0] for window in windows),
            max(window[1] for window in windows),
        )


# ---------------------------------------------------------------------------
# Trial-space generation
# ---------------------------------------------------------------------------
@dataclass
class SpaceStats:
    """Where the naive k-fault product space went (per pruning layer)."""

    k: int
    window: int
    golden_instructions: int
    first_count: int
    #: second-fault primitives per dynamic index (``len(second_kinds)``)
    second_per_index: int
    #: the naive product space: firsts x (primitives x every dyn index)^(k-1)
    naive: int = 0
    #: pairs surviving window pruning (before the pre-pass)
    after_window: int = 0
    #: pruned because the previous trial provably ended before the
    #: follow-up fault could fire (identical to a known shorter trial)
    pruned_unreachable: int = 0
    #: dropped as a commuting duplicate of an already-generated set
    #: (0 for generated first-fault spaces, which are duplicate-free by
    #: construction; non-zero only for duplicated caller-supplied
    #: ``first_models``)
    deduped: int = 0
    #: trials in the final space
    generated: int = 0
    #: single-fault pre-pass trials executed for the equivalence layer
    prepass_trials: int = 0

    @property
    def pruning_ratio(self) -> float:
        """How many times smaller the final space is than the naive one."""
        return self.naive / self.generated if self.generated else float("inf")


@dataclass
class PrunedSpace:
    """The pruned k-fault trial space for one workload."""

    trials: list[CompositeFault]
    stats: SpaceStats
    #: single-fault pre-pass results: first-level model -> ExecutionResult
    #: (reusable as the "does it survive single faults?" baseline)
    first_results: dict = field(default_factory=dict)


def first_fault_space(
    program,
    function: str,
    args: Sequence[int],
    kinds: Sequence[str] = ("branch-flip",),
    focus: Optional[str] = None,
    max_first: Optional[int] = None,
    spec=None,
) -> list[tuple[FaultModel, int]]:
    """The first-fault models for a workload, with their golden fire index.

    ``kinds``: ``"branch-flip"`` (one
    :class:`~repro.faults.models.BranchDirectionFlip` per golden
    conditional branch), ``"skip"`` (one
    :class:`~repro.faults.models.InstructionSkip` per golden dynamic
    instruction — exhaustive, only tractable for small workloads), and/or
    ``"predictor-flip"`` (one :class:`~repro.faults.models.PredictorFlip`
    per golden conditional branch — requires running the campaign with a
    :class:`repro.spec.SpecConfig`).  ``focus`` restricts branch-targeted
    kinds to the named function's code range (e.g. the protected decision
    of a long bootloader run).  ``max_first`` caps the space, keeping the
    earliest-firing models.
    """
    scheduler = TrialScheduler.for_program(program, function, list(args), spec=spec)
    trace = scheduler.trace
    firsts: list[tuple[FaultModel, int]] = []
    for kind in kinds:
        if kind in ("branch-flip", "predictor-flip"):
            model_of = (
                BranchDirectionFlip if kind == "branch-flip" else PredictorFlip
            )
            focus_range = (
                program.image.function_ranges[focus] if focus else None
            )
            for occurrence, (index, addr) in enumerate(
                zip(trace.indices(trace.branch_mnemonic), trace.bcc_addrs), start=1
            ):
                if focus_range and not (
                    focus_range[0] <= addr < focus_range[1]
                ):
                    continue
                firsts.append((model_of(occurrence), index))
        elif kind == "skip":
            firsts.extend(
                (InstructionSkip(index), index)
                for index in range(1, trace.result.instructions + 1)
            )
        else:
            raise ValueError(
                f"unknown first-fault kind {kind!r}; "
                f"known: ['branch-flip', 'predictor-flip', 'skip']"
            )
    firsts.sort(key=lambda entry: entry[1])
    if max_first is not None:
        firsts = firsts[:max_first]
    return firsts


def second_fault_candidates(
    index: int, kinds: Sequence[str]
) -> list[FaultModel]:
    """The follow-up fault primitives timed at dynamic index ``index``."""
    models = []
    for kind in kinds:
        factory = SECOND_FAULT_KINDS.get(kind)
        if factory is None:
            raise ValueError(
                f"unknown second-fault kind {kind!r}; "
                f"known: {sorted(SECOND_FAULT_KINDS)}"
            )
        models.append(factory(index))
    return models


def compose_space(
    program,
    function: str,
    args: Sequence[int],
    k: int = 2,
    window: int = DEFAULT_WINDOW,
    first_kinds: Sequence[str] = ("branch-flip",),
    second_kinds: Sequence[str] = ("skip", "flag-flip"),
    first_models: Optional[Iterable[FaultModel]] = None,
    focus: Optional[str] = None,
    max_first: Optional[int] = None,
    prune_terminal: bool = True,
    max_cycles: int = 2_000_000,
    spec=None,
) -> PrunedSpace:
    """Generate the pruned k-fault :class:`CompositeFault` space.

    Works level by level: the (k-1)-fault composites are each run once
    (checkpoint-forked — the pre-pass is the equivalence-reduction layer,
    and for k=2 it doubles as the single-fault baseline campaign), then
    extended with every second-fault primitive inside the window after
    their last fault fires.  ``first_models`` overrides the generated
    first-fault space with an explicit model list (fire indices resolved
    against the golden trace); ``prune_terminal=False`` disables the
    pre-pass layer (window pruning and dedup still apply).
    """
    if k < 2:
        raise ValueError(f"adversary campaigns need k >= 2, got k={k}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    scheduler = TrialScheduler.for_program(program, function, list(args), spec=spec)
    trace = scheduler.trace

    if first_models is not None:
        firsts = []
        for model in first_models:
            first = getattr(model, "first_fire_index", None)
            fire = first(trace) if first is not None else 1
            if fire is not None:
                firsts.append((model, fire))
        firsts.sort(key=lambda entry: entry[1])
        if max_first is not None:
            firsts = firsts[:max_first]
    else:
        firsts = first_fault_space(
            program, function, args, first_kinds, focus, max_first, spec=spec
        )

    per_index = len(list(second_kinds))
    total = trace.result.instructions
    stats = SpaceStats(
        k=k,
        window=window,
        golden_instructions=total,
        first_count=len(firsts),
        second_per_index=per_index,
        naive=len(firsts) * (per_index * total) ** (k - 1),
    )

    first_results: dict = {}
    level: list[tuple[tuple[FaultModel, ...], int]] = [
        ((model,), fire) for model, fire in firsts
    ]
    seen: set[frozenset] = set()
    for depth in range(2, k + 1):
        extended: list[tuple[tuple[FaultModel, ...], int]] = []
        for components, last_fire in level:
            trial_model = (
                components[0]
                if len(components) == 1
                else CompositeFault(components)
            )
            end = None
            if prune_terminal:
                with scheduler.lock:  # no other trial ends in between
                    result = scheduler.run_trial(trial_model, max_cycles)
                    end = scheduler.last_trial_end
                stats.prepass_trials += 1
                if depth == 2:
                    first_results[trial_model] = result
            for index in range(last_fire + 1, last_fire + window + 1):
                stats.after_window += per_index
                if end is not None and index > end:
                    # The previous trial already halted: the follow-up
                    # fault cannot fire, so the composite is identical to
                    # the trial the pre-pass just ran.
                    stats.pruned_unreachable += per_index
                    continue
                for second in second_fault_candidates(index, second_kinds):
                    key = frozenset(components + (second,))
                    if key in seen:
                        stats.deduped += 1
                        continue
                    seen.add(key)
                    extended.append((components + (second,), index))
        level = extended

    trials = [CompositeFault(components) for components, _ in level]
    stats.generated = len(trials)
    return PrunedSpace(trials=trials, stats=stats, first_results=first_results)


# ---------------------------------------------------------------------------
# Attack-suite entry point
# ---------------------------------------------------------------------------
def adversary_sweep(
    program,
    function: str,
    args: Sequence[int],
    k: int = 2,
    window: int = DEFAULT_WINDOW,
    first_kinds: Sequence[str] = ("branch-flip",),
    second_kinds: Sequence[str] = ("skip", "flag-flip"),
    focus: Optional[str] = None,
    max_first: Optional[int] = None,
    prune_terminal: bool = True,
    max_cycles: int = 2_000_000,
    engine: str = "fork",
    executor=None,
    record_trials: bool = False,
    spec=None,
) -> AttackResult:
    """Run the pruned k-fault adversary campaign as one attack suite.

    Space generation always happens in-process on the fork engine (the
    pre-pass *is* a pruning layer); the composite trials themselves then
    run on ``engine`` — or shard across a
    :class:`~repro.toolchain.executor.CampaignExecutor` unchanged, since
    a :class:`CompositeFault` is as picklable as any single fault.

    ``spec`` runs the whole campaign speculatively, which is required
    when ``first_kinds`` includes ``"predictor-flip"`` and lets any
    composite surface :data:`~repro.faults.classify.Outcome.
    TRANSIENT_LEAK` alongside the architectural verdicts.
    """
    space = compose_space(
        program,
        function,
        args,
        k=k,
        window=window,
        first_kinds=first_kinds,
        second_kinds=second_kinds,
        focus=focus,
        max_first=max_first,
        prune_terminal=prune_terminal,
        max_cycles=max_cycles,
        spec=spec,
    )
    result = run_attack(
        program,
        function,
        list(args),
        space.trials,
        adversary_sweep.attack_label,
        max_cycles=max_cycles,
        engine=engine,
        executor=executor,
        record_trials=record_trials,
        spec=spec,
    )
    return result


adversary_sweep.attack_label = "k-fault-adversary"
