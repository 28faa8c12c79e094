"""ISA-level fault models (Section II threat model).

Each model is a factory for a CPU pre-execution hook.  Hooks run before an
instruction executes; returning True skips it (the classic instruction-skip
glitch), mutating ``cpu`` models register/memory/flag corruption.

Scheduler protocol
------------------
The checkpoint-forking trial scheduler (:mod:`repro.faults.scheduler`)
never replays a golden prefix it has already simulated, so each model
additionally declares

* ``first_fire_index(trace)`` — the earliest 1-based dynamic-instruction
  index at which its hook could first mutate state or skip, resolved
  against the golden :class:`~repro.faults.scheduler.GoldenTrace`
  (``None`` = the fault can never fire on this workload);
* ``forked_hook(trace)`` — a hook that is valid when execution starts from
  a mid-run checkpoint.  Models whose hooks count occurrences (e.g. "the
  N-th conditional branch") translate the count into an absolute dynamic
  index via the trace — sound because a single-fault trial is identical to
  the golden run until the fault fires.

Third-party models without these methods are forked from the initial
checkpoint, which is exactly a full replay.

Hooks that only act at known absolute dynamic indices additionally carry
a ``fire_window = (lo, hi)`` attribute (1-based ``dyn_index`` bounds of
every instruction the hook can observe or mutate).  The trace-compiled
trial CPUs (:mod:`repro.isa.superblock`) call such a hook only inside its
window, which they single-step, and run compiled traces before and after
it; hooks without the attribute — occurrence counters and the
``Repeated*`` models — make them fall back to per-instruction stepping
for the whole run, which is always sound.

Multi-fault composition (:mod:`repro.faults.adversary`) adds a third
method, ``resumed_hook(trace)``: a hook valid when execution resumes from
a mid-run checkpoint while *other* faults may fire later in the same
trial.  Unlike ``forked_hook`` it may only assume the prefix *before the
checkpoint* matches the golden trace — once any composed fault fires the
execution diverges, so occurrence counters cannot be translated to
absolute golden indices.  Instead, occurrence-counting models charge the
counter for the golden prefix the fork skipped (computable exactly from
the trace, because nothing fires before the fork point) and then count
live occurrences on the actual — possibly divergent — execution.  The
base-class default returns the raw ``hook()``, which is already correct
for stateless hooks and for hooks timed on ``cpu.dyn_index`` (the dynamic
index is restored by the checkpoint).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.isa import instructions as ins
from repro.isa.cpu import CPU, PAGE_BITS


class FaultModel:
    """Base: a pre-hook factory with conservative scheduler metadata."""

    def hook(self):  # pragma: no cover - overridden by every model
        raise NotImplementedError

    def first_fire_index(self, trace):
        """Earliest dynamic index the hook may fire; 1 = run from start."""
        return 1

    def forked_hook(self, trace):
        """Hook for mid-run forking; stateless hooks fork as-is."""
        return self.hook()

    def resumed_hook(self, trace):
        """Hook for mid-run forking when *other* faults fire in the same
        trial (composite trials).  Stateless and ``dyn_index``-timed hooks
        resume as-is; occurrence-counting models must override this to
        pre-charge their counter for the skipped golden prefix."""
        return self.hook()


@dataclass(frozen=True)
class InstructionSkip(FaultModel):
    """Skip the ``occurrence``-th dynamically executed instruction."""

    occurrence: int

    def hook(self):
        target = self.occurrence

        def pre(cpu: CPU, instr) -> bool:
            return cpu.dyn_index == target

        pre.fire_window = (target, target)
        return pre

    def first_fire_index(self, trace):
        if self.occurrence < 1 or self.occurrence > trace.result.instructions:
            return None
        return self.occurrence


@dataclass(frozen=True)
class RegisterBitFlip(FaultModel):
    """Flip one bit of a register just before a dynamic instruction."""

    reg: int
    bit: int
    occurrence: int

    def hook(self):
        def pre(cpu: CPU, instr) -> bool:
            if cpu.dyn_index == self.occurrence:
                cpu.regs[self.reg] ^= 1 << self.bit
            return False

        pre.fire_window = (self.occurrence, self.occurrence)
        return pre

    def first_fire_index(self, trace):
        if self.occurrence < 1 or self.occurrence > trace.result.instructions:
            return None
        return self.occurrence


@dataclass(frozen=True)
class MemoryBitFlip(FaultModel):
    """Flip one bit of a memory byte before a dynamic instruction."""

    addr: int
    bit: int
    occurrence: int

    def hook(self):
        def pre(cpu: CPU, instr) -> bool:
            if cpu.dyn_index == self.occurrence and self.addr < len(cpu.memory):
                cpu.memory[self.addr] ^= 1 << self.bit
                # A direct poke bypasses store(): mark the page, so
                # snapshots and restores see it.
                cpu._dirty_pages.add(self.addr >> PAGE_BITS)
            return False

        pre.fire_window = (self.occurrence, self.occurrence)
        return pre

    def first_fire_index(self, trace):
        if self.occurrence < 1 or self.occurrence > trace.result.instructions:
            return None
        return self.occurrence


@dataclass(frozen=True)
class FlagFlip(FaultModel):
    """Flip a condition flag before the N-th conditional branch.

    This is the paper's core scenario: the 1-bit condition signal inside
    the CPU is the single point of failure.
    """

    flag: str = "z"
    branch_occurrence: int = 1

    def hook(self):
        seen = [0]

        def pre(cpu: CPU, instr) -> bool:
            if isinstance(instr, ins.Bcc):
                seen[0] += 1
                if seen[0] == self.branch_occurrence:
                    _flip_flag(cpu, instr, self.flag)
            return False

        return pre

    def first_fire_index(self, trace):
        return trace.nth(trace.branch_mnemonic, self.branch_occurrence)

    def forked_hook(self, trace):
        # The branch-occurrence counter becomes an absolute dynamic index:
        # pre-fault, the trial retraces the golden run instruction for
        # instruction, so the N-th branch is exactly where it was there.
        fire = trace.nth(trace.branch_mnemonic, self.branch_occurrence)
        flag = self.flag

        def pre(cpu: CPU, instr) -> bool:
            if cpu.dyn_index == fire:
                _flip_flag(cpu, instr, flag)
            return False

        if fire is not None:
            pre.fire_window = (fire, fire)
        return pre

    def resumed_hook(self, trace):
        return _resumed_branch_counter(
            trace,
            self.branch_occurrence,
            lambda cpu, instr: _flip_flag(cpu, instr, self.flag),
        )


def _resumed_branch_counter(trace, target: int, fire):
    """A branch-occurrence counter that is exact after a mid-run fork.

    On first invocation the counter is charged for the conditional
    branches the fork skipped: the prefix up to the checkpoint is
    golden-identical (no composed fault has fired yet), so they are
    exactly the golden ``bcc`` retirements with a dynamic index below the
    resume point.  From there it counts live branches on the actual —
    possibly divergent — execution, matching a from-start run exactly.
    """
    bcc_hits = trace.indices(trace.branch_mnemonic)
    seen = [None]

    def pre(cpu: CPU, instr) -> bool:
        if seen[0] is None:
            seen[0] = bisect_left(bcc_hits, cpu.dyn_index)
        if isinstance(instr, ins.Bcc):
            seen[0] += 1
            if seen[0] == target:
                fire(cpu, instr)
        return False

    return pre


@dataclass(frozen=True)
class FlagFlipAt(FaultModel):
    """Flip a condition flag before the ``occurrence``-th dynamic instruction.

    The index-timed sibling of :class:`FlagFlip`: the attacker fires at an
    absolute point in time rather than counting branches.  That makes it
    the natural *second* fault of a :class:`~repro.faults.adversary.
    CompositeFault` — absolute timing stays meaningful after an earlier
    fault diverges the control flow, whereas "the N-th branch" does not.

    On flagless targets (``cpu.flag_branches`` False) there is no NZCV
    state to corrupt at an arbitrary instant; the glitch arms the CPU's
    one-shot ``branch_invert`` latch instead, so the *next* fused branch
    takes the wrong direction — the closest physical analogue of a
    poisoned condition bit waiting to be consumed.
    """

    flag: str = "z"
    occurrence: int = 1

    def hook(self):
        def pre(cpu: CPU, instr) -> bool:
            if cpu.dyn_index == self.occurrence:
                if cpu.flag_branches:
                    setattr(cpu, self.flag, getattr(cpu, self.flag) ^ 1)
                else:
                    cpu.branch_invert = True
            return False

        pre.fire_window = (self.occurrence, self.occurrence)
        return pre

    def first_fire_index(self, trace):
        if self.occurrence < 1 or self.occurrence > trace.result.instructions:
            return None
        return self.occurrence


@dataclass(frozen=True)
class RepeatedFlagFlip(FaultModel):
    """Flip a flag before *every* conditional branch.

    The repeat-the-same-fault attack (Section II-C): it walks straight
    through a duplication comparison tree, flipping every re-check the
    same way.
    """

    flag: str = "z"

    def hook(self):
        def pre(cpu: CPU, instr) -> bool:
            if isinstance(instr, ins.Bcc):
                _flip_flag(cpu, instr, self.flag)
            return False

        return pre

    def first_fire_index(self, trace):
        return trace.nth(trace.branch_mnemonic, 1)


def _invert_branch(cpu: CPU, instr) -> None:
    """Invert the outcome of the conditional branch about to execute.

    Models an attacker with full control of the 1-bit decision (the
    hardware multiplexer the paper calls the single point of failure).
    On flag-based branches the flags are forced so the condition
    evaluates opposite to now; fused register-compare branches (flagless
    targets) have no NZCV input, so the glitch lands directly on the
    decision bit via the CPU's one-shot ``branch_invert`` latch —
    physically the same multiplexer-output fault.
    """
    if not type(instr).uses_flags:
        cpu.branch_invert = True
        return
    cond = instr.cond
    before = cpu.condition_holds(cond)
    for flags in range(16):
        cpu.n, cpu.z, cpu.c, cpu.v = (
            (flags >> 3) & 1,
            (flags >> 2) & 1,
            (flags >> 1) & 1,
            flags & 1,
        )
        if cpu.condition_holds(cond) != before:
            return
    raise AssertionError(f"condition {cond} cannot be inverted")


def _flip_flag(cpu: CPU, instr, flag: str) -> None:
    """Flip ``flag`` before a conditional branch — or, on a fused
    register-compare branch (no flag input), glitch the decision bit
    itself: the flag-glitch family degenerates to the 1-bit
    branch-decision fault on flagless targets."""
    if not type(instr).uses_flags:
        cpu.branch_invert = True
        return
    setattr(cpu, flag, getattr(cpu, flag) ^ 1)


@dataclass(frozen=True)
class BranchDirectionFlip(FaultModel):
    """Invert the outcome of the N-th conditional branch."""

    branch_occurrence: int = 1

    def hook(self):
        seen = [0]

        def pre(cpu: CPU, instr) -> bool:
            if isinstance(instr, ins.Bcc):
                seen[0] += 1
                if seen[0] == self.branch_occurrence:
                    _invert_branch(cpu, instr)
            return False

        return pre

    def first_fire_index(self, trace):
        return trace.nth(trace.branch_mnemonic, self.branch_occurrence)

    def forked_hook(self, trace):
        fire = trace.nth(trace.branch_mnemonic, self.branch_occurrence)

        def pre(cpu: CPU, instr) -> bool:
            if cpu.dyn_index == fire:
                _invert_branch(cpu, instr)
            return False

        if fire is not None:
            pre.fire_window = (fire, fire)
        return pre

    def resumed_hook(self, trace):
        return _resumed_branch_counter(
            trace,
            self.branch_occurrence,
            _invert_branch,
        )


@dataclass(frozen=True)
class RepeatedBranchDirectionFlip(FaultModel):
    """Invert *every* conditional branch — the repeated-fault attack.

    ``addr_range`` (start, end) restricts the glitch to branches inside one
    code region (e.g. the protected function), which is how an attacker
    would repeat the same fault against a duplication comparison tree.
    """

    addr_range: tuple[int, int] | None = None

    def hook(self):
        lo, hi = self.addr_range if self.addr_range else (0, 1 << 32)

        def pre(cpu: CPU, instr) -> bool:
            if isinstance(instr, ins.Bcc) and lo <= cpu.regs[15] < hi:
                _invert_branch(cpu, instr)
            return False

        return pre

    def first_fire_index(self, trace):
        lo, hi = self.addr_range if self.addr_range else (0, 1 << 32)
        return trace.first_bcc_in_range(lo, hi)


def _spec_engine(cpu: CPU):
    """The CPU's speculation engine, or a clear error for plain CPUs."""
    engine = getattr(cpu, "spec", None)
    if engine is None:
        raise RuntimeError(
            "predictor fault models require a speculative CPU — run the "
            "campaign with spec=repro.spec.SpecConfig(...) (or use the "
            "speculative_sweep suite, which configures one)"
        )
    return engine


@dataclass(frozen=True)
class PredictorFlip(FaultModel):
    """Invert the branch predictor's prediction at the N-th conditional
    branch (:mod:`repro.spec` required).

    The architectural direction is untouched — the glitch lands in the
    front end, forces a misprediction, and the wrong path runs
    *transiently* before the squash.  The only residue is the transient
    trace, which is exactly what :data:`~repro.faults.classify.Outcome.
    TRANSIENT_LEAK` classifies.
    """

    branch_occurrence: int = 1

    def _fire(self, cpu: CPU, instr) -> None:
        _spec_engine(cpu).flip_next = True

    def hook(self):
        seen = [0]

        def pre(cpu: CPU, instr) -> bool:
            if isinstance(instr, ins.Bcc):
                seen[0] += 1
                if seen[0] == self.branch_occurrence:
                    self._fire(cpu, instr)
            return False

        return pre

    def first_fire_index(self, trace):
        return trace.nth(trace.branch_mnemonic, self.branch_occurrence)

    def forked_hook(self, trace):
        fire = trace.nth(trace.branch_mnemonic, self.branch_occurrence)

        def pre(cpu: CPU, instr) -> bool:
            if cpu.dyn_index == fire:
                self._fire(cpu, instr)
            return False

        if fire is not None:
            pre.fire_window = (fire, fire)
        return pre

    def resumed_hook(self, trace):
        return _resumed_branch_counter(trace, self.branch_occurrence, self._fire)


@dataclass(frozen=True)
class HistoryPoison(PredictorFlip):
    """Overwrite the predictor's global branch history just before the
    N-th conditional branch — BHB aliasing in the Spectre-BHI style
    (:mod:`repro.spec` required).

    The victim branch then indexes an attacker-chosen prediction-table
    slot; whether that forces a misprediction depends on the training the
    aliased slot received, making this the *probabilistic* sibling of the
    surgical :class:`PredictorFlip`.  A no-op under history-free
    predictors (static, plain two-bit).
    """

    pattern: int = 0

    def _fire(self, cpu: CPU, instr) -> None:
        _spec_engine(cpu).predictor.poison(self.pattern)


@dataclass(frozen=True)
class RepeatedInstructionSkip(FaultModel):
    """Skip every dynamic instruction matching a mnemonic (repeated glitch)."""

    mnemonic: str

    def hook(self):
        def pre(cpu: CPU, instr) -> bool:
            return instr.mnemonic == self.mnemonic

        return pre

    def first_fire_index(self, trace):
        return trace.nth(self.mnemonic, 1)
