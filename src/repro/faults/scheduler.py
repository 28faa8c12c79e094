"""Checkpoint/resume trial scheduling for fault campaigns.

A fault campaign runs thousands of single-fault trials against the same
(program, function, args) workload.  The original engine re-executed the
entire golden prefix of every trial from cycle 0; this module runs the
golden execution exactly **once**, recording

* a :class:`GoldenTrace` — the golden :class:`ExecutionResult` plus the
  dynamic-index hit-list of every mnemonic (so "the N-th conditional
  branch" or "the first MUL" resolves without another execution), and
* a ladder of :class:`~repro.isa.cpu.CpuSnapshot` checkpoints taken every
  ``interval`` retired instructions (dirty-page deltas only, thinned to a
  bounded count for long programs),

then forks each trial from the nearest checkpoint strictly before its
fault's first possible firing index.  A trial is therefore roughly
O(window + faulted suffix) instead of O(program).

Fault models participate through two optional methods (see
:mod:`repro.faults.models`):

* ``first_fire_index(trace)`` — the earliest 1-based dynamic index at
  which the hook could mutate state, or None if it can never fire against
  this golden run (the trial short-circuits to the golden result);
* ``forked_hook(trace)`` — a hook whose internal counters are valid when
  execution starts mid-run (occurrence counters are translated to
  absolute dynamic indices using the trace).

Models without these methods still work: they fork from the initial
checkpoint, which is exactly the legacy full replay.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.isa.cpu import PAGE_BITS, PAGE_SIZE, CpuSnapshot, ExecutionResult, Status

#: Default spacing (retired instructions) between checkpoints.
DEFAULT_INTERVAL = 64
#: Checkpoint-count bound; reaching it doubles the interval and thins the
#: ladder, so memory stays O(MAX_CHECKPOINTS) for arbitrarily long runs.
MAX_CHECKPOINTS = 96
#: Cycle budget of the golden capture.
GOLDEN_MAX_CYCLES = 10_000_000


_EMPTY_INDICES = array("I")


@dataclass
class GoldenTrace:
    """Everything one instrumented golden run reveals about a workload."""

    result: ExecutionResult
    #: mnemonic -> sorted 1-based dynamic indices of its retirements
    #: (unsigned-int arrays: the whole-run trace stays ~4 bytes/retirement
    #: even for multi-million-instruction golden executions)
    mnemonic_indices: dict[str, array]
    #: code address of each retired conditional branch (parallel to
    #: ``mnemonic_indices["bcc"]``)
    bcc_addrs: array
    #: mnemonic -> code address of each retirement (parallel to
    #: ``mnemonic_indices[mnemonic]``) — lets :meth:`locate` map any
    #: dynamic index back to its static instruction, which is what the
    #: per-instruction vulnerability maps of :mod:`repro.analysis` are
    #: built from.  ``bcc_addrs`` aliases
    #: ``mnemonic_addrs[branch_mnemonic]``.
    mnemonic_addrs: dict[str, array] = field(default_factory=dict)
    #: the target's conditional-branch mnemonic (fused rv32 branches share
    #: ``bcc`` by design; a third-party target may differ).
    branch_mnemonic: str = "bcc"

    def indices(self, mnemonic: str):
        """All dynamic indices at which ``mnemonic`` retired."""
        return self.mnemonic_indices.get(mnemonic, _EMPTY_INDICES)

    def nth(self, mnemonic: str, n: int):
        """Dynamic index of the ``n``-th (1-based) retirement, or None."""
        hits = self.mnemonic_indices.get(mnemonic)
        if not hits or n < 1 or n > len(hits):
            return None
        return hits[n - 1]

    def first_bcc_in_range(self, lo: int, hi: int):
        """Dynamic index of the first conditional branch at lo <= addr < hi."""
        for index, addr in zip(self.indices(self.branch_mnemonic), self.bcc_addrs):
            if lo <= addr < hi:
                return index
        return None

    def locate(self, index: int):
        """``(mnemonic, code address)`` of the golden retirement at dynamic
        index ``index`` (1-based), or None when the index is out of range
        or the trace carries no address information (hand-built traces)."""
        for mnemonic, hits in self.mnemonic_indices.items():
            pos = bisect_left(hits, index)
            if pos < len(hits) and hits[pos] == index:
                addrs = self.mnemonic_addrs.get(mnemonic)
                if addrs is None or pos >= len(addrs):
                    return None
                return mnemonic, addrs[pos]
        return None


@dataclass
class SchedulerStats:
    """Engine accounting, for benches and the equivalence suite."""

    trials: int = 0
    forked: int = 0
    short_circuited: int = 0
    #: instructions actually simulated by trials (excludes checkpointed
    #: prefixes and short-circuited trials)
    simulated_instructions: int = 0
    #: cycles actually simulated by trials
    simulated_cycles: int = 0
    checkpoints: int = 0
    interval: int = 0
    #: compiled traces entered by trials
    superblock_blocks: int = 0
    #: instructions trials single-stepped instead of running compiled
    #: traces (open fault windows, near-timeout tails)
    superblock_deopt_steps: int = 0


class TrialScheduler:
    """Runs fault trials against one workload by checkpoint forking."""

    def __init__(
        self,
        program,
        function: str,
        args: list[int],
        interval: int = DEFAULT_INTERVAL,
        max_checkpoints: int = MAX_CHECKPOINTS,
        record_addrs: bool = True,
        spec=None,
    ):
        """``record_addrs=False`` skips the per-retirement address capture
        for non-``bcc`` mnemonics (roughly half the trace memory).
        Conditional-branch addresses are always recorded — fault models
        resolve code ranges through them — but ``trace.locate()`` then
        only answers for branches, so vulnerability maps need the default.
        Executor workers run trials, never build maps, and opt out.

        ``spec`` (a :class:`repro.spec.SpecConfig`) makes the golden run
        *and* every forked trial speculative: checkpoints carry predictor
        and transient-trace state, so a forked trial reconstructs the
        exact observable digest a full replay would produce.

        Golden capture runs the decode-cached step loop: it needs
        ``stop_at_instruction`` and a recording retire hook.  Trials run
        on a trace-compiled CPU (``dispatch="superblock"``) that
        single-steps only while a fault window is open."""
        self.program = program
        self.function = function
        self.args = list(args)
        self.spec = spec
        self.stats = SchedulerStats()
        #: One CPU reused across trials (dirty pages scrubbed back to the
        #: pristine image between trials) instead of re-allocating the
        #: 2 MiB address space per trial.  Safe for hooks that go through
        #: CPU.store()/the bundled fault models; a third-party hook that
        #: pokes ``cpu.memory`` directly must mark the page in
        #: ``cpu._dirty_pages`` (as MemoryBitFlip does).
        self._trial_cpu = None
        self._pristine: bytes | None = None
        #: Final ``cpu.dyn_index`` of the most recent trial — where its
        #: execution actually ended, including skipped instructions (which
        #: ``ExecutionResult.instructions`` excludes).  The multi-fault
        #: adversary layer prunes composite trials whose later faults are
        #: timed past this point: they provably cannot fire.
        self.last_trial_end: int | None = None
        self._capture_golden(interval, max_checkpoints, record_addrs)

    #: Workloads memoized per program; the LRU bound keeps argument sweeps
    #: (thousands of distinct (function, args) pairs, each scheduler
    #: holding a trial CPU + pristine image + checkpoint ladder) from
    #: accumulating unboundedly.
    MEMO_SIZE = 8

    # ------------------------------------------------------------------
    @classmethod
    def for_program(cls, program, function, args, **kwargs) -> "TrialScheduler":
        """The memoized scheduler for (program, function, args): every
        attack suite against the same workload shares one golden run."""
        key = (function, tuple(args), tuple(sorted(kwargs.items())))
        cache = program._schedulers
        scheduler = cache.get(key)
        if scheduler is None:
            scheduler = cache[key] = cls(program, function, list(args), **kwargs)
        else:
            cache[key] = cache.pop(key)  # refresh LRU position
        while len(cache) > cls.MEMO_SIZE:
            cache.pop(next(iter(cache)))
        return scheduler

    # ------------------------------------------------------------------
    def _capture_golden(
        self, interval: int, max_checkpoints: int, record_addrs: bool
    ) -> None:
        from repro.target import get_target

        mnemonic_indices: dict[str, array] = {}
        mnemonic_addrs: dict[str, array] = {}
        addr_of = self.program.image.addr_of
        # The conditional-branch mnemonic is target vocabulary, not a
        # baseline constant (fused rv32 branches share "bcc" by design,
        # but a third-party target need not).
        branch_mn = get_target(
            getattr(self.program.image, "target", "baseline")
        ).branch_mnemonic

        def record(cpu, instr, events):
            mnemonic = instr.mnemonic
            hits = mnemonic_indices.get(mnemonic)
            if hits is None:
                hits = mnemonic_indices[mnemonic] = array("I")
                if record_addrs or mnemonic == branch_mn:
                    mnemonic_addrs[mnemonic] = array("I")
            hits.append(cpu.dyn_index)
            addrs = mnemonic_addrs.get(mnemonic)
            if addrs is not None:
                addrs.append(addr_of[id(instr)])

        cpu = self.program.prepare_cpu(
            self.function, self.args, track_pages=True, spec=self.spec
        )
        cpu.retire_hooks.append(record)
        checkpoints = [cpu.snapshot()]
        while True:
            result = cpu.run(
                GOLDEN_MAX_CYCLES, stop_at_instruction=cpu.retired + interval
            )
            if result.status is not Status.RUNNING:
                break
            checkpoints.append(cpu.snapshot())
            if len(checkpoints) > max_checkpoints:
                # Thin every other checkpoint; future ones come at twice
                # the spacing.  Keeps the ladder bounded for long runs.
                checkpoints = checkpoints[::2]
                interval *= 2
        self.golden = result
        self.trace = GoldenTrace(
            result,
            mnemonic_indices,
            mnemonic_addrs.get(branch_mn, array("I")),
            mnemonic_addrs,
            branch_mnemonic=branch_mn,
        )
        self.checkpoints = checkpoints
        self._checkpoint_retired = [snap.retired for snap in checkpoints]
        self.stats.checkpoints = len(checkpoints)
        self.stats.interval = interval

    # ------------------------------------------------------------------
    def _fork_point(self, first_fire: int, max_cycles: int) -> CpuSnapshot:
        """Latest checkpoint strictly before ``first_fire`` whose cycle
        count is still under the trial's budget (so TIMEOUT trials stop at
        the same point a full replay would)."""
        pos = bisect_left(self._checkpoint_retired, first_fire) - 1
        while pos > 0 and self.checkpoints[pos].cycles >= max_cycles:
            pos -= 1
        return self.checkpoints[max(pos, 0)]

    def run_trial(self, model, max_cycles: int = 2_000_000) -> ExecutionResult:
        """One single-fault trial, forked from the best checkpoint."""
        self.stats.trials += 1
        first_fire_index = getattr(model, "first_fire_index", None)
        if first_fire_index is not None:
            first_fire = first_fire_index(self.trace)
            if first_fire is None:
                # The fault can never fire against this golden run; the
                # trial is the golden execution.  Short-circuit when the
                # golden run provably fits the trial's cycle budget.
                golden = self.golden
                if (
                    golden.status is not Status.TIMEOUT
                    and golden.cycles <= max_cycles
                ):
                    self.stats.short_circuited += 1
                    # Nothing fired, so nothing was skipped: the final
                    # dynamic index equals the retired count.
                    self.last_trial_end = golden.instructions
                    return golden
                first_fire = 1
                hook = model.hook()
            else:
                hook = model.forked_hook(self.trace)
        else:
            first_fire = 1
            hook = model.hook()

        snap = self._fork_point(first_fire, max_cycles)
        cpu = self._fork_cpu(snap)
        cpu.pre_hooks.append(hook)
        blocks0, steps0 = cpu._sb_blocks, cpu._sb_steps
        result = cpu.run(max_cycles)
        self.last_trial_end = cpu.dyn_index
        self.stats.forked += 1
        self.stats.simulated_instructions += result.instructions - snap.retired
        self.stats.simulated_cycles += result.cycles - snap.cycles
        self.stats.superblock_blocks += cpu._sb_blocks - blocks0
        self.stats.superblock_deopt_steps += cpu._sb_steps - steps0
        return result

    def _fork_cpu(self, snap: CpuSnapshot):
        """The trial CPU in exactly the checkpoint's state, ready for one
        trial."""
        cpu = self._trial_cpu
        if cpu is None:
            cpu = self.program.prepare_cpu(
                self.function, self.args, track_pages=True, spec=self.spec,
                dispatch="superblock",
            )
            self._pristine = bytes(cpu.memory)
            self._trial_cpu = cpu
        else:
            # Scrub the previous trial: every page it dirtied reverts to
            # the pristine post-load image; restore() then lays the
            # checkpoint's deltas back on top.
            memory = cpu.memory
            pristine = self._pristine
            for page in cpu._dirty_pages:
                offset = page << PAGE_BITS
                memory[offset : offset + PAGE_SIZE] = pristine[
                    offset : offset + PAGE_SIZE
                ]
            cpu._dirty_pages.clear()
            cpu.pre_hooks.clear()
        cpu.restore(snap)
        return cpu
