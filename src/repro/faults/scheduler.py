"""Checkpoint/resume trial scheduling for fault campaigns.

A fault campaign runs thousands of single-fault trials against the same
(program, function, args) workload.  The original engine re-executed the
entire golden prefix of every trial from cycle 0; this module runs the
golden execution exactly **once**, recording

* a :class:`GoldenTrace` — the golden :class:`ExecutionResult` plus the
  dynamic-index hit-list of every mnemonic (so "the N-th conditional
  branch" or "the first MUL" resolves without another execution), and
* a ladder of :class:`~repro.isa.cpu.CpuSnapshot` checkpoints taken every
  :data:`DEFAULT_INTERVAL` retired instructions (dirty-page deltas
  only).  The ladder holds at most :data:`LADDER_BYTES`: each snapshot
  is charged its page copies plus one page, and a snapshot that takes
  the ladder past the budget thins it to every other checkpoint and
  doubles the interval, so a program that dirties many pages thins
  early,

then forks each trial from the nearest checkpoint strictly before its
fault's first possible firing index.  A trial is therefore roughly
O(window + faulted suffix) instead of O(program).

Golden rejoin
-------------
Most faulted trials stop diverging soon after the fault: the
architecture matches the golden run again, and only the CFI monitor
remembers the fault.  GPSA updates are XOR-linear (``rotl(state) ^ sig``,
merges ``^ value``), so with equal architecture a trial retraces the
golden path, and each live call frame carries a fixed, merely rotating
signature difference δ: a frame with δ ≠ 0 fails its next ``CFI_CHECK``,
a frame with δ = 0 passes every check, and a frame the trial opens later
starts from the callee's entry state (δ = 0).

So after a hook's ``fire_window`` closes, the trial runs on compiled
traces to the next ladder checkpoint (the *probe*), pauses there, and
compares its state with the golden checkpoint.  If only the monitor
differs, the trial has *rejoined*, and its exact result comes from a
table of the golden run's CFI checks: ``CFI_VIOLATION`` at the first
later check in a frame that was live at the probe and carries δ ≠ 0, or
else the golden result — in both cases shifted by the cycles and
instructions the trial gained or lost before the probe.  A verdict that
would reach the trial's cycle budget is not given, so timeouts stay
exact.  A trial that fails its probe runs on to the next checkpoint and
applies the same rule there; if that fails too, it simulates to its end.
The window is closed at both probes, so the rule's argument holds at
each.  On memcmp's skip sweep no later checkpoint decides a trial the
second one does not, and probing every checkpoint would pause each
undecided trial about eleven times.  There is no probe for hooks without
a window, under speculation, or when the golden run did not exit.

Ladder checkpoints sit on trace entries: golden capture takes each one
at the first entry of a compiled trace (:func:`repro.isa.superblock.
trace_entries`) at or after its interval mark.  A trial therefore forks
onto a trace, runs traces to its fault window, single-steps the window,
and from where the fault leaves the PC runs the trace that starts there
(a suffix trace, compiled at its second reach) on to its probe.
:meth:`TrialScheduler.run_trial` drives those phases itself: restore,
:func:`~repro.isa.superblock.chain` to the slot before the window, the
window stepped with the hook attached, ``chain`` to each probe (or to
the end), and one ``result()``.  A hook without a window is attached
for the whole trial, which :meth:`CPU.run` steps on the reference path.

Trial CPUs belong to the program, not to the scheduler.  For each
(function, spec) the :class:`~repro.backend.driver.CompiledProgram`
keeps a free list of CPUs and one start snapshot, the state of a CPU
prepared with no arguments.  Golden capture takes a CPU, restores the
start snapshot and calls the function with the workload's arguments;
every trial takes a CPU and restores its checkpoint, which puts the CPU
into exactly the checkpoint's state whatever the previous trial left
(:meth:`CPU.restore <repro.isa.cpu.CPU.restore>`).  Both hand it back
when done.  So a fresh workload of a warm program allocates no CPU, the
schedulers of one program hold one CPU between them while they take
turns, and concurrent schedulers still run on separate CPUs.

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

import os
import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress, count

from repro.isa.cpu import PAGE_BITS, PAGE_SIZE, CpuSnapshot, ExecutionResult, Status
from repro.isa.mmio import MMIO
from repro.isa.registers import PC
from repro.isa.superblock import NO_STOP, chain, trace_entries

#: Spacing (retired instructions) between checkpoints, until the ladder
#: budget doubles it.  Golden capture reads it when it runs.
DEFAULT_INTERVAL = 64
#: Byte budget of the checkpoint ladder: each snapshot is charged its
#: page copies plus one page for its fixed parts (registers, console,
#: monitor).  A snapshot that takes the ladder past the budget thins it
#: to every other checkpoint and doubles the interval, so memory stays
#: bounded for arbitrarily long runs.
LADDER_BYTES = 4 << 20
#: Cycle budget of the golden capture.
GOLDEN_MAX_CYCLES = 10_000_000

#: Every lock of this module.  A forked child (an executor worker, which
#: keeps the parent's memo) releases them: a thread of the parent may
#: have held one at the fork, and no thread of the child would release it.
_LOCKS: weakref.WeakSet = weakref.WeakSet()


def _lock() -> threading.Lock:
    lock = threading.Lock()
    _LOCKS.add(lock)
    return lock


def _release_locks() -> None:
    for lock in _LOCKS:
        if lock.locked():
            lock.release()


if hasattr(os, "register_at_fork"):  # where processes can fork
    os.register_at_fork(after_in_child=_release_locks)


class SchedulerMemo(dict):
    """A program's schedulers, (function, args, spec) -> TrialScheduler in
    LRU order, and the ``lock`` :meth:`TrialScheduler.for_program` holds
    over them.  It pickles as a new empty memo."""

    def __init__(self):
        super().__init__()
        self.lock = _lock()

    def __reduce__(self):
        return SchedulerMemo, ()


class GoldenTrace:
    """Everything one instrumented golden run reveals about a workload:
    its result and the code address of every retirement, from which each
    mnemonic's hit list is built the first time it is asked for."""

    def __init__(
        self,
        result: ExecutionResult,
        pcs: array,
        image,
        branch_mnemonic: str = "bcc",
    ):
        self.result = result
        #: code address of each golden retirement: ``pcs[i - 1]`` retired
        #: at dynamic index ``i`` (an unsigned-int array, 4 bytes per
        #: retirement even for multi-million-instruction runs)
        self.pcs = pcs
        #: the :class:`~repro.isa.assembler.CodeImage` that ran
        self._image = image
        #: the image's decode cache, address -> (instruction, width)
        self._code = image.decode_cache()
        #: the target's conditional-branch mnemonic (fused rv32 branches
        #: share ``bcc`` by design; a third-party target may differ).
        self.branch_mnemonic = branch_mnemonic
        #: mnemonic -> (sorted 1-based dynamic indices of its retirements,
        #: their code addresses), built on first use
        self._hits: dict[str, tuple[array, array]] = {}
        #: each retirement's mnemonic as one byte (the image's mnemonic
        #: numbering); built from ``pcs`` by the first hit list
        self._mnemonic_log: bytes | None = None

    def _hit_list(self, mnemonic: str) -> tuple[array, array]:
        hits = self._hits.get(mnemonic)
        if hits is None:
            number_at, numbers = self._image.mnemonic_numbers()
            kinds = self._mnemonic_log
            if kinds is None:
                kinds = self._mnemonic_log = bytes(
                    map(number_at.__getitem__, self.pcs)
                )
            mask = kinds.translate(_selector(numbers.get(mnemonic)))
            indices = array("I", compress(count(1), mask))
            pcs = self.pcs
            hits = indices, array("I", [pcs[i - 1] for i in indices])
            # One assignment publishes the finished lists: a concurrent
            # reader sees none (and builds its own) or all of them.
            self._hits[mnemonic] = hits
        return hits

    def indices(self, mnemonic: str) -> array:
        """All dynamic indices at which ``mnemonic`` retired."""
        return self._hit_list(mnemonic)[0]

    @property
    def bcc_addrs(self) -> array:
        """Code address of each retired conditional branch (parallel to
        ``indices(branch_mnemonic)``)."""
        return self._hit_list(self.branch_mnemonic)[1]

    def nth(self, mnemonic: str, n: int):
        """Dynamic index of the ``n``-th (1-based) retirement, or None."""
        hits = self.indices(mnemonic)
        if n < 1 or n > len(hits):
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
        index ``index`` (1-based), or None when the index is out of
        range."""
        if not 1 <= index <= len(self.pcs):
            return None
        addr = self.pcs[index - 1]
        return self._code[addr][0].mnemonic, addr


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
    #: traces (open fault windows, code reached the first time,
    #: near-timeout tails)
    superblock_deopt_steps: int = 0
    #: trials whose result was read off the golden run after they
    #: rejoined it at a probe (they count as simulated up to the probe)
    rejoined: int = 0
    #: instructions rejoined trials would have simulated after the probe
    saved_instructions: int = 0


@dataclass
class _CheckTable:
    """The golden run's CFI checks, one row per checking instruction."""

    #: dynamic index of the instruction (= golden retired count after it)
    index: array
    #: golden cycle count after it
    cycles: array
    #: golden console length after it
    console: array
    #: ``(birth, depth)`` of each checking frame: the dynamic index of the
    #: ``bl`` that opened it (0 for the entry frame) and its monitor
    #: call-stack depth.  Built by the first rejoin verdict that reads
    #: them (:func:`_frame_births`), so a workload none of whose trials
    #: rejoins with a changed monitor never pays for them.
    frames: tuple[array, array] | None = None


class TrialScheduler:
    """Runs fault trials against one workload by checkpoint forking.

    Threads: ``golden``, ``trace`` and the ladder never change after
    capture.  :meth:`run_trial` takes no lock and updates ``stats`` and
    ``last_trial_end``, so a caller that shares the scheduler holds
    ``lock`` around its trials and their reads, as
    :func:`~repro.faults.isa_campaign.run_trials` and
    :func:`~repro.faults.adversary.compose_space` do."""

    def __init__(
        self,
        program,
        function: str,
        args: list[int],
        spec=None,
    ):
        """``spec`` (a :class:`repro.spec.SpecConfig`) makes the golden run
        *and* every forked trial speculative: checkpoints carry predictor
        and transient-trace state, so a forked trial reconstructs the
        exact observable digest a full replay would produce.

        Golden capture runs its own loop over the reference semantics
        (:meth:`_capture_golden`), which logs the PC of every retirement.
        Trials run on trace-compiled CPUs that single-step only while a
        fault window is open (see the module docstring).

        The scheduler owns no CPU: golden capture and every trial borrow
        one from the program
        (:meth:`~repro.backend.driver.CompiledProgram.take_trial_cpu`) and
        restore a checkpoint onto it.  Restoring is exact for hooks that
        go through ``CPU.store()`` and for the bundled fault models; a
        hook that pokes ``cpu.memory`` directly must mark the page in
        ``cpu._dirty_pages``, as ``MemoryBitFlip`` does (every CPU tracks
        its dirty pages)."""
        self.program = program
        self.function = function
        self.args = list(args)
        self.spec = spec
        self.lock = _lock()  # serialises the callers that share it
        self.stats = SchedulerStats()
        #: Final ``cpu.dyn_index`` of the most recent trial — where its
        #: execution actually ended, including skipped instructions (which
        #: ``ExecutionResult.instructions`` excludes).  The multi-fault
        #: adversary layer prunes composite trials whose later faults are
        #: timed past this point: they provably cannot fire.
        self.last_trial_end: int | None = None
        #: Pages the most recent simulated trial left dirty on its CPU
        #: (None before the first): the ``repro_engine_dirty_pages`` gauge.
        self.last_trial_dirty_pages: int | None = None
        self._capture_golden()

    #: Workloads memoized per program; the LRU bound keeps argument sweeps
    #: (thousands of distinct (function, args) pairs, each scheduler
    #: holding its golden PC log and checkpoint ladder; CPUs belong to
    #: the program, the pristine memory to its image) from accumulating
    #: unboundedly.
    MEMO_SIZE = 8

    # ------------------------------------------------------------------
    @classmethod
    def for_program(cls, program, function, args, spec=None) -> "TrialScheduler":
        """The memoized scheduler for (program, function, args, spec):
        every attack suite against the same workload shares one golden
        run.  Safe from any thread: it holds the program's memo lock
        across lookup, golden capture and eviction, so threads that miss
        one workload together capture it once and share the scheduler."""
        key = (function, tuple(args), spec)
        memo = program._schedulers
        with memo.lock:
            scheduler = memo.pop(key, None)
            if scheduler is None:
                scheduler = cls(program, function, list(args), spec=spec)
            memo[key] = scheduler  # the most recently used comes last
            while len(memo) > cls.MEMO_SIZE:
                del memo[next(iter(memo))]
        return scheduler

    # ------------------------------------------------------------------
    def _capture_golden(self) -> None:
        """Run the golden execution once on the reference semantics, on a
        CPU borrowed from the program and set to the start snapshot with
        the workload's arguments.  Each step logs its PC, adds a row to
        the CFI-check table when it checked, and feeds the monitor; the
        ladder snapshots at the first trace entry at or after each
        interval mark, within :data:`LADDER_BYTES`.  A speculating CPU
        takes :meth:`CPU.step`, which retires ``Bcc`` through its
        SpecEngine (and feeds the monitor itself)."""
        from repro.target import get_target

        program = self.program
        image = program.image
        # The conditional-branch mnemonic is target vocabulary, not a
        # baseline constant (fused rv32 branches share "bcc" by design,
        # but a third-party target need not).
        branch_mn = get_target(image.target).branch_mnemonic
        cpu, start = program.take_trial_cpu(self.function, self.spec)
        cpu.restore(start)
        cpu.call(self.function, self.args)
        entries = trace_entries(cpu)
        decode = cpu._decode
        execute = cpu.execute
        step = cpu.step if self.spec is not None else None
        on_retire = cpu.monitor.on_retire if cpu.monitor is not None else None
        regs = cpu.regs
        events = cpu._cfi_events
        pcs = array("I")
        log = pcs.append
        checks = _CheckTable(array("I"), array("Q"), array("I"))
        CFI_CHECK = MMIO.CFI_CHECK
        RUNNING = Status.RUNNING
        checkpoints = [cpu.snapshot()]
        marks = [0]  # the interval mark each checkpoint was taken for
        held = _ladder_bytes(checkpoints[0])
        budget = LADDER_BYTES
        interval = DEFAULT_INTERVAL
        mark = interval
        while cpu.status is RUNNING:
            if cpu.cycles >= GOLDEN_MAX_CYCLES:
                cpu.status = Status.TIMEOUT
                break
            pc = regs[PC]
            if cpu.retired >= mark and pc in entries:
                # Trials fork and probe on this trace entry.
                snap = cpu.snapshot()
                checkpoints.append(snap)
                marks.append(mark)
                held += _ladder_bytes(snap)
                while held > budget and len(checkpoints) > 1:
                    # Thin every other checkpoint; future ones come at
                    # twice the spacing.
                    checkpoints = checkpoints[::2]
                    marks = marks[::2]
                    held = sum(map(_ladder_bytes, checkpoints))
                    interval *= 2
                mark = cpu.retired + interval
            entry = decode.get(pc)
            if entry is None:
                cpu.status = Status.DECODE_ERROR
                break
            log(pc)
            if step is not None:
                step()
            else:
                instr, width = entry
                cpu.dyn_index += 1
                events.clear()
                cpu._pending_pc = None
                execute(instr)
                cpu.retired += 1
                pending = cpu._pending_pc
                regs[PC] = pc + width if pending is None else pending
                if on_retire is not None:
                    on_retire(cpu, instr, events)
            if events:
                for event in events:
                    if event.addr == CFI_CHECK:
                        checks.index.append(cpu.dyn_index)
                        checks.cycles.append(cpu.cycles)
                        checks.console.append(len(cpu.console_chars))
                        break
        result = cpu.result()
        program.give_trial_cpu(self.function, self.spec, cpu)
        self.golden = result
        self.trace = GoldenTrace(result, pcs, image, branch_mnemonic=branch_mn)
        self.checkpoints = checkpoints
        self._checkpoint_retired = [snap.retired for snap in checkpoints]
        self._checkpoint_marks = marks
        self.stats.checkpoints = len(checkpoints)
        self.stats.interval = interval
        #: the golden CFI checks a rejoined trial's verdict is read from,
        #: or None when no trial may rejoin
        self._checks = (
            checks if self.spec is None and result.status is Status.EXIT else None
        )

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
        blocks0, steps0 = cpu._sb_blocks, cpu._sb_steps
        stats = self.stats
        verdict = None
        window = getattr(hook, "fire_window", None)
        if window is None:
            # Consulted before every instruction: the whole trial steps
            # on the reference path, and no probe decides it.
            cpu.pre_hooks.append(hook)
            cpu.run(max_cycles)
        else:
            if cpu.dyn_index < window[1]:
                # Traces up to the slot before the window, then the window
                # stepped with the hook consulted; the hook is attached
                # only while it is.  (The step loop checks the budget
                # first, as the chaining loop would.)
                if cpu.dyn_index < window[0] - 1:
                    chain(cpu, max_cycles, window[0] - 1)
                retired = cpu.retired
                cpu.pre_hooks.append(hook)
                cpu._run_reference(max_cycles, window[1])
                cpu.pre_hooks.clear()
                cpu._sb_steps += cpu.retired - retired
            for probe in self._probe(hook):
                chain(cpu, max_cycles, probe.dyn_index)
                if cpu.status is not Status.RUNNING:
                    break  # halted before the probe
                verdict = self._rejoin_verdict(cpu, probe, max_cycles)
                if verdict is not None:
                    stats.rejoined += 1
                    stats.saved_instructions += verdict[0].instructions - cpu.retired
                    break
            else:  # no probe decided the trial
                chain(cpu, max_cycles, NO_STOP)
        result, end = verdict or (cpu.result(), cpu.dyn_index)
        self.last_trial_end = end
        stats.forked += 1
        stats.simulated_instructions += cpu.retired - snap.retired
        stats.simulated_cycles += cpu.cycles - snap.cycles
        stats.superblock_blocks += cpu._sb_blocks - blocks0
        stats.superblock_deopt_steps += cpu._sb_steps - steps0
        self.last_trial_dirty_pages = len(cpu._dirty_pages)
        self.program.give_trial_cpu(self.function, self.spec, cpu)
        return result

    def _probe(self, hook) -> list[CpuSnapshot]:
        """The ladder checkpoints a trial with ``hook`` is compared at, in
        order: the first whose interval mark is at or after its fire
        window's end, and the one after it (fewer near the end of the
        ladder; none when no trial may rejoin).  Choosing by mark rather
        than by position keeps a fault that lands in the walk from a mark
        to its checkpoint from being compared a few instructions later,
        before its effects could die out."""
        window = getattr(hook, "fire_window", None)
        if window is None or self._checks is None:
            return []
        pos = bisect_left(self._checkpoint_marks, window[1])
        return self.checkpoints[pos : pos + 2]

    def _rejoin_verdict(
        self, cpu, probe: CpuSnapshot, max_cycles: int
    ) -> tuple[ExecutionResult, int] | None:
        """``(result, last_trial_end)`` of a trial paused at ``probe``
        whose state equals the golden checkpoint's except for the CFI
        monitor's state and stacked values; None when anything else
        differs or the verdict would reach ``max_cycles``."""
        if (
            cpu.regs != probe.regs
            or cpu.n != probe.n
            or cpu.z != probe.z
            or cpu.c != probe.c
            or cpu.v != probe.v
            or cpu.status is not probe.status
            or cpu.exit_code != probe.exit_code
            or cpu.detect_code != probe.detect_code
            or cpu.branch_invert
            or cpu.console_chars != probe.console
        ):
            return None
        memory, pristine, pages = cpu.memory, cpu._pristine, probe.pages
        for page in cpu._dirty_pages | pages.keys():
            offset = page << PAGE_BITS
            expected = pages.get(page)
            if expected is None:
                expected = pristine[offset : offset + PAGE_SIZE]
            if memory[offset : offset + PAGE_SIZE] != expected:
                return None
        deltas = []
        monitor = cpu.monitor
        if monitor is not None:
            state, stack = probe.monitor[0], probe.monitor[1]
            if len(monitor.call_stack) != len(stack):
                return None
            deltas = [a ^ b for a, b in zip(monitor.call_stack, stack)]
            deltas.append(monitor.state ^ state)
        cycles = cpu.cycles - probe.cycles
        retired = cpu.retired - probe.retired
        if any(deltas):
            checks = self._checks
            if checks.frames is None:
                checks.frames = _frame_births(checks, self.trace)
            births, depths = checks.frames
            for k in range(bisect_right(checks.index, probe.dyn_index), len(births)):
                if births[k] <= probe.dyn_index and deltas[depths[k]]:
                    end_cycles = checks.cycles[k] + cycles
                    if end_cycles >= max_cycles:
                        return None
                    index = checks.index[k]
                    return ExecutionResult(
                        status=Status.CFI_VIOLATION,
                        exit_code=cpu.exit_code,
                        cycles=end_cycles,
                        instructions=index + retired,
                        detect_code=cpu.detect_code,
                        console=self.golden.console[: checks.console[k]],
                    ), index
        golden = self.golden
        if golden.cycles + cycles >= max_cycles:
            return None
        return replace(
            golden,
            cycles=golden.cycles + cycles,
            instructions=golden.instructions + retired,
        ), golden.instructions

    def _fork_cpu(self, snap: CpuSnapshot):
        """A CPU borrowed from the program, in exactly the checkpoint's
        state, ready for one trial; the caller hands it back."""
        cpu, _ = self.program.take_trial_cpu(self.function, self.spec)
        cpu.restore(snap)
        return cpu


def _ladder_bytes(snap: CpuSnapshot) -> int:
    """What a checkpoint costs the ladder's budget: its page copies, and
    one page for its fixed parts."""
    return (len(snap.pages) + 1) << PAGE_BITS


def _frame_births(checks: _CheckTable, trace: GoldenTrace) -> tuple[array, array]:
    """``(birth, depth)`` of each check's frame (see ``_CheckTable.frames``),
    by replaying the golden run's calls and returns: the monitor pushes a
    frame at every ``bl`` and pops one at a ``bx`` while a caller is
    stacked."""
    calls, returns = trace.indices("bl"), trace.indices("bx")
    births, depths = array("I"), array("I")
    frames = [0]  # birth of each live frame; the entry frame's is 0
    c = r = 0
    for index in checks.index:
        while True:
            call = calls[c] if c < len(calls) else index
            ret = returns[r] if r < len(returns) else index
            if call < ret and call < index:
                frames.append(call)
                c += 1
            elif ret < index:
                if len(frames) > 1:
                    frames.pop()
                r += 1
            else:
                break
        births.append(frames[-1])
        depths.append(len(frames) - 1)
    return births, depths


@lru_cache(maxsize=None)
def _selector(number: int | None) -> bytes:
    """The ``bytes.translate`` table that maps byte ``number`` to 1 and
    every other byte to 0 (every byte, for None)."""
    return bytes(i == number for i in range(256))
