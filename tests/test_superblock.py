"""The trace-compiled trial engine's own contract: trace geometry, lazy
compilation, exact stops, deoptimisation boundaries, and observability.

:mod:`tests.test_engine_equivalence` proves the default engine
byte-identical to the reference oracle from the outside; this module pins
the *mechanism* — that traces actually close loops, that they compile
only when a trial reaches them with no fault window open, that a trace
pauses at exactly the ``dyn_index`` it is handed, that a trial forks,
runs traces up to its fault window, single-steps the window, fires, and
re-enters compiled dispatch, and that the engine's obs counters account
for exactly that.
"""

import pickle
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_differential_fuzz import _cfg_args_for_seed, cfg_source_for_seed

import repro.isa.cpu as cpu_module
import repro.isa.superblock as superblock
from repro.backend.driver import CompiledProgram
from repro.cfi.gpsa import entry_state, update
from repro.cfi.monitor import CfiMonitor
from repro.cfi.signatures import signature
from repro.faults.isa_campaign import run_attack
from repro.faults.models import (
    FlagFlip,
    FlagFlipAt,
    InstructionSkip,
    MemoryBitFlip,
    RegisterBitFlip,
    RepeatedFlagFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.isa import instructions as ins
from repro.isa.assembler import AsmBlock, AsmFunction, DataSegment, assemble
from repro.isa.cpu import CPU, PAGE_BITS, PAGE_SIZE, Status
from repro.isa.mmio import MMIO
from repro.isa.superblock import partition_image, superblock_tables
from repro.minic.driver import compile_source
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import EngineProfiler
from repro.programs import load_source
from repro.toolchain import CompileConfig


def _program(name="memcmp", scheme="ancode"):
    return compile_source(load_source(name), config=CompileConfig(scheme=scheme))


def _state(cpu):
    """Everything a paused CPU's future depends on, and its counters."""
    pages = sorted(cpu._dirty_pages)
    return {
        "regs": list(cpu.regs),
        "nzcv": (cpu.n, cpu.z, cpu.c, cpu.v),
        "status": cpu.status,
        "codes": (cpu.exit_code, cpu.detect_code),
        "console": list(cpu.console_chars),
        "counts": (cpu.cycles, cpu.retired, cpu.dyn_index),
        "monitor": cpu.monitor.snapshot_state() if cpu.monitor else None,
        "branch_invert": cpu.branch_invert,
        "pages": pages,
        "bytes": [
            bytes(cpu.memory[p << PAGE_BITS : (p + 1) << PAGE_BITS]) for p in pages
        ],
    }


def _replay(program, function, args, model, dispatch):
    """A fresh full replay of one trial, no checkpoint, no traces."""
    cpu = program.prepare_cpu(
        function, args, pre_hooks=[model.hook()], dispatch=dispatch
    )
    return cpu.run(2_000_000)


def _compiled(program):
    """Start addresses of every trace compiled on the image so far,
    partition entries and suffixes."""
    cache = program.image._superblock_cache or {}
    return {
        addr
        for value in cache.values()
        if isinstance(value, superblock._Variant)
        for addr in value.traces
    }


def _unrejoinable(program, occurrence):
    """A fault that can never rejoin the golden run: a flipped bit in
    the last compared byte of a buffer memcmp only reads stays flipped
    (and changes the comparison's result)."""
    return MemoryBitFlip(program.image.data_addrs["cmp_b"] + 15, 0, occurrence)


class _WideWindow:
    """A fault that never fires but keeps its window open past the end
    of any run: the trial single-steps from fork to halt."""

    def hook(self):
        def pre(cpu, instr):
            return False

        pre.fire_window = (1, 1 << 40)
        return pre


# ---------------------------------------------------------------------------
# Trace geometry
# ---------------------------------------------------------------------------
class TestPartition:
    def test_traces_close_loops(self):
        # memcmp's compare loop must become a looping trace (a back edge
        # to its own entry), not a chain of single-pass fragments — that
        # closure is where the engine's speedup lives.
        program = _program()
        partition = partition_image(program.image, traces=True)
        looping = [b for b in partition.blocks if b.loop or b.fall_loop]
        assert looping, "no looping trace found in a loop-heavy program"

    def test_basic_blocks_never_follow_branches(self):
        # The speculative variant partitions at every control transfer:
        # no loop closure, no followed Bcc arms.
        program = _program()
        partition = partition_image(program.image, traces=False)
        for block in partition.blocks:
            assert not block.loop and not block.fall_loop
            assert not block.taken

    def test_loop_trace_entered_under_a_stop_pauses_exactly_mid_pass(self):
        # Forked at a golden checkpoint on a loop trace's entry, a stop
        # anywhere in the next three passes is reached by that one trace
        # call: no single step, and exactly the reference interpreter's
        # state at the stop, mid-pass and past the first back edge.
        program = _program()
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        loops = {b.addr: b for b in partition_image(program.image).blocks if b.loop}
        forks = [snap for snap in scheduler.checkpoints if snap.regs[15] in loops]
        assert forks, "no checkpoint sits on a loop trace"
        snap = forks[len(forks) // 2]
        passes = 3 * (len(loops[snap.regs[15]].body) + 1)
        superblock_tables(
            program.prepare_cpu("run_memcmp", [16], dispatch="superblock"),
            snap.regs[15],
        )
        reference = program.prepare_cpu("run_memcmp", [16], dispatch="reference")
        reference.restore(snap)
        mid_pass = 0
        for stop in range(snap.dyn_index + 1, snap.dyn_index + passes):
            reference.run(2_000_000, stop_at_instruction=stop)
            if reference.status is not Status.RUNNING:
                break
            cpu = program.prepare_cpu("run_memcmp", [16], dispatch="superblock")
            cpu.restore(snap)
            cpu.run(2_000_000, stop_at_instruction=stop)
            assert _state(cpu) == _state(reference), stop
            assert (cpu._sb_blocks, cpu._sb_steps) == (1, 0), stop
            mid_pass += cpu.regs[15] not in loops
        assert mid_pass > passes // 2

    def test_table_cache_is_not_pickled(self):
        # The compiled trace table holds exec'd functions; the image must
        # travel to executor workers without it and rebuild lazily.
        program = _program()
        cpu = program.prepare_cpu("run_memcmp", [8], dispatch="superblock")
        superblock_tables(cpu)
        assert program.image._superblock_cache
        clone = pickle.loads(pickle.dumps(program.image))
        assert clone._superblock_cache is None
        # and the clone still runs (rebuilding its own cache)
        result = program.run("run_memcmp", [8], dispatch="superblock")
        assert result.ok


# ---------------------------------------------------------------------------
# Lazy compilation
# ---------------------------------------------------------------------------
class TestLazyCompile:
    def test_golden_capture_compiles_nothing(self):
        # Golden capture steps the reference semantics and only builds the
        # partition, to put its checkpoints on trace entries; a trial
        # that halts while its window is still open single-steps to the
        # end.  Neither compiles a trace.
        program = _program()
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        entries = program.image._superblock_cache["traces"].entries
        assert all(snap.regs[15] in entries for snap in scheduler.checkpoints)
        result = scheduler.run_trial(_WideWindow())
        assert result == scheduler.golden
        assert not _compiled(program)

    def test_traces_compile_at_their_second_reach(self):
        # The first run to reach a trace entry single-steps on from it;
        # the second compiles the traces and, with a stop and no hooks,
        # pauses inside one.  (The stop lies before memcmp's loop, whose
        # head a single run would reach twice.)
        program = _program()

        def run():
            cpu = program.prepare_cpu("run_memcmp", [16], dispatch="superblock")
            cpu.run(2_000_000, stop_at_instruction=40)
            assert cpu.dyn_index == 40
            return cpu._sb_blocks, cpu._sb_steps

        assert run() == (0, 40)
        assert not _compiled(program)
        assert run() == (2, 0)
        assert len(_compiled(program)) == 2

    def test_nothing_compiles_while_the_window_is_open(self, monkeypatch):
        # Traces compile on demand before the fault window and after it,
        # never while it is open (the window is single-stepped).  A trial
        # attaches its hook only while it steps the window, so no hook is
        # attached while traces compile.
        program = _program()
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        at_compile = []
        real = superblock.superblock_tables
        window = []

        def spy(cpu, entry=None):
            assert not cpu.pre_hooks, "a hook is attached outside its window"
            (lo, hi), = window
            at_compile.append((lo, cpu.dyn_index, hi))
            return real(cpu, entry)

        monkeypatch.setattr(superblock, "superblock_tables", spy)
        total = scheduler.golden.instructions
        for index in range(1, total + 1, 5):
            model = InstructionSkip(index)
            window[:] = [model.forked_hook(scheduler.trace).fire_window]
            scheduler.run_trial(model)
        assert at_compile, "no trace was ever compiled"
        assert all(d < lo - 1 or d >= hi for lo, d, hi in at_compile), at_compile
        assert any(d < lo - 1 for lo, d, hi in at_compile)
        # Only the traces some trial reached got compiled: some of the
        # partition's entries, and suffixes where faults left the PC.
        entries = superblock.partition_image(program.image, traces=True).entries
        compiled = _compiled(program)
        assert 0 < len(compiled & entries.keys()) < len(entries)
        assert compiled - entries.keys(), "no suffix trace was compiled"

    def test_reference_oracle_catches_a_planted_lazy_trace_bug(
        self, monkeypatch
    ):
        # The oracle still covers compile-on-demand: charge one extra
        # cycle in the first trace a campaign compiles, and the per-trial
        # comparison against the reference interpreter must fail.
        program = _program()
        real = superblock._compile_trace
        planted = []

        def buggy(block, *args):
            function, worst = real(block, *args)
            if planted:
                return function, worst
            planted.append(block.addr)

            def charged(cpu, regs, max_cycles, stop):
                pc = function(cpu, regs, max_cycles, stop)
                cpu.cycles += 1
                return pc

            return charged, worst

        monkeypatch.setattr(superblock, "_compile_trace", buggy)
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        diverged = []
        for index in range(1, total + 1, 9):
            model = InstructionSkip(index)
            forked = scheduler.run_trial(model)
            oracle = _replay(program, "run_memcmp", [16], model, "reference")
            if forked != oracle:
                diverged.append((index, forked.cycles - oracle.cycles))
        assert planted, "no trace was compiled"
        assert diverged, "the reference oracle missed the planted bug"


# ---------------------------------------------------------------------------
# Exact stops, by generation
# ---------------------------------------------------------------------------
#: (name, scheme, target): memcmp under every Table III scheme and the
#: CFG-fuzzer skeletons, on both targets
_STOP_PROGRAMS = [
    ("memcmp", scheme, target)
    for scheme in ("none", "duplication", "ancode")
    for target in ("baseline", "rv32")
] + [
    (f"cfg{seed}", scheme, target)
    for seed in range(10)
    for scheme in ("none", "ancode")
    for target in ("baseline", "rv32")
]


@lru_cache(maxsize=None)
def _stop_workload(name, scheme, target):
    """``(program, function, args, golden instructions)``."""
    config = CompileConfig(scheme=scheme, target=target)
    if name == "memcmp":
        program, function, args = (
            compile_source(load_source("memcmp"), config=config), "run_memcmp", [16]
        )
    else:
        seed = int(name[3:])
        program = compile_source(cfg_source_for_seed(seed), config=config)
        function, args = "f", _cfg_args_for_seed(seed)
    golden = program.run(function, args)
    return program, function, tuple(args), golden.instructions


@st.composite
def _windowed_faults(draw, total):
    index = draw(st.integers(1, total))
    kind = draw(st.sampled_from(["skip", "reg", "flag", "mem"]))
    if kind == "skip":
        return InstructionSkip(index)
    if kind == "reg":
        return RegisterBitFlip(draw(st.integers(0, 14)), draw(st.integers(0, 31)), index)
    if kind == "flag":
        return FlagFlipAt(draw(st.sampled_from("nzcv")), index)
    # a byte of the stack frames the programs push and pop
    addr = 0x100000 - draw(st.integers(1, 256))
    return MemoryBitFlip(addr, draw(st.integers(0, 7)), index)


class TestStopExactness:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_superblock_pauses_in_the_reference_state(self, data):
        # A windowed fault, then a stop at or past the window's end: the
        # superblock CPU pauses (or halts, or times out) in exactly the
        # reference step loop's state, under a budget that leaves the
        # stop reachable and under budgets that end exactly at it.
        name, scheme, target = data.draw(st.sampled_from(_STOP_PROGRAMS))
        program, function, args, total = _stop_workload(name, scheme, target)
        model = data.draw(_windowed_faults(total))
        hi = model.hook().fire_window[1]
        stop = hi + data.draw(st.integers(0, total))

        def run(dispatch, budget):
            cpu = program.prepare_cpu(
                function, list(args), pre_hooks=[model.hook()], dispatch=dispatch
            )
            return cpu.run(budget, stop_at_instruction=stop), _state(cpu)

        budgets = [2_000_000]
        paused, _ = run("reference", budgets[0])
        if paused.status is Status.RUNNING:
            budgets += [paused.cycles, paused.cycles + 1]
        for budget in budgets:
            assert run("superblock", budget) == run("reference", budget), (
                name, scheme, target, model, stop, budget
            )


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_warm_suffix_traces_pause_in_the_reference_state(self, data):
        # Forked at a random slot, usually mid-trace (where a fault or a
        # stop leaves the PC), a run enters the suffix trace that starts
        # there.  A first run from the fork reaches that code once and
        # single-steps it; every later run enters the compiled suffix.
        # Paused at each of the next slots and run to the end, those runs
        # equal the reference loop.
        name, scheme, target = data.draw(st.sampled_from(_STOP_PROGRAMS))
        program, function, args, total = _stop_workload(name, scheme, target)
        fork = data.draw(st.integers(1, total - 1))

        def fresh(dispatch):
            return program.prepare_cpu(function, list(args), dispatch=dispatch)

        def forked(dispatch):
            cpu = fresh(dispatch)
            cpu.restore(snap)
            return cpu

        reference = fresh("reference")
        reference.run(2_000_000, stop_at_instruction=fork)
        snap = reference.snapshot()
        forked("superblock").run(2_000_000)  # the first reach
        for stop in [*range(fork + 1, min(fork + 40, total) + 1), None]:
            reference.run(2_000_000, stop_at_instruction=stop)
            cpu = forked("superblock")
            cpu.run(2_000_000, stop_at_instruction=stop)
            assert _state(cpu) == _state(reference), (name, scheme, target, fork, stop)
        variant = cpu._sb_variant
        assert snap.regs[15] in variant.traces or snap.regs[15] in variant.cold

    @pytest.mark.parametrize("target", ["baseline", "rv32"])
    def test_every_stop_of_a_run_pauses_in_the_reference_state(self, target):
        # Each dyn_index of a whole memcmp/ancode run as the stop, on
        # compiled traces: every pause equals the reference loop stepped
        # to the same slot.  Random stops rarely land just after the one
        # pass of a trace with a dynamic-cost udiv; this sweep hits them
        # all.
        program, function, args, total = _stop_workload("memcmp", "ancode", target)
        reference = program.prepare_cpu(function, list(args), dispatch="reference")
        for stop in range(1, total + 1):
            reference.run(2_000_000, stop_at_instruction=stop)
            cpu = program.prepare_cpu(function, list(args), dispatch="superblock")
            cpu.run(2_000_000, stop_at_instruction=stop)
            assert _state(cpu) == _state(reference), stop


# ---------------------------------------------------------------------------
# Trace kernels by generation
# ---------------------------------------------------------------------------
#: RAM sizes of the generated kernels: 16 pages keep a CPU cheap and its
#: last word in reach, and a size that is not a multiple of 4 has no word
#: view, so every access of its traces takes the slow path.
_KERNEL_RAMS = (16 * PAGE_SIZE, 16 * PAGE_SIZE + 2)
#: registers generated instructions compute in; r8 (a data pointer a
#: ``fixed`` step may move on), r9 (the last RAM word, or an MMIO
#: register), r10 (a data pointer) and r11 (the loop counter) are not
_WORK = (0, 1, 2, 3, 4, 5, 6, 7, 12)
_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]),
    st.integers(0, 0xFFFFFFFF),
)
#: all ten conditions, the four a pending add/sub/cmp decides from its
#: sum first (Hypothesis draws early elements more often)
_SUM_CONDITIONS = ("hs", "lo", "eq", "ne")
_CONDITIONS = _SUM_CONDITIONS + tuple(
    cond for cond in ins.CONDITIONS if cond not in _SUM_CONDITIONS
)
#: the bytes below the kernels' data pointers (the stack starts out
#: zero; the first and the last RAM word hold _ENDS)
_PATTERN = bytes(range(256)) * 52
_ENDS = bytes.fromhex("5aa50ff0c33c9669")
#: instruction kinds of the generated kernels (a kind listed twice is
#: drawn twice as often)
_KINDS = ["flags", "cmp", "mem"] * 3 + ["nz", "fixed"] * 2 + [
    "carry", "end", "push", "pop", "div"]
#: kernels built mostly of words off fixed bases: no push or pop, so the
#: stack pointer is one of them
_FIXED_KINDS = ["fixed"] * 6 + ["flags", "cmp", "mem", "nz", "carry", "end"]


@st.composite
def _kernel_instr(draw, branches=True, kinds=tuple(_KINDS)):
    """One instruction of a generated trace kernel; a side exit comes
    with the flag producer it tests."""
    work = st.sampled_from(_WORK)
    # sources include the pointers and the loop counter, whose small
    # values put compares on the carry boundary
    read = st.sampled_from(_WORK + (8, 9, 10, 11))
    imm = st.one_of(st.integers(0, 7), st.integers(0, 300))
    kind = draw(st.sampled_from(list(kinds) + ["bcc"] * 3 * branches))
    if kind == "bcc":  # a side exit, after a flag producer or not
        cond = draw(st.sampled_from(_CONDITIONS))
        producer = draw(st.sampled_from(["none", "any", "bound"]))
        if producer == "bound":
            # the counter against a bound, the exit back to the loop
            # head: the compare crosses the carry boundary as it counts
            return [ins.CmpImm(11, draw(st.integers(1, 3))), ins.Bcc(cond, "again")]
        exit_ = ins.Bcc(cond, draw(st.sampled_from(["out", "again"])))
        if producer == "none":
            return [exit_]
        return [draw(_kernel_instr(False, kinds).filter(_sets_flags))[0], exit_]
    if kind == "flags":  # S-bit add/sub: NZCV left pending
        op = draw(st.sampled_from(["add", "sub", "rsb"]))
        if draw(st.booleans()):
            return [ins.AluImm(op, draw(work), draw(read), draw(imm), s=True)]
        return [ins.Alu(op, draw(work), draw(read), draw(read), s=True)]
    if kind == "carry":  # reads the (possibly pending) carry
        op = draw(st.sampled_from(["adc", "sbc"]))
        return [ins.Alu(op, draw(work), draw(read), draw(read), s=draw(st.booleans()))]
    if kind == "nz":  # sets N and Z, keeps C and V
        op = draw(st.sampled_from(["and", "orr", "eor", "bic", "movs", "mvn", "lsl"]))
        if op == "movs":
            return [ins.MovImm(draw(work), draw(st.sampled_from([0, 1, 255])))]
        if op == "mvn":
            return [ins.Mvn(draw(work), draw(read))]
        if op == "lsl":
            return [ins.ShiftImm(op, draw(work), draw(read), draw(st.integers(0, 31)))]
        return [ins.Alu(op, draw(work), draw(read), draw(read), s=True)]
    if kind == "cmp":
        if draw(st.booleans()):
            return [ins.CmpImm(draw(read), draw(imm))]
        return [ins.CmpReg(draw(read), draw(read))]
    if kind == "mem":
        size = draw(st.sampled_from([1, 2, 4]))
        load = draw(st.booleans())
        if draw(st.booleans()):
            # data pointer + counter: the alignment changes every pass
            cls = ins.LdrReg if load else ins.StrReg
            return [cls(draw(work), 10, 11, size=size)]
        cls = ins.LdrImm if load else ins.StrImm
        return [cls(draw(work), 10, draw(st.integers(0, 7)), size=size)]
    if kind == "fixed":
        # A word at an aligned offset, below or above its base: off the
        # stack pointer, the last RAM word (or MMIO), a data pointer, or
        # a pointer the trace moves on after the access (a base it writes)
        base = draw(st.sampled_from([13, 9, 10, 8]))
        cls = ins.LdrImm if draw(st.booleans()) else ins.StrImm
        step = [cls(draw(work), base, 4 * draw(st.integers(-3, 3)))]
        if base == 8 and draw(st.booleans()):
            step.append(ins.AluImm("add", 8, 8, 4))
        return step
    if kind == "end":  # the last RAM word, straddling the end, one past it
        cls = ins.LdrImm if draw(st.booleans()) else ins.StrImm
        return [cls(draw(work), 9, draw(st.sampled_from([0, 0, 2, 4])), size=4)]
    if kind in ("push", "pop"):
        pool = _WORK + (14,) if kind == "push" else _WORK
        regs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                             unique=True))
        return [(ins.Push if kind == "push" else ins.Pop)(tuple(sorted(regs)))]
    cls = ins.Udiv if draw(st.booleans()) else ins.Sdiv
    return [cls(draw(work), draw(read), draw(read))]


def _sets_flags(step) -> bool:
    instr = step[0]
    return getattr(instr, "s", True) and not isinstance(
        instr, (ins.LdrImm, ins.LdrReg, ins.StrImm, ins.StrReg, ins.Push,
                ins.Pop, ins.Udiv, ins.Sdiv)
    )


def _flat(steps) -> list:
    return [instr for step in steps for instr in step]


@st.composite
def _kernels(draw, kinds=tuple(_KINDS)):
    """``(image, memory size, registers, NZCV)`` of a counted loop over a
    generated body, its exit test at the bottom (a ``Bcc`` back edge with
    NZCV pending) or at the top (a ``B`` back edge).  Side exits leave the
    loop or jump back to its head."""
    body = _flat(draw(st.lists(_kernel_instr(True, kinds), min_size=1, max_size=12)))
    count = ins.AluImm("sub", 11, 11, 1)
    if draw(st.booleans()):
        loop = [count, *body, ins.CmpImm(11, 0), ins.Bcc("ne", "loop")]
    else:
        loop = [ins.CmpImm(11, 0), ins.Bcc("eq", "out"), count, *body, ins.B("loop")]
    head = _flat(draw(st.lists(_kernel_instr(False, kinds), min_size=1, max_size=3)))
    tail = _flat(draw(st.lists(_kernel_instr(False, kinds), max_size=3)))
    image = assemble([AsmFunction("f", [
        AsmBlock("f", head), AsmBlock("loop", loop),
        AsmBlock("out", tail + [ins.BxLr()]),
        AsmBlock("again", [ins.CmpImm(11, 0), ins.Bcc("eq", "out"), ins.B("loop")]),
    ])])
    ram = draw(st.sampled_from(_KERNEL_RAMS))
    regs = dict(zip(_WORK, draw(st.lists(_VALUES, min_size=9, max_size=9))))
    # r8 may sit near 0, where a negative offset wraps into MMIO
    regs[8] = draw(st.sampled_from([0, 2, 5, 12])) * PAGE_SIZE + draw(st.integers(4, 12))
    regs[9] = draw(st.sampled_from([ram - 4, MMIO.CFI_MERGE]))
    regs[10] = draw(st.integers(2, 14)) * PAGE_SIZE - draw(st.integers(0, 8))
    regs[11] = draw(st.integers(3, 6))
    # an aligned or unaligned stack pointer, mid-RAM or at its very end
    regs[13] = draw(st.sampled_from([8 * PAGE_SIZE, ram - 8])) + draw(st.integers(0, 3))
    nzcv = draw(st.tuples(*[st.integers(0, 1)] * 4))
    return image, ram, regs, nzcv


def _kernel_cpu(kernel, dispatch, monitor=False):
    image, ram, regs, nzcv = kernel
    # RAM is MEM_SIZE bytes, read when the image's first CPU is built.
    with mock.patch.object(cpu_module, "MEM_SIZE", ram):
        cpu = CPU(image, dispatch=dispatch)
    assert len(cpu.memory) == ram
    assert len(cpu._words) == (0 if ram % 4 else ram >> 2)
    cpu.memory[PAGE_SIZE : PAGE_SIZE + len(_PATTERN)] = _PATTERN
    cpu.memory[:4], cpu.memory[ram - 4 :] = _ENDS[:4], _ENDS[4:]
    cpu.call("f")
    if monitor:
        CfiMonitor(cpu, "f")
    for reg, value in regs.items():
        cpu.regs[reg] = value
    cpu.n, cpu.z, cpu.c, cpu.v = nzcv
    return cpu


def _every_stop_pauses_in_the_reference_state(kernel, monitor=False):
    """Compare a trace-compiled run paused at each ``dyn_index`` with
    the reference paused there; returns the reference's end."""
    budget = 100_000
    end = _kernel_cpu(kernel, "reference", monitor)
    end.run(budget)
    reference = _kernel_cpu(kernel, "reference", monitor)
    for stop in range(1, end.dyn_index + 1):
        reference.run(budget, stop_at_instruction=stop)
        cpu = _kernel_cpu(kernel, "superblock", monitor)
        cpu.run(budget, stop_at_instruction=stop)
        assert _state(cpu) == _state(reference), (stop, kernel[0].listing())
    if end.dyn_index > 2:
        assert cpu._sb_blocks, "no compiled trace ran"
    return end


def _word_program():
    """A hand-assembled loop whose trace loads a word, adds it to r0 and
    stores the running sum after it, 24 passes: ``f() = 24 * buf[0]``."""
    loop = [
        ins.LdrImm(1, 10, 0),
        ins.Alu("add", 0, 0, 1, s=True),
        ins.StrImm(0, 10, 4),
        ins.AluImm("sub", 11, 11, 1, s=True),
        ins.Bcc("ne", "loop"),
    ]
    image = assemble(
        [AsmFunction("f", [
            AsmBlock("f", [ins.LdrLit(10, "buf"), ins.MovImm(0, 0),
                           ins.MovImm(11, 24)]),
            AsmBlock("loop", loop),
            AsmBlock("out", [ins.BxLr()]),
        ])],
        data=[DataSegment("buf", 8, (0x01020304).to_bytes(4, "little"))],
    )
    return CompiledProgram(image, [], None, "none", False)


class TestTraceKernels:
    @given(kernel=_kernels())
    @settings(max_examples=300, deadline=None)
    def test_every_stop_of_a_generated_kernel_pauses_in_the_reference_state(
        self, kernel
    ):
        # Hand-assembled kernels mix what the MiniC backend emits and what
        # it never does (adc/sbc reading a pending carry, every Bcc
        # condition on every flag producer, unaligned and out-of-range
        # words, push/pop at an unaligned or end-of-RAM stack pointer,
        # divisions by zero): with each dyn_index as the stop, compiled
        # traces pause in exactly the reference interpreter's state.
        _every_stop_pauses_in_the_reference_state(kernel)

    @given(kernel=_kernels(tuple(_FIXED_KINDS)))
    @settings(max_examples=200, deadline=None)
    def test_every_stop_of_a_fixed_base_kernel_pauses_in_the_reference_state(
        self, kernel
    ):
        # Word loads and stores at negative and positive offsets off bases
        # a trace never writes — an aligned or misaligned stack pointer,
        # the last RAM word or an MMIO register, a data pointer — and off a
        # pointer the trace moves on after the access, which it must not
        # fix: every stop pauses in the reference state, the dirty pages
        # of the stores and their bytes included.
        _every_stop_pauses_in_the_reference_state(kernel)

    @pytest.mark.parametrize(
        "base", [8, 4, 9, 16 * PAGE_SIZE - 12, 16 * PAGE_SIZE - 8]
    )
    def test_fixed_base_guard_ends_exactly_at_the_ends_of_ram(self, base):
        # A loop trace's words at -8 and +8 off a fixed base: the guard
        # admits the base whose lowest word is RAM word 0 (8) or whose
        # highest is the last RAM word (16 pages - 12), and nothing one
        # word further.  Below 0 the address wraps into MMIO (4), past the
        # end it is out of range (16 pages - 8), and a misaligned base (9)
        # takes the general path too.
        loop = [
            ins.LdrImm(0, 8, -8), ins.LdrImm(1, 8, 8),
            ins.StrImm(1, 8, -8), ins.StrImm(0, 8, 8),
            ins.AluImm("sub", 11, 11, 1, s=True), ins.Bcc("ne", "loop"),
        ]
        image = assemble([AsmFunction("f", [
            AsmBlock("f", [ins.MovImm(0, 0)]), AsmBlock("loop", loop),
            AsmBlock("out", [ins.BxLr()]),
        ])])
        kernel = (image, 16 * PAGE_SIZE, {8: base, 11: 4}, (0, 0, 0, 0))
        _every_stop_pauses_in_the_reference_state(kernel)

    def test_fixed_bases_are_the_unwritten_bases_that_pay(self):
        # A base is served through a prologue guard only when the trace
        # never writes it (r8 moves on, r13 is popped), it has a word
        # load (r9, a store-only MMIO base, has none), and it has two
        # accesses or sits in a loop trace.  Unaligned and halfword
        # offsets do not count.
        def steps(*instrs):
            return [(4 * i, instr, 4) for i, instr in enumerate(instrs)]

        body = steps(
            ins.LdrImm(0, 8, 0), ins.AluImm("add", 8, 8, 4),
            ins.LdrImm(1, 13, -4), ins.StrImm(2, 13, 8), ins.LdrImm(3, 13, 2),
            ins.LdrImm(3, 10, 12, size=2), ins.LdrImm(4, 10, 4),
            ins.StrImm(3, 9, 16), ins.StrImm(3, 9, 16),
        )
        fixed = superblock._fixed_bases
        assert fixed(body, loop=True) == {13: (-4, 8), 10: (4, 4)}
        assert fixed(body, loop=False) == {13: (-4, 8)}
        assert fixed(body + steps(ins.Pop((4,))), loop=True) == {10: (4, 4)}

    @given(kernel=_kernels(tuple(_FIXED_KINDS)))
    @settings(max_examples=100, deadline=None)
    def test_every_stop_of_a_monitored_fixed_base_kernel_pauses_like_the_reference(
        self, kernel
    ):
        # Under a CFI monitor a base only stored through, at aligned word
        # offsets, is served through prologue flags.  r9 sits at the CFI
        # unit's merge register, so its offsets reach the check register,
        # the console, the detect register and unmapped MMIO words, or at
        # the last RAM word; r8 may move on after its store.
        _every_stop_pauses_in_the_reference_state(kernel, monitor=True)

    @pytest.mark.parametrize(
        "case", ["merge", "check-pass", "check-fail", "ram", "console", "moving"]
    )
    def test_store_only_bases_under_a_monitor_pause_in_the_reference_state(
        self, case
    ):
        # r9 (r8 where it moves on) is only stored through, so a trace
        # with a monitor tests once in its prologue which CFI register
        # each offset is.  A loop merges r0 and r1 off it at the merge
        # register, or at a RAM word, or at the console; a straight line
        # checks r1 and r2 off it at the check register, with values the
        # monitor expects or not; a base moved on by 4 each pass stores
        # to an unmapped word, then merges, then checks (and fails), so
        # a trace entered at the merge pass must not keep serving it as
        # a merge.  Every stop pauses in the reference state.
        ram = 16 * PAGE_SIZE
        if case in ("check-pass", "check-fail"):
            body = [ins.StrImm(1, 9, 20), ins.StrImm(2, 9, 20)]
            state = entry_state("f")
            values = []
            for instr in body:
                state = update(state, signature(instr))
                values.append(state)
            if case == "check-fail":
                values[1] ^= 1
            blocks = [AsmBlock("f", body + [ins.BxLr()])]
            regs = {1: values[0], 2: values[1], 9: MMIO.CFI_CHECK - 20}
        else:
            base = 8 if case == "moving" else 9
            loop = [ins.StrImm(0, base, 16), ins.AluImm("add", 0, 0, 3),
                    ins.StrImm(1, base, 16)]
            if case == "moving":
                loop.append(ins.AluImm("add", 8, 8, 4))
            loop += [ins.AluImm("sub", 11, 11, 1, s=True), ins.Bcc("ne", "loop")]
            blocks = [AsmBlock("f", [ins.MovImm(0, 65)]), AsmBlock("loop", loop),
                      AsmBlock("out", [ins.BxLr()])]
            at = {"ram": ram - 24, "console": MMIO.CONSOLE - 16,
                  "moving": MMIO.CFI_MERGE - 20}
            regs = {1: 66, 11: 4, base: at.get(case, MMIO.CFI_MERGE - 16)}
        kernel = (assemble([AsmFunction("f", blocks)]), ram, regs, (0, 0, 0, 0))
        end = _every_stop_pauses_in_the_reference_state(kernel, monitor=True)
        monitor = end.monitor
        expected = {
            "merge": (Status.EXIT, 0, 0),
            "check-pass": (Status.EXIT, 0, 2),
            "check-fail": (Status.CFI_VIOLATION, 1, 1),
            "ram": (Status.EXIT, 0, 0),
            "console": (Status.EXIT, 0, 0),
            "moving": (Status.CFI_VIOLATION, 1, 0),
        }[case]
        assert (end.status, monitor.violations, monitor.checks_passed) == expected
        if case == "console":
            assert "".join(end.console_chars) == "ABDBGBJB"

    def test_mmio_bases_are_the_unwritten_store_only_bases_that_pay(self):
        # A base is served through CFI flags when the trace never writes
        # it and only stores words off it at aligned immediate offsets,
        # two of them or one in a loop trace: r9 and r12 here.  r8 moves
        # on, r10 has a load, r11 a byte store, r13 an unaligned store,
        # and r7 a register offset.
        def steps(*instrs):
            return [(4 * i, instr, 4) for i, instr in enumerate(instrs)]

        body = steps(
            ins.StrImm(0, 9, 16), ins.StrImm(1, 9, 20), ins.StrImm(1, 9, -4),
            ins.StrImm(0, 8, 16), ins.AluImm("add", 8, 8, 4),
            ins.StrImm(0, 10, 16), ins.LdrImm(0, 10, 4),
            ins.StrImm(0, 11, 16), ins.StrImm(0, 11, 20, size=1),
            ins.StrImm(0, 13, 16), ins.StrImm(0, 13, 18),
            ins.StrImm(0, 12, 8), ins.StrReg(0, 7, 1),
        )
        mmio = superblock._mmio_bases
        assert mmio(body, loop=True) == {9: [-4, 16, 20], 12: [8]}
        assert mmio(body, loop=False) == {9: [-4, 16, 20]}
        assert mmio(body + steps(ins.MovImm(9, 0)), loop=True) == {12: [8]}

    def test_word_view_aliases_memory_across_restores_and_scrubs(self):
        # Compiled traces load words through a view of cpu.memory made
        # once per CPU.  After a restore onto the CPU that ran on past the
        # snapshot, onto a fresh CPU, and a trial scheduler's restores of
        # its checkpoints, a bit poked into the loaded word shows in the
        # loop trace's next load exactly as in the reference.
        program = _word_program()
        buf = program.image.data_addrs["buf"]
        budget = 100_000
        ran = program.prepare_cpu("f", dispatch="superblock")
        ran.run(budget, stop_at_instruction=40)  # compiles the loop trace
        snap = ran.snapshot()
        assert ran.run(budget).ok
        for cpu in (ran, program.prepare_cpu("f", dispatch="superblock")):
            cpu.restore(snap)
            model = MemoryBitFlip(buf + 1, 3, 61)
            cpu.pre_hooks.append(model.hook())
            steps = cpu._sb_steps
            assert cpu.run(budget) == _replay(program, "f", [], model, "reference")
            assert cpu._sb_steps - steps < 10, "the loads after the poke ran stepped"
        scheduler = TrialScheduler(program, "f", [])
        for bit, occurrence in ((0, 30), (5, 70), (7, 90)):
            model = MemoryBitFlip(buf + 2, bit, occurrence)
            result = scheduler.run_trial(model)
            assert result == _replay(program, "f", [], model, "reference")
            assert result.exit_code != 24 * 0x01020304


# ---------------------------------------------------------------------------
# Deoptimisation boundaries
# ---------------------------------------------------------------------------
class TestDeoptBoundary:
    def test_fork_deopt_fire_reenter(self):
        # The canonical trial shape: fork from a checkpoint, single-step
        # while the fault window is open, fire, then re-enter compiled
        # dispatch for the suffix.  The full ExecutionResult — cycles
        # included — must equal a fresh full replay on the reference step
        # loop and the reference engine's, and the stats must show both
        # compiled blocks *and* deopt steps.  The fault cannot rejoin
        # the golden run, so the trial simulates its whole suffix.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        stats = scheduler.stats
        model = _unrejoinable(program, scheduler.golden.instructions // 2)
        blocks0 = stats.superblock_blocks
        steps0 = stats.superblock_deopt_steps
        rejoined0 = stats.rejoined
        result = scheduler.run_trial(model)

        assert result == _replay(program, "run_memcmp", [16], model, "reference")
        reference = run_attack(
            program, "run_memcmp", [16], [model], engine="reference",
            record_trials=True,
        )
        forked = run_attack(
            program, "run_memcmp", [16], [model], record_trials=True
        )
        assert forked == reference and forked.records == reference.records
        assert stats.superblock_blocks > blocks0, "never re-entered traces"
        assert stats.superblock_deopt_steps > steps0, "never deoptimised"
        assert stats.rejoined == rejoined0

        # A mid-run skip rejoins: it runs on to its probe and takes the
        # golden run's verdict, still equal to a full replay.
        skip = InstructionSkip(scheduler.golden.instructions // 2)
        assert scheduler.run_trial(skip) == _replay(
            program, "run_memcmp", [16], skip, "reference"
        )
        assert stats.rejoined == rejoined0 + 1

    def test_stop_past_the_window_pauses_like_the_step_loops(self):
        # The rejoin probe stops a windowed run past its window.  Every
        # dispatch pauses at the same dynamic slot (skipped ones count)
        # in the same state, and a budget reached exactly at the stop
        # times out on every one.
        program = _program()

        def run(dispatch, skip, stop, budget):
            cpu = program.prepare_cpu(
                "run_memcmp", [16], pre_hooks=[InstructionSkip(skip).hook()],
                dispatch=dispatch,
            )
            result = cpu.run(budget, stop_at_instruction=stop)
            return result, cpu.dyn_index, list(cpu.regs)

        paused_runs = 0
        for skip in (3, 40, 100, 473):
            for stop in (skip, skip + 1, skip + 30):
                paused, _, _ = run("reference", skip, stop, 2_000_000)
                budgets = [2_000_000]
                if paused.status is Status.RUNNING:  # not halted by the stop
                    paused_runs += 1
                    budgets += [paused.cycles, paused.cycles + 1]
                for budget in budgets:
                    runs = [
                        run(dispatch, skip, stop, budget)
                        for dispatch in ("reference", "superblock")
                    ]
                    assert runs[0] == runs[1], (skip, stop, budget)
        assert paused_runs

    def test_windowed_trial_steps_only_near_the_window(self):
        # Cold, before any trace is compiled (each compiles at its second
        # reach), a one-instruction window deep in the run must not force
        # stepping for the whole trial: the deopt steps for that trial stay
        # well under the golden instruction count.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [32])
        total = scheduler.golden.instructions
        steps0 = scheduler.stats.superblock_deopt_steps
        scheduler.run_trial(InstructionSkip(total - 5))
        stepped = scheduler.stats.superblock_deopt_steps - steps0
        assert 0 < stepped < total // 2
        # Warm, a skip trial forks onto a trace entry, runs traces up to
        # its window, and from where the skip leaves the PC runs the
        # suffix trace that starts there on to its probe: it single-steps
        # only its window, and a skipped slot retires nothing.
        skips = [InstructionSkip(i) for i in range(1, total + 1)]
        for model in skips:  # each trace a trial reaches compiles by its second reach
            scheduler.run_trial(model)
        stepped = []
        for model in skips:
            steps0 = scheduler.stats.superblock_deopt_steps
            scheduler.run_trial(model)
            stepped.append(scheduler.stats.superblock_deopt_steps - steps0)
        assert stepped == [0] * total, stepped

    def test_unbounded_hook_falls_back_entirely(self):
        # RepeatedFlagFlip carries no fire window; the engine must run
        # the whole trial on the reference step loop (no compiled blocks)
        # and still match a fresh full replay exactly.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        model = RepeatedFlagFlip("z")
        blocks0 = scheduler.stats.superblock_blocks
        result = scheduler.run_trial(model)
        assert result == _replay(program, "run_memcmp", [16], model, "reference")
        assert scheduler.stats.superblock_blocks == blocks0

    @pytest.mark.parametrize("scheme", ["none", "ancode", "duplication"])
    def test_cycle_exact_across_trial_zoo(self, scheme):
        # Cycle accounting is part of the trial contract (timeout
        # classification depends on it): windowed and unbounded models,
        # early and late windows.
        program = _program(scheme=scheme)
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        zoo = [
            InstructionSkip(1),
            InstructionSkip(total // 3),
            InstructionSkip(total),
            FlagFlip("z", 1),
            FlagFlip("c", 2),
            RepeatedFlagFlip("z"),
        ]
        for model in zoo:
            result = scheduler.run_trial(model)
            expected = _replay(program, "run_memcmp", [16], model, "reference")
            assert result == expected, f"{scheme}/{model}"
            assert result.cycles == expected.cycles

    def test_timeout_boundary_sweep(self):
        # Exact timeout behaviour: for every max_cycles cutoff, the
        # superblock run must stop at the same instruction with the same
        # status as the reference step loop (the back-edge budget guard
        # and the entry guard both matter here).
        program = _program(scheme="ancode")
        full = program.run("run_memcmp", [8], dispatch="reference")
        for max_cycles in range(0, full.cycles + 2, 7):
            reference = program.run(
                "run_memcmp", [8], max_cycles, dispatch="reference"
            )
            sblk = program.run(
                "run_memcmp", [8], max_cycles, dispatch="superblock"
            )
            assert reference == sblk, f"max_cycles={max_cycles}"


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
class TestObsCounters:
    def test_scheduler_stats_reach_the_registry(self):
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        for occurrence in (1, total // 2, total):
            scheduler.run_trial(InstructionSkip(occurrence))
        profiler = EngineProfiler(MetricsRegistry())
        profiler.sample_scheduler(scheduler)
        registry = profiler.registry
        blocks = registry.counter("repro_engine_superblock_blocks_total").value
        steps = registry.counter(
            "repro_engine_superblock_deopt_steps_total"
        ).value
        assert blocks == scheduler.stats.superblock_blocks > 0
        assert steps == scheduler.stats.superblock_deopt_steps > 0

    def test_default_engine_reports_superblock_activity(self):
        # A fault that cannot rejoin runs its suffix on compiled traces,
        # single-stepping only where it reaches code the first time.  A
        # skip at the same slot then reaches that code a second time: it
        # runs on compiled traces to its window, steps nothing in it (a
        # skipped slot retires nothing), runs the suffix trace from where
        # the skip leaves the PC on to its probe, and reports the rejoin.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        stats = scheduler.stats
        scheduler.run_trial(_unrejoinable(program, 3))
        assert stats.superblock_blocks > 0
        assert stats.superblock_deopt_steps > 0
        assert stats.rejoined == 0
        blocks, steps = stats.superblock_blocks, stats.superblock_deopt_steps
        scheduler.run_trial(InstructionSkip(3))
        assert stats.rejoined == 1
        assert stats.superblock_blocks > blocks
        assert stats.superblock_deopt_steps == steps
