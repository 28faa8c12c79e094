"""Superblock-threaded execution: exec-compiled trace dispatch.

The default dispatch, and the one every forking fault trial runs on.  The
reference interpreter (:meth:`repro.isa.cpu.CPU.step`) pays a fetch, a
class lookup and a call per instruction; this module removes the
per-instruction loop itself.  The image's decode cache is partitioned
into *traces*: one per entry point (label, branch target, post-call
fall-through), each following the fall-through path through conditional
branches — a ``Bcc`` becomes a *side exit* rather than a trace boundary
— and ending at ``B``/``Bl``/``BxLr``/``Udf``, anything touching r15,
or a length cap.  Each trace is compiled — via ``exec`` of generated
Python source — into one function

    def _t<addr>(cpu, regs, max_cycles, stop) -> next_pc

whose body inlines the semantics of each instruction with

* CPU registers and NZCV flags pinned to local variables, loaded once in
  a prologue and written back only at trace exits,
* NZCV computed lazily (below),
* cycle charges folded into per-exit constants (dynamic ``div`` costs
  are the one runtime add, one lookup in a table indexed by the
  operands' bit-length difference),
* the CFI monitor's state advance folded per *segment*: ``k`` retired
  instructions without CFI events collapse to a single
  ``rotl(state, k) ^ C`` with ``C`` precomputed from the instruction
  signatures (the same folding trick ``repro.cfi.gpsa`` documents),
* loads/stores bounds-checked inline: RAM accesses read/write RAM
  directly (maintaining the dirty-page set stores are contracted to
  keep), while MMIO/out-of-range accesses fall back to the shared
  ``cpu.load``/``cpu.store`` helpers followed by the same event drain +
  halt check the per-instruction loops perform,
* **loop closure**: a branch back to the trace's own entry point becomes
  a ``continue`` in a ``while True:`` wrapper, so a counted loop runs
  entirely inside one compiled function with registers in locals.  Back
  edges switch the trace to dynamic accounting (a ``cycles`` local and a
  ``_n`` retired counter) and re-check the cycle budget each iteration
  against the trace's precomputed worst-case single-pass cost, which
  keeps timeout behaviour exact.

**Word-granular RAM.**  Every CPU keeps ``cpu._words``, one
``memoryview(cpu.memory).cast("I")`` made in ``CPU.__init__``; it aliases
``memory`` for the CPU's lifetime, because ``restore()`` writes
``memory`` in place and nothing rebinds it.  A trace serves an aligned
4-byte load, store, ``push`` or ``pop`` with one index into the view
(``not _ad & 3 and _ad < _fast``), bytes and halfwords from
``cpu.memory``, and an aligned word store marks its one dirty page.
Unaligned words, MMIO and out-of-range addresses take
``cpu.load``/``cpu.store``.  Where the view cannot be built (a
big-endian host, a memory size that is not a multiple of 4, RAM
reaching the MMIO window) it is empty, the limit ``_fast`` is 0, and
every access takes that slow path.
``CPU.load``/``CPU.store`` themselves stay byte-sliced: with
``CPU.execute`` they are the reference oracle's semantics, which stays
independent of the emitter's.

A base register the trace never writes is *fixed* where that pays (it
has a word load, and two word accesses or one in a loop trace; see
:func:`_fixed_bases`): the prologue computes its word index ``_bN = rN
>> 2`` and one guard ``_okN`` (rN aligned, and the word at each aligned
offset the trace uses off rN inside the view), so a word load or store
at an aligned immediate offset is ``_w[_bN + k]`` under ``if _okN:``,
with the tested access above in its ``else`` (a faulted SP, an MMIO
base).  The spilled constants a compiled loop reloads off SP every pass
are such accesses.  Under a CFI monitor, a base the trace never writes
and only stores aligned words off at immediate offsets, two of them or
one in a loop trace, is fixed too (:func:`_mmio_bases`): hardened code
keeps the CFI unit's base in r9.  Its prologue sets two flags per offset
k, ``_mN_k`` and ``_cN_k``: ``(rN + k) & M`` is ``CFI_MERGE`` or
``CFI_CHECK``.  A store there is ``ms = ms ^ value`` under ``if
_mN_k:``, the monitor's compare, violation and halt check under ``elif
_cN_k:``, and the tested store above under ``else``.

**Lazy flags.**  A flag-setting add, sub or cmp leaves its operands and
unmasked sum in ``_a``/``_b``/``_u`` and marks NZCV *pending*.  An eq,
ne, hs or lo branch tests ``_u`` directly; the flags themselves are
computed only where they are read or published: the carry-in of
``adc``/``sbc``, an NZ-only setter (it keeps C and V), any other branch
condition, a taken side exit, terminators, back edges, and the shared
exit, whose per-offset ``_STOPS`` row says whether NZCV is pending
there.  NZCV is exact at every exit and stop.

**Exact stops.**  Every trace pauses when ``cpu.dyn_index`` reaches
its ``stop`` argument.  Its prologue turns the stop into an offset
``_s`` from the entry, one integer compare before each instruction
breaks out of the body's ``while True:`` at that offset, and a loop
trace's back edges rebase ``_s`` onto the next pass (or leave at the
loop head when the stop is exactly there).  One shared exit then
publishes the registers and flags bound by that offset, and its static
cycles, instruction count and pending monitor segment from a per-offset
table.  Halts (a memory access falls through, so a halt's state is the
next offset's) and a loop's budget exit leave through the same exit:
they are rare, and one shared epilogue compiles much faster than one per
memory access.

The chaining loop (:func:`chain`) then threads traces: ``regs[PC]`` is
only consulted *between* traces, and a trace is entered only when its
worst-case cycle bound cannot cross ``max_cycles`` (else it is
single-stepped, preserving exact timeout behaviour).
:func:`run_superblock`, behind ``CPU.run``, wraps it in the
deoptimisation below; the trial scheduler, which knows its trial's
window and probes, drives ``chain`` and the window step itself.

Lazy compilation
----------------
Traces are compiled one at a time, inside :func:`superblock_tables`,
the second time a run reaches their start; the first time, the run
single-steps on, so a run that passes a stretch of code once (a warm-up
trial) does not pay milliseconds of compile for a few dozen
instructions.  A trace may start at any address.  At a partition entry
it is that entry's trace; anywhere else (a fault or a stop left the PC
inside a trace) it is a *suffix* (:meth:`_Partition.suffix`) that runs
from there to the next entry, terminator or r15-touching instruction:
the walk the run would otherwise single-step, so it compiles in
proportion to one basic block.  The image's partition is built at the
first compile, or earlier by :func:`trace_entries`: golden capture
builds it to place its ladder checkpoints on the partition's entries,
which suffixes do not change, and compiles nothing.  Nothing is
compiled while a fault window is open, so a trial that halts inside its
window compiles nothing either.  Compiled traces live on the image, one
table per *variant* (CFI monitor x speculation window; the image's
target fixes the cycle model) shared by every CPU of that variant; the
table never holds a CPU, and each CPU looks its variant up once.

Deoptimisation contract
-----------------------
Fault-model hooks cannot fire inside a compiled trace, so the loop
deoptimises around them:

* a pre-hook carrying a ``fire_window = (lo, hi)`` attribute (1-based
  ``dyn_index`` bounds of every instruction it can observe or mutate) is
  consulted only inside its window: traces run up to ``dyn_index``
  ``lo - 1`` and pause there, the window is single-stepped on the
  reference path with the hooks called, and trace chaining resumes after
  ``hi`` (several windowed hooks share the span of their windows),
* a pre-hook *without* a window (unbounded models such as
  ``RepeatedFlagFlip``) falls back to the reference step loop for the
  whole run, as do retire hooks other than the CFI monitor's,
* ``stop_at_instruction`` (counted in ``dyn_index``, skipped slots
  included) pauses the run exactly there, on traces, with or without a
  window.

Otherwise a run single-steps only the window itself, a pending
``branch_invert`` (traces evaluate fused branches inline), near-timeout
tails, speculative ``Bcc`` (below), r15-touching instructions, and code
it reaches the first time.  Every single step is the reference step.
Where a fault or a stop leaves the PC, a suffix trace starts, so a warm
trial steps nothing outside its window.

With speculation enabled (``SpecEngine`` window > 0), ``Bcc`` must
retire through :meth:`SpecEngine.retire_bcc`, so the speculative variant
compiles plain basic blocks *ending* at every control transfer instead
of traces, and all terminators single-step — transient windows,
predictor updates and squashes stay in the one retire helper.  Its
suffixes end at the next control transfer too, so a PC left on a
terminator steps it.
``window=0`` keeps full trace inlining — identical to the plain CPU by
construction.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.cfi.gpsa import entry_state
from repro.cfi.signatures import signature
from repro.isa import instructions as ins
from repro.isa.cpu import MAGIC_RETURN, PAGE_BITS, WORD, Status, _signed
from repro.isa.cycles import CycleModel
from repro.isa.mmio import MMIO
from repro.isa.registers import SP, PC

#: cap on compiled trace length (static instructions); longer paths are
#: split into chained traces (keeps worst-case cycle bounds, and
#: therefore the near-timeout single-step tail, short).
MAX_TRACE = 256

#: cap on basic-block length for the speculative (non-inline) variant.
MAX_BLOCK = 64

#: the stop of a chaining run that has none: no ``dyn_index`` ever
#: reaches it.
NO_STOP = 1 << 62

#: control transfers that end a trace (``Bcc`` deliberately absent: it
#: is a side exit inside traces, a block end only for the speculative
#: variant).
_TRACE_ENDS = (ins.B, ins.Bl, ins.BxLr, ins.Udf)

#: control transfers the speculative-variant partitioner ends blocks at.
_TERMINATORS = (ins.B, ins.Bl, ins.BxLr, ins.Udf) + ins.BCC_CLASSES

#: branch-family leaders (exact-type checks; BccReg/BccImm are distinct
#: classes, so the plain tuple membership must enumerate the family).
_BRANCH_LEADERS = (ins.B, ins.Bl) + ins.BCC_CLASSES
_B_OR_BCC = (ins.B,) + ins.BCC_CLASSES

#: condition -> (expression over flag locals, flags read) — mirrors
#: CPU.condition_holds over pinned locals.
_COND_EXPR = {
    "eq": ("z == 1", ("z",)),
    "ne": ("z == 0", ("z",)),
    "hs": ("c == 1", ("c",)),
    "lo": ("c == 0", ("c",)),
    "hi": ("c == 1 and z == 0", ("c", "z")),
    "ls": ("c == 0 or z == 1", ("c", "z")),
    "lt": ("n != v", ("n", "v")),
    "ge": ("n == v", ("n", "v")),
    "gt": ("z == 0 and n == v", ("z", "n", "v")),
    "le": ("z == 1 or n != v", ("z", "n", "v")),
}

#: the conditions a pending flag-setting add/sub/cmp decides from its
#: unmasked sum ``_u`` alone: Z is its low word being 0, C its bit 32.
_PENDING_COND = {
    "eq": "not _u & 0xFFFFFFFF",
    "ne": "_u & 0xFFFFFFFF",
    "hs": "_u > 0xFFFFFFFF",
    "lo": "_u <= 0xFFFFFFFF",
}

#: each flag of a pending flag-setting add/sub/cmp, computed from its
#: operands ``_a``, ``_b`` and unmasked sum ``_u = _a + _b + carry``
#: (mirrors CPU._add_with_carry).
_PENDING_FLAG = {
    "n": "n = _u >> 31 & 1",
    "z": "z = 0 if _u & 0xFFFFFFFF else 1",
    "c": "c = _u >> 32",
    "v": "v = ((_a ^ _u) & (_b ^ _u)) >> 31 & 1",
}

#: condition inversions, for side exits emitted on the *fall-through*
#: arm when the trace follows the taken arm of a ``Bcc``.
_COND_INV = {
    "eq": "ne", "ne": "eq", "hs": "lo", "lo": "hs", "hi": "ls",
    "ls": "hi", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt",
}

#: fused register-compare branch conditions (flagless targets): Python
#: comparison operators over pinned register locals.  Signed conditions
#: compare with the sign bit flipped — ``(a ^ 0x80000000)`` orders 32-bit
#: two's-complement values correctly while the locals stay unsigned.
_FUSED_SIGNED = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_FUSED_UNSIGNED = {
    "eq": "==", "ne": "!=", "lo": "<", "ls": "<=", "hi": ">", "hs": ">=",
}


def _fused_cond_expr(e: "_Emitter", instr, cond: str) -> str:
    """Condition expression for a fused register-compare branch — the
    compiled-trace mirror of :func:`repro.isa.instructions.
    condition_compare` over register locals, no flag reads."""
    a = e.r(instr.rn)
    signed = _FUSED_SIGNED.get(cond)
    if type(instr) is ins.BccImm:
        b = instr.imm & 0xFFFFFFFF
        if signed:
            return f"({a} ^ 0x80000000) {signed} {(b ^ 0x80000000):#x}"
        return f"{a} {_FUSED_UNSIGNED[cond]} {b:#x}"
    b = e.r(instr.rm)
    if signed:
        return f"({a} ^ 0x80000000) {signed} ({b} ^ 0x80000000)"
    return f"{a} {_FUSED_UNSIGNED[cond]} {b}"


def _touches_pc(instr) -> bool:
    """True when the instruction names r15 as an operand (e.g. ``pop
    {..., pc}``): excluded from traces and always single-stepped, so the
    engines agree on the (quirky, engine-shared) r15 interplay with the
    run loop's PC update."""
    for attr in ("rd", "rt", "rn", "rm", "ra", "rdlo", "rdhi"):
        if getattr(instr, attr, None) == 15:
            return True
    return 15 in getattr(instr, "regs", ())


class _Block:
    __slots__ = ("addr", "body", "term", "exit_addr", "loop", "taken",
                 "fall_loop")

    def __init__(self, addr: int):
        self.addr = addr
        self.body: list = []  # (addr, instr, width); may include B/Bcc
        self.term = None  # (addr, instr, width) | None
        self.exit_addr = addr
        self.loop = False  # has a back edge targeting ``addr``
        self.taken: set[int] = set()  # Bcc addrs whose *taken* arm the
        # trace follows (the fall-through becomes the side exit)
        self.fall_loop = False  # trace falls through into its own start


class _Partition:
    __slots__ = ("blocks", "entries", "code", "traces")

    def __init__(self, blocks, entries, code, traces):
        self.blocks = blocks
        #: entry address -> block, for every block that compiles to a
        #: trace function
        self.entries = entries
        #: the image's decode cache, address -> (instruction, width), for
        #: the suffix walk
        self.code = code
        #: through-``Bcc`` traces (else plain basic blocks)
        self.traces = traces

    def suffix(self, addr: int) -> Optional[_Block]:
        """The trace a run entering at ``addr``, which starts none of
        :attr:`entries`, compiles: the fall-through walk from ``addr`` to
        the next entry, r15-touching instruction or terminator (inlined
        by traces, left to single-stepping by basic blocks), ``Bcc`` side
        exits included.  It is the walk a run would otherwise single-step,
        so it is one basic block long at most.  None where it would be
        empty."""
        ends = _TRACE_ENDS if self.traces else _TERMINATORS
        block = _Block(addr)
        while len(block.body) < MAX_TRACE:
            step = self.code.get(addr)
            if step is None or _touches_pc(step[0]) or (
                block.body and addr in self.entries
            ):
                break
            instr, width = step
            if type(instr) in ends:
                block.term = (addr, instr, width)
                break
            block.body.append((addr, instr, width))
            addr += width
        block.exit_addr = addr
        if block.body or (self.traces and block.term is not None):
            return block
        return None


def partition_image(image, traces: bool = True) -> _Partition:
    """Split the image into compilation units (model-independent).

    ``traces=True`` builds through-``Bcc`` traces with loop detection
    (the inline variants); ``traces=False`` builds plain basic blocks
    ending at every control transfer (the speculative variant).
    """
    code = image.decode_cache()
    items = [(addr, instr, width) for addr, (instr, width) in sorted(code.items())]
    leaders = set(image.labels.values())
    for addr, instr, width in items:
        cls = type(instr)
        if cls in _BRANCH_LEADERS:
            if instr.target is not None:
                leaders.add(instr.target)
            leaders.add(addr + width)
        elif cls in (ins.BxLr, ins.Udf) or _touches_pc(instr):
            leaders.add(addr + width)

    if traces:
        basic = _build_blocks(items, leaders)
        member = _loop_membership(basic)
        blocks = _build_traces(items, leaders, member)
    else:
        blocks = _build_blocks(items, leaders)
    # Traces inline their terminators; basic blocks leave them to
    # single-stepping, so a terminator-only block compiles to nothing.
    entries = {
        b.addr: b for b in blocks if b.body or (traces and b.term is not None)
    }
    return _Partition(blocks, entries, code, traces)


def _loop_membership(blocks) -> dict:
    """Innermost natural-loop membership over the basic-block CFG.

    A back edge is a backward ``B``/``Bcc``; its natural loop is the
    standard one (every block reaching the back-edge source without
    passing the head).  Calls conservatively terminate paths, so loops
    containing ``Bl`` are simply not detected (they could not close into
    one trace anyway).  Returns ``{block_start: (head, nodes)}`` for
    every member block, the innermost (smallest) loop winning — the
    trace builder uses it to decide which branch arm stays hot.
    """
    starts = {b.addr for b in blocks}
    succs: dict[int, list[int]] = {}
    for b in blocks:
        if b.term is None:
            succs[b.addr] = [b.exit_addr] if b.exit_addr in starts else []
            continue
        taddr, tinstr, twidth = b.term
        cls = type(tinstr)
        if cls is ins.B:
            out = [tinstr.target] if tinstr.target in starts else []
        elif cls in ins.BCC_CLASSES:
            out = [t for t in (tinstr.target, taddr + twidth) if t in starts]
        else:  # Bl / BxLr / Udf
            out = []
        succs[b.addr] = out
    preds: dict[int, list[int]] = {a: [] for a in starts}
    for a, outs in succs.items():
        for t in outs:
            preds[t].append(a)
    member: dict[int, tuple[int, set]] = {}
    for b in blocks:
        if b.term is None:
            continue
        taddr, tinstr, _ = b.term
        if type(tinstr) not in _B_OR_BCC:
            continue
        head = tinstr.target
        if head is None or head not in starts or head > taddr:
            continue
        nodes = {head, b.addr}
        work = [b.addr]
        while work:
            for p in preds[work.pop()]:
                if p not in nodes:
                    nodes.add(p)
                    work.append(p)
        for n in nodes:
            prev = member.get(n)
            if prev is None or len(nodes) < len(prev[1]):
                member[n] = (head, nodes)
    return member


def _build_traces(items, leaders, member) -> list:
    """One trace per entry point.

    The walk follows fall-through past ``Bcc`` (side exits) and — inside
    a natural loop — follows unconditional ``B`` jumps and the *taken*
    arm of a ``Bcc`` whose fall-through leaves the loop, so a loop body
    the compiler fragmented into ``b``-chained blocks still closes into
    one ``while True:`` trace.  Revisiting the entry point closes the
    loop; revisiting any other address ends the trace.
    """
    index_of = {addr: i for i, (addr, _, _) in enumerate(items)}
    end_addr = items[-1][0] + items[-1][2] if items else 0
    blocks: list[_Block] = []
    pending = deque(sorted(a for a in leaders if a in index_of))
    seen: set[int] = set()
    while pending:
        start = pending.popleft()
        if start in seen:
            continue
        seen.add(start)
        block = _Block(start)
        ctx = member.get(start)
        nodes = ctx[1] if ctx is not None else None
        visited: set[int] = set()
        i = index_of[start]
        while True:
            if i >= len(items):
                block.exit_addr = end_addr
                break
            addr, instr, width = items[i]
            if addr in visited:
                if addr == start:
                    block.loop = True
                    block.fall_loop = True
                else:
                    block.exit_addr = addr
                break
            cls = type(instr)
            if _touches_pc(instr):
                block.exit_addr = addr  # single-stepped by the outer loop
                break
            if cls is ins.B:
                target = instr.target
                if target == start:
                    block.term = (addr, instr, width)
                    block.loop = True
                    break
                if (
                    nodes is not None
                    and target in nodes
                    and target not in visited
                    and target in index_of
                ):
                    # Follow the jump: the B becomes a pure-accounting
                    # body step and the walk continues at its target.
                    visited.add(addr)
                    block.body.append((addr, instr, width))
                    nxt = target
                else:
                    block.term = (addr, instr, width)
                    break
            elif cls in _TRACE_ENDS:  # Bl / BxLr / Udf
                block.term = (addr, instr, width)
                break
            else:
                visited.add(addr)
                block.body.append((addr, instr, width))
                nxt = addr + width
                if cls in ins.BCC_CLASSES:
                    target = instr.target
                    if target == start:
                        block.loop = True
                    elif (
                        nodes is not None
                        and target in nodes
                        and addr + width not in nodes
                        and target not in visited
                        and target in index_of
                    ):
                        # The taken arm stays in the loop, the fall-
                        # through leaves it: follow taken, and emit the
                        # fall-through as the (inverted) side exit.
                        block.taken.add(addr)
                        nxt = target
            if len(block.body) >= MAX_TRACE:
                block.exit_addr = nxt
                if nxt in index_of and nxt not in seen:
                    pending.append(nxt)  # compile the continuation
                break
            ni = index_of.get(nxt)
            if ni is None:
                block.exit_addr = nxt
                break
            i = ni
        blocks.append(block)
    return blocks


def _build_blocks(items, leaders) -> list:
    """Basic blocks ending at every control transfer (spec variant)."""
    blocks: list[_Block] = []
    current: Optional[_Block] = None

    def close(block: _Block, exit_addr: int) -> None:
        block.exit_addr = exit_addr
        blocks.append(block)

    for addr, instr, width in items:
        if current is not None and addr in leaders:
            close(current, addr)
            current = None
        if current is None:
            current = _Block(addr)
        if type(instr) in _TERMINATORS and not _touches_pc(instr):
            current.term = (addr, instr, width)
            close(current, addr)  # the spec variant re-dispatches here
            current = None
        elif _touches_pc(instr):
            close(current, addr)  # always single-stepped
            current = None
        else:
            current.body.append((addr, instr, width))
            if len(current.body) >= MAX_BLOCK:
                close(current, addr + width)
                current = None
    if current is not None:
        last_addr, _, last_width = items[-1]
        close(current, last_addr + last_width)
    return blocks


def _div_bound(model) -> int:
    """Safe upper bound on one division's cycle charge.

    Probed at operand extremes and floored at the default model's cap of
    12 — over-estimating is always safe (the chaining loop just
    single-steps a little earlier near a timeout), under-estimating never
    happens for the bounded default model.
    """
    probes = (
        (0xFFFFFFFF, 1),
        (0xFFFFFFFF, 0),
        (0, 0),
        (1, 1),
        (0xFFFFFFFF, 3),
        (1, 0xFFFFFFFF),
        (0xFFFFFFFF, 0xFFFFFFFF),
    )
    return max(12, max(model.div(a, b) for a, b in probes))


def static_cost(instr: ins.Instr, cpu) -> int | None:
    """Cycle charge of ``instr`` on ``cpu``, when it is a compile-time
    constant: one of the cycle model's constant costs the CPU snapshots
    as ``cpu._c_*``, which generated trace bodies bake in.

    Returns ``None`` for the two dynamic cases: ``Udiv``/``Sdiv`` (cost
    depends on operand values via ``CycleModel.div``) and ``Bcc`` (taken
    vs not-taken).
    """
    cls = type(instr)
    if cls in (ins.Udiv, ins.Sdiv) or cls in ins.BCC_CLASSES:
        return None
    if cls in (ins.Push, ins.Pop):
        return cpu.cycles_model.push_pop(len(instr.regs))
    if cls is ins.Udf:
        return 1  # a flat cycle, not a model constant
    attr = _STATIC_COST_ATTR.get(cls)
    if attr is None:  # pragma: no cover - assembler never emits unknowns
        raise NotImplementedError(f"no static cost for {instr!r}")
    return getattr(cpu, attr)


_STATIC_COST_ATTR: dict[type, str] = {
    ins.MovImm: "_c_alu",
    ins.MovReg: "_c_alu",
    ins.Movw: "_c_alu",
    ins.Movt: "_c_alu",
    ins.Mvn: "_c_alu",
    ins.Alu: "_c_alu",
    ins.AluImm: "_c_alu",
    ins.ShiftImm: "_c_alu",
    ins.ShiftReg: "_c_alu",
    ins.Mul: "_c_mul",
    ins.Mla: "_c_mla",
    ins.Mls: "_c_mla",
    ins.Umull: "_c_umull",
    ins.Umod: "_c_umod",
    ins.CmpReg: "_c_alu",
    ins.CmpImm: "_c_alu",
    ins.B: "_c_branch_taken",
    ins.Bl: "_c_call",
    ins.BxLr: "_c_ret",
    ins.LdrImm: "_c_load",
    ins.LdrReg: "_c_load",
    ins.StrImm: "_c_store",
    ins.StrReg: "_c_store",
    ins.LdrLit: "_c_load",
    ins.Nop: "_c_nop",
}


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------
class _Emitter:
    """Accumulates the generated source for one trace function.

    Looping traces are emitted twice: pass A (``preset=None``) collects
    the full register/flag footprint, pass B presets it so *every* exit
    writes back everything any iteration may have touched (a side exit
    taken on iteration 2 must publish registers written after that exit
    on iteration 1).

    """

    def __init__(self, monitor: bool, cycles_local: bool, loop: bool = False,
                 preset=None):
        self.monitor = monitor
        self.loop = loop
        self.cycles_local = cycles_local or loop
        self.lines: list[str] = []
        # The body sits in a ``while True:``: a loop trace continues it,
        # and every exit through the shared exit breaks out of it.
        self.indent = 2
        self.reads: set[int] = set()  # registers loaded in the prologue
        self.local: set[int] = set()  # registers with a live local
        self.written: set[int] = set()
        self.freads: set[str] = set()
        self.flocal: set[str] = set()
        self.fwritten: set[str] = set()
        #: register/flag -> offset of the instruction that first binds its
        #: local, for locals the prologue does not load
        self.born: dict = {}
        self.offset = 0  # offset of the instruction being emitted
        self.needs: set[str] = set()  # prologue helpers (mem/load/...)
        self.k = 0  # static cycles accumulated since entry/back edge
        self.count = 0  # instructions accumulated since entry/back edge
        self.seg_rot = 0  # monitor segment length since last flush
        self.seg_const = 0  # folded signature constant of the segment
        self.worst = 0  # worst-case cycle bound of one pass
        #: the flags of the last flag-setting add/sub/cmp are not computed
        #: yet: its ``_a``/``_b``/``_u`` hold them (see emit_flags)
        self.pending = False
        #: offset in the pass -> (address, static cycles, pending monitor
        #: rotation, pending monitor constant, flags pending) before that
        #: instruction: what the shared exit publishes for it
        self.stops: dict[int, tuple] = {}
        self.shared = False  # some exit breaks out to the shared exit
        #: fixed base register -> its word offsets' range (_fixed_bases)
        self.fixed: dict = {}
        #: fixed CFI base register -> its word offsets (_mmio_bases)
        self.mmio: dict = {}
        if preset is not None:
            touched, written, ftouched, fwritten = preset
            self.reads = set(touched)
            self.local = set(touched)
            self.written = set(written)
            self.freads = set(ftouched)
            self.flocal = set(ftouched)
            self.fwritten = set(fwritten)

    def emit(self, line: str, extra: int = 0) -> None:
        self.lines.append("    " * (self.indent + extra) + line)

    # -- operand helpers -------------------------------------------------
    def r(self, reg) -> str:
        reg = int(reg)
        if reg not in self.local:
            self.local.add(reg)
            self.reads.add(reg)
        return f"r{reg}"

    def w(self, reg) -> str:
        reg = int(reg)
        if reg not in self.local:
            self.local.add(reg)
            self.born[reg] = self.offset
        self.written.add(reg)
        return f"r{reg}"

    def f(self, flag: str) -> str:
        assert not self.pending, "read of a pending flag"
        if flag not in self.flocal:
            self.flocal.add(flag)
            self.freads.add(flag)
        return flag

    def wf(self, flag: str) -> str:
        if flag not in self.flocal:
            self.flocal.add(flag)
            self.born[flag] = self.offset
        self.fwritten.add(flag)
        return flag

    # -- the shared exit -------------------------------------------------
    def mark(self, addr: int) -> None:
        """Record the :attr:`stops` row of offset :attr:`count`: the next
        instruction is at ``addr``."""
        row = (addr, self.k, self.seg_rot % 32, self.seg_const, self.pending)
        recorded = self.stops.setdefault(self.count, row)
        assert recorded == row, (recorded, row)  # a halt records its fall-through

    def emit_break(self, offset, extra: int = 0) -> None:
        """Leave through the shared exit with the state before the
        instruction at ``offset`` of the pass."""
        if offset is not None:
            self.emit(f"_s = {offset}", extra)
        self.emit("break", extra)
        self.shared = True

    def emit_stop_check(self, addr: int) -> None:
        """A pause point before the instruction at ``addr``: when the
        stop falls here the trace breaks out to the shared exit.  Offset 0
        needs no compare: the chaining loop never enters a trace at its
        stop, and a loop trace's back edges check the next pass's offset 0
        themselves."""
        self.offset = self.count
        if self.count:
            self.emit(f"if _s == {self.count}:")
            self.emit_break(None, 1)
        self.mark(addr)

    # -- lazy flags ------------------------------------------------------
    def _flags_src(self, flags: str = "nzcv") -> list[str]:
        return [_PENDING_FLAG[flag] for flag in flags] if self.pending else []

    def emit_flags(self, flags: str = "nzcv") -> None:
        """Compute the pending flags on the main path, where they are
        read; the caller writes the others (an NZ-only setter asks for C
        and V)."""
        for line in self._flags_src(flags):
            self.emit(line)
        self.pending = False

    # -- monitor segment folding ----------------------------------------
    def fold(self, instr) -> None:
        if self.monitor:
            self.seg_rot += 1
            sc = self.seg_const
            self.seg_const = (((sc << 1) | (sc >> 31)) & WORD) ^ signature(instr)

    def _flush_src(self) -> list[str]:
        rot = self.seg_rot % 32
        const = self.seg_const
        if rot:
            expr = f"(((ms << {rot}) | (ms >> {32 - rot})) & 0xFFFFFFFF)"
            return [f"ms = {expr} ^ {const:#x}" if const else f"ms = {expr}"]
        if const:
            return [f"ms = ms ^ {const:#x}"]
        return []

    def emit_flush(self, extra: int = 0) -> None:
        """Fold the pending segment into ``ms`` on the main path."""
        if not self.monitor:
            return
        for line in self._flush_src():
            self.emit(line, extra)
        self.seg_rot = 0
        self.seg_const = 0

    # -- exits -----------------------------------------------------------
    def emit_epilogue(self, extra_cycles: int = 0, extra: int = 0) -> None:
        """Write locals back to the CPU (side exits and terminators)."""
        for line in self._flags_src():  # non-destructive: side exits
            self.emit(line, extra)
        for reg in sorted(self.written):
            self.emit(f"regs[{reg}] = r{reg}", extra)
        for flag in ("n", "z", "c", "v"):
            if flag in self.fwritten:
                self.emit(f"cpu.{flag} = {flag}", extra)
        total = self.k + extra_cycles
        if self.cycles_local:
            if total:
                self.emit(f"cpu.cycles = cycles + {total}", extra)
            else:
                self.emit("cpu.cycles = cycles", extra)
        elif total:
            self.emit(f"cpu.cycles += {total}", extra)
        if self.loop:
            n = f"_n + {self.count}" if self.count else "_n"
            self.emit(f"cpu.retired += {n}", extra)
            self.emit(f"cpu.dyn_index += {n}", extra)
        elif self.count:
            self.emit(f"cpu.retired += {self.count}", extra)
            self.emit(f"cpu.dyn_index += {self.count}", extra)
        if self.monitor:
            for line in self._flush_src():  # non-destructive: side exits
                self.emit(line, extra)
            self.emit("_mon.state = ms", extra)

    def emit_halt_check(self, fall: int, extra: int = 0) -> None:
        """Exit the trace where a per-instruction loop would observe a
        halting status (memory error, MMIO exit/detect, CFI violation).
        Only memory accesses halt, and they fall through, so the state
        to publish is the one before the next offset: the exit is the
        shared one.  Halts are rare, and one shared epilogue compiles
        much faster than one per memory access."""
        self.mark(fall)
        self.emit("if cpu.status is not _RUNNING:", extra)
        self.emit_break(self.count, extra + 1)


def _emit_event_drain(e: _Emitter, extra: int = 0) -> None:
    """Drain CFI events after a slow-path store: the monitor applies
    MERGE/CHECK against the (already segment-flushed) ``ms``; without a
    monitor the list is just cleared, as the next step would."""
    e.needs.add("ev")
    e.emit("if _ev:", extra)
    e.emit("ms = _drain(cpu, ms)" if e.monitor else "del _ev[:]", extra + 1)


def _drain(cpu, ms: int) -> int:
    """Apply the CFI events a slow-path store raised to the monitor
    state ``ms`` as the monitor's retire hook would, clear them, and
    return the new state."""
    monitor = cpu.monitor
    events = cpu._cfi_events
    for event in events:
        if event.addr == MMIO.CFI_MERGE:
            ms = (ms ^ event.value) & WORD
        elif event.addr == MMIO.CFI_CHECK:
            if event.value != ms:
                monitor.violations += 1
                cpu.cfi_violation()
            else:
                monitor.checks_passed += 1
    del events[:]
    return ms


def _emit_adc(e: _Emitter, dest, a_expr: str, b_expr: str, carry: str) -> None:
    """Inline CPU._add_with_carry, NZCV left pending: the operands and
    the unmasked sum stay in ``_a``/``_b``/``_u``, and the flags are
    computed only where they are read or published (see
    :data:`_PENDING_FLAG`).  ``dest`` is None for ``cmp``."""
    e.emit(f"_a = {a_expr}")
    e.emit(f"_b = {b_expr}")
    e.emit(f"_u = _a + _b + {carry}" if carry != "0" else "_u = _a + _b")
    if dest is not None:
        e.emit(f"{e.w(dest)} = _u & 0xFFFFFFFF")
    for flag in "nzcv":
        e.wf(flag)
    e.pending = True


def _emit_nz(e: _Emitter, name: str) -> None:
    """An NZ-only setter: C and V keep their values, so pending flags
    are computed first."""
    e.emit_flags("cv")
    e.emit(f"{e.wf('n')} = {name} >> 31")
    e.emit(f"{e.wf('z')} = 1 if {name} == 0 else 0")


_ALU_FMT = {
    "and": "{a} & {b}",
    "orr": "{a} | {b}",
    "eor": "{a} ^ {b}",
    "bic": "{a} & ~{b} & 0xFFFFFFFF",
}


def _emit_alu(e: _Emitter, op: str, rd, a: str, b: str, s: bool) -> None:
    """Shared Alu/AluImm body; ``a``/``b`` are value expressions."""
    if op in _ALU_FMT:
        dest = e.w(rd)
        e.emit(f"{dest} = {_ALU_FMT[op].format(a=a, b=b)}")
        if s:
            _emit_nz(e, dest)
        return
    if op in ("adc", "sbc"):
        e.emit_flags()  # the carry-in
    if s:
        if op == "add":
            _emit_adc(e, rd, a, b, "0")
        elif op == "sub":
            _emit_adc(e, rd, a, f"(~{b}) & 0xFFFFFFFF", "1")
        elif op == "rsb":
            _emit_adc(e, rd, b, f"(~{a}) & 0xFFFFFFFF", "1")
        elif op == "adc":
            _emit_adc(e, rd, a, b, e.f("c"))
        elif op == "sbc":
            _emit_adc(e, rd, a, f"(~{b}) & 0xFFFFFFFF", e.f("c"))
        else:  # pragma: no cover
            raise NotImplementedError(op)
        return
    if op == "add":
        e.emit(f"{e.w(rd)} = ({a} + {b}) & 0xFFFFFFFF")
    elif op == "sub":
        e.emit(f"{e.w(rd)} = ({a} - {b}) & 0xFFFFFFFF")
    elif op == "rsb":
        e.emit(f"{e.w(rd)} = ({b} - {a}) & 0xFFFFFFFF")
    elif op == "adc":
        e.emit(f"{e.w(rd)} = ({a} + {b} + {e.f('c')}) & 0xFFFFFFFF")
    elif op == "sbc":
        e.emit(f"{e.w(rd)} = ({a} - {b} - (1 - {e.f('c')})) & 0xFFFFFFFF")
    else:  # pragma: no cover
        raise NotImplementedError(op)


def _emit_shift(e: _Emitter, op: str, src: str, amount: int) -> str:
    """Constant-amount shift value expression (CPU._shift)."""
    if op == "lsl":
        return f"({src} << {amount}) & 0xFFFFFFFF" if amount < 32 else "0"
    if op == "lsr":
        return f"({src} >> {amount})" if amount < 32 else "0"
    if op == "asr":
        return f"(_signed({src}) >> {min(amount, 31)}) & 0xFFFFFFFF"
    if op == "ror":
        rot = amount % 32
        if rot == 0:
            return src
        return f"(({src} >> {rot}) | ({src} << {32 - rot})) & 0xFFFFFFFF"
    raise NotImplementedError(op)  # pragma: no cover


def _word_test(lo: str, total: int = 4) -> str:
    """The inline RAM test of ``total`` bytes of aligned words at ``lo``:
    ``_fast`` is the byte length the CPU's word view covers, 0 where it
    has none."""
    if total == 4:
        return f"not {lo} & 3 and {lo} < _fast"
    return f"not {lo} & 3 and {lo} + {total - 4} < _fast"


def _fixed_word(instr) -> bool:
    """A word load or store at an aligned immediate offset: the access a
    fixed base serves (see :func:`_fixed_bases`)."""
    return (
        type(instr) in (ins.LdrImm, ins.StrImm)
        and instr.size == 4
        and not instr.imm % 4
    )


def _base_accesses(steps) -> tuple[set, dict]:
    """The registers a trace writes, and base register -> the loads and
    stores off it."""
    written: set = set()
    accesses: dict = {}
    for _, instr, _ in steps:
        cls = type(instr)
        written.update(int(reg) for reg in instr.reg_defs())
        if cls in (ins.Push, ins.Pop):
            written.add(SP)
        elif cls is ins.Bl:
            written.add(14)
        elif cls in (ins.LdrImm, ins.LdrReg, ins.StrImm, ins.StrReg):
            accesses.setdefault(int(instr.rn), []).append(instr)
    return written, accesses


def _fixed_bases(steps, loop: bool) -> dict:
    """Base register -> ``(lowest, highest)`` word offset, for each base
    whose fixed-offset words the trace serves through a guard checked
    once in its prologue (:func:`_fixed_prologue`).

    A base qualifies when no instruction of the trace writes it, so its
    entry value holds throughout, and where the guard pays: it has a word
    load (a base only stored through is typically an MMIO base, such as
    the CFI unit's, where the guard always fails; see :func:`_mmio_bases`)
    and two word accesses, or one in a loop trace."""
    written, accesses = _base_accesses(steps)
    fixed = {}
    for reg, used in accesses.items():
        words = [i for i in used if _fixed_word(i)]
        if (
            reg not in written
            and (loop or len(words) > 1)
            and any(type(i) is ins.LdrImm for i in words)
        ):
            fixed[reg] = (min(i.imm for i in words), max(i.imm for i in words))
    return fixed


def _mmio_bases(steps, loop: bool) -> dict:
    """Base register -> its sorted word offsets, for each base whose
    stores a trace with a CFI monitor serves through flags set once in
    its prologue (:func:`_mmio_prologue`).

    A base qualifies when no instruction of the trace writes it and every
    access off it is a word store at an aligned immediate offset — the
    CFI unit's base in hardened code — with two such stores, or one in a
    loop trace."""
    written, accesses = _base_accesses(steps)
    return {
        reg: sorted({i.imm for i in used})
        for reg, used in accesses.items()
        if reg not in written
        and (loop or len(used) > 1)
        and all(type(i) is ins.StrImm and _fixed_word(i) for i in used)
    }


def _mmio_flag(reg: int, offset: int) -> str:
    """The suffix ``<N>_<k>`` of base N's flags for offset k (``n<k>``
    below the base)."""
    return f"{reg}_{offset}" if offset >= 0 else f"{reg}_n{-offset}"


def _mmio_prologue(mmio: dict) -> list[str]:
    """``_m<N>_<k>`` and ``_c<N>_<k>``: the word at offset k off base N is
    the CFI unit's merge or its check register.  ``(rN + k) & M`` equals
    an address exactly when rN equals the address minus k, mod 2**32."""
    lines = []
    for reg, offsets in sorted(mmio.items()):
        for k in offsets:
            flag = _mmio_flag(reg, k)
            lines += [
                f"_m{flag} = r{reg} == {(MMIO.CFI_MERGE - k) & WORD:#x}",
                f"_c{flag} = r{reg} == {(MMIO.CFI_CHECK - k) & WORD:#x}",
            ]
    return lines


def _fixed_prologue(fixed: dict) -> list[str]:
    """``_b<N>``, base N's word index, and its guard ``_ok<N>``: N is
    aligned, and the word at each of its offsets lies in the word view."""
    lines = []
    for reg, (lo, hi) in sorted(fixed.items()):
        top = f"r{reg} + {hi}" if hi else f"r{reg}"
        guard = f"not r{reg} & 3 and {top} < _fast"
        if lo < 0:
            guard += f" and r{reg} >= {-lo}"
        lines += [f"_b{reg} = r{reg} >> 2", f"_ok{reg} = {guard}"]
    return lines


def _emit_fixed(e: _Emitter, instr) -> Optional[str]:
    """Open the fixed-base branch of a word access: emit ``if _ok<N>:``
    and return the word's index expression for its one line there, or
    None (and emit nothing) when the access's base is not fixed.  The
    caller then emits the access's general code one level deeper, under
    ``else:``."""
    reg = int(instr.rn)
    if reg not in e.fixed or not _fixed_word(instr):
        return None
    k = instr.imm >> 2
    e.emit(f"if _ok{reg}:")
    if k > 0:
        return f"_b{reg} + {k}"
    return f"_b{reg} - {-k}" if k else f"_b{reg}"


def _emit_load(e: _Emitter, cpu, instr, fall: int) -> None:
    """LdrImm/LdrReg with an inline RAM fast path.

    In-range non-MMIO loads read RAM directly — an aligned word through
    the word view (off a fixed base without an address test), a byte or
    halfword from ``cpu.memory`` — and cannot halt; everything else goes
    through ``cpu.load`` + halt check."""
    e.needs.add("load")
    base = e.r(instr.rn)
    if type(instr) is ins.LdrImm:
        off = instr.imm
        addr = f"({base} + {off}) & 0xFFFFFFFF" if off else base
    else:
        addr = f"({base} + {e.r(instr.rm)}) & 0xFFFFFFFF"
    dest = e.w(instr.rt)
    e.fold(instr)
    cost = static_cost(instr, cpu)
    e.k += cost
    e.worst += cost
    e.count += 1
    index = _emit_fixed(e, instr)
    if index is not None:
        e.emit(f"{dest} = _w[{index}]", 1)
        e.emit("else:")
        e.indent += 1
    e.emit(f"_ad = {addr}")
    size = instr.size
    if size == 4:
        e.emit(f"if {_word_test('_ad')}:")
        e.emit(f"{dest} = _w[_ad >> 2]", 1)
    else:
        e.needs.add("mem")
        e.emit(f"if _ad + {size} <= _fast:")
        if size == 1:
            e.emit(f"{dest} = _mem[_ad]", 1)
        else:
            e.emit(f"{dest} = _mem[_ad] | (_mem[_ad + 1] << 8)", 1)
    e.emit("else:")
    e.emit(f"{dest} = _load(_ad, {size})", 1)
    e.emit_halt_check(fall, extra=1)
    if index is not None:
        e.indent -= 1


def _emit_store(e: _Emitter, cpu, instr, fall: int) -> None:
    """StrImm/StrReg with an inline RAM fast path.

    The fast path writes RAM directly — an aligned word through the word
    view (off a fixed base without an address test) — and keeps the
    dirty-page set current (``CPU.restore`` scrubs via it); a store
    off a fixed CFI base merges or checks through its prologue flags;
    MMIO, out-of-range and unaligned word stores take ``cpu.store`` and
    then drain CFI events and check for halts, exactly like the
    per-instruction loops."""
    e.needs.add("store")
    e.needs.add("dirty")
    base = e.r(instr.rn)
    val = e.r(instr.rt)
    if type(instr) is ins.StrImm:
        off = instr.imm
        addr = f"({base} + {off}) & 0xFFFFFFFF" if off else base
    else:
        addr = f"({base} + {e.r(instr.rm)}) & 0xFFFFFFFF"
    e.fold(instr)
    cost = static_cost(instr, cpu)
    e.k += cost
    e.worst += cost
    e.count += 1
    # The segment must be flushed before the store: a CFI event compares
    # against / merges into the state *after* this instruction's advance.
    e.emit_flush()
    index = _emit_fixed(e, instr)
    cfi_base = int(instr.rn) in e.mmio
    nested = True
    if index is not None:
        e.emit(f"_w[{index}] = {val}", 1)
        e.emit(f"_dirty.add(({index}) >> {PAGE_BITS - 2})", 1)
    elif cfi_base:
        # A store off a fixed CFI base: its prologue flags say which
        # register of the unit the word is, if any.
        flag = _mmio_flag(int(instr.rn), instr.imm)
        _emit_cfi_store(e, f"_m{flag}", f"_c{flag}", val, fall)
    else:
        nested = False
    if nested:
        e.emit("else:")
        e.indent += 1
    e.emit(f"_ad = {addr}")
    size = instr.size
    if size == 4:
        e.emit(f"if {_word_test('_ad')}:")
        e.emit(f"_w[_ad >> 2] = {val}", 1)
    else:
        e.needs.add("mem")
        e.emit(f"if _ad + {size} <= _fast:")
        if size == 1:
            e.emit(f"_mem[_ad] = {val} & 0xFF", 1)
        else:
            e.emit(f'_mem[_ad:_ad + 2] = ({val} & 0xFFFF).to_bytes(2, "little")', 1)
    e.emit(f"_dirty.add(_ad >> {PAGE_BITS})", 1)
    if size == 2:  # an aligned word never spans two pages, a halfword may
        e.emit(f"_dirty.add((_ad + 1) >> {PAGE_BITS})", 1)
    e.emit("else:")
    if e.monitor and not cfi_base:
        # CFI merge/check stores are the overwhelmingly common MMIO
        # stores under an attached monitor (one or more per hardened
        # block): apply them to ``ms`` directly instead of bouncing a
        # CfiEvent through cpu.store and the drain.  (Off a fixed CFI
        # base, the flags above took both registers already.)
        vexpr = val if size == 4 else f"({val} & {(1 << (8 * size)) - 1:#x})"
        _emit_cfi_store(e, f"_ad == {int(MMIO.CFI_MERGE):#x}",
                        f"_ad == {int(MMIO.CFI_CHECK):#x}", vexpr, fall, 1)
        e.emit("else:", 1)
        e.emit(f"_store(_ad, {val}, {size})", 2)
        _emit_event_drain(e, 2)
        e.emit_halt_check(fall, extra=2)
    else:
        e.emit(f"_store(_ad, {val}, {size})", 1)
        _emit_event_drain(e, 1)
        e.emit_halt_check(fall, extra=1)
    if nested:
        e.indent -= 1


def _emit_cfi_store(e: _Emitter, merge: str, check: str, value: str, fall: int,
                    extra: int = 0) -> None:
    """A store to the CFI unit, applied to ``ms`` as the monitor would:
    ``if <merge>:`` folds the 32-bit ``value`` in, ``elif <check>:``
    compares it, and a failed check halts.  The caller emits the
    ``else:`` for any other address."""
    e.emit(f"if {merge}:", extra)
    e.emit(f"ms = ms ^ {value}", extra + 1)
    e.emit(f"elif {check}:", extra)
    e.emit(f"if {value} != ms:", extra + 1)
    e.emit("_mon.violations += 1", extra + 2)
    e.emit("cpu.cfi_violation()", extra + 2)
    e.emit_halt_check(fall, extra=extra + 2)
    e.emit("else:", extra + 1)
    e.emit("_mon.checks_passed += 1", extra + 2)


def _emit_push(e: _Emitter, cpu, instr, fall: int) -> None:
    e.r(SP)
    e.w(SP)
    cost = static_cost(instr, cpu)
    if not instr.regs:
        e.fold(instr)
        e.k += cost
        e.worst += cost
        e.count += 1
        return
    e.needs.add("store")
    e.needs.add("dirty")
    vals = [e.r(reg) for reg in instr.regs]
    total = 4 * len(instr.regs)
    e.emit(f"_ad = (r13 - {total}) & 0xFFFFFFFF")
    e.fold(instr)
    e.k += cost
    e.worst += cost
    e.count += 1
    e.emit_flush()
    if SP in instr.regs:
        # push {sp}: stores the in-flight decremented sp — keep the
        # reference's sequential semantics via the slow helper.
        for reg in reversed(instr.regs):
            e.emit("r13 = (r13 - 4) & 0xFFFFFFFF")
            e.emit(f"_store(r13, r{int(reg)}, 4)")
        _emit_event_drain(e)
        e.emit_halt_check(fall)
        return
    e.emit(f"if {_word_test('_ad', total)}:")
    if len(vals) == 1:
        e.emit(f"_w[_ad >> 2] = {vals[0]}", 1)
    else:
        e.emit("_i = _ad >> 2", 1)
        for i, val in enumerate(vals):
            e.emit(f"_w[_i + {i}] = {val}" if i else f"_w[_i] = {val}", 1)
    e.emit("r13 = _ad", 1)
    e.emit(f"_dirty.add(_ad >> {PAGE_BITS})", 1)
    if total > 4:
        e.emit(f"_dirty.add((_ad + {total - 1}) >> {PAGE_BITS})", 1)
    e.emit("else:")
    for reg in reversed(instr.regs):
        e.emit("r13 = (r13 - 4) & 0xFFFFFFFF", 1)
        e.emit(f"_store(r13, r{int(reg)}, 4)", 1)
    _emit_event_drain(e, 1)
    e.emit_halt_check(fall, extra=1)


def _emit_pop(e: _Emitter, cpu, instr, fall: int) -> None:
    e.r(SP)
    e.w(SP)
    cost = static_cost(instr, cpu)
    if not instr.regs:
        e.fold(instr)
        e.k += cost
        e.worst += cost
        e.count += 1
        return
    e.needs.add("load")
    total = 4 * len(instr.regs)
    e.fold(instr)
    e.k += cost
    e.worst += cost
    e.count += 1
    if SP in instr.regs:
        # pop {..., sp}: popped sp redirects the remaining loads — keep
        # the reference's sequential semantics via the slow helper.
        for reg in instr.regs:
            e.emit(f"{e.w(reg)} = _load(r13, 4)")
            e.emit("r13 = (r13 + 4) & 0xFFFFFFFF")
        e.emit_halt_check(fall)
        return
    e.emit(f"if {_word_test('r13', total)}:")
    if len(instr.regs) == 1:
        e.emit(f"{e.w(instr.regs[0])} = _w[r13 >> 2]", 1)
    else:
        e.emit("_i = r13 >> 2", 1)
        for i, reg in enumerate(instr.regs):
            e.emit(f"{e.w(reg)} = _w[_i + {i}]" if i else f"{e.w(reg)} = _w[_i]", 1)
    e.emit(f"r13 = r13 + {total}", 1)
    e.emit("else:")
    for reg in instr.regs:
        e.emit(f"{e.w(reg)} = _load(r13, 4)", 1)
        e.emit("r13 = (r13 + 4) & 0xFFFFFFFF", 1)
    e.emit_halt_check(fall, extra=1)


def _emit_body_instr(e: _Emitter, cpu, addr: int, instr, width: int) -> None:
    """Inline one non-terminator instruction; halting memory ops emit a
    mid-trace exit returning the fall-through address."""
    cls = type(instr)
    fall = addr + width

    if cls is ins.B:
        # A followed-through unconditional jump: pure accounting — the
        # next emitted instruction is the branch target's.
        e.fold(instr)
        cost = static_cost(instr, cpu)
        e.k += cost
        e.worst += cost
        e.count += 1
        return

    if cls in (ins.LdrImm, ins.LdrReg):
        _emit_load(e, cpu, instr, fall)
        return
    if cls in (ins.StrImm, ins.StrReg):
        _emit_store(e, cpu, instr, fall)
        return
    if cls is ins.Push:
        _emit_push(e, cpu, instr, fall)
        return
    if cls is ins.Pop:
        _emit_pop(e, cpu, instr, fall)
        return

    if cls is ins.MovImm:
        imm = instr.imm & WORD
        e.emit(f"{e.w(instr.rd)} = {imm:#x}")
        e.emit_flags("cv")
        e.emit(f"{e.wf('n')} = {imm >> 31}")
        e.emit(f"{e.wf('z')} = {1 if imm == 0 else 0}")
    elif cls is ins.MovReg:
        src = e.r(instr.rm)
        e.emit(f"{e.w(instr.rd)} = {src}")
    elif cls is ins.Movw:
        e.emit(f"{e.w(instr.rd)} = {instr.imm & 0xFFFF:#x}")
    elif cls is ins.Movt:
        src = e.r(instr.rd)
        high = (instr.imm & 0xFFFF) << 16
        e.emit(f"{e.w(instr.rd)} = ({src} & 0xFFFF) | {high:#x}")
    elif cls is ins.Mvn:
        src = e.r(instr.rm)
        dest = e.w(instr.rd)
        e.emit(f"{dest} = (~{src}) & 0xFFFFFFFF")
        _emit_nz(e, dest)
    elif cls is ins.Alu:
        a = e.r(instr.rn)
        b = e.r(instr.rm)
        _emit_alu(e, instr.op, instr.rd, a, b, instr.s)
    elif cls is ins.AluImm:
        a = e.r(instr.rn)
        _emit_alu(e, instr.op, instr.rd, a, f"{instr.imm & WORD:#x}", instr.s)
    elif cls is ins.ShiftImm:
        src = e.r(instr.rn)
        value = _emit_shift(e, instr.op, src, instr.amount & 0xFF)
        dest = e.w(instr.rd)
        e.emit(f"{dest} = {value}")
        _emit_nz(e, dest)
    elif cls is ins.ShiftReg:
        src = e.r(instr.rn)
        amt = e.r(instr.rm)
        e.emit(f"_amt = {amt} & 0xFF")
        dest = e.w(instr.rd)
        if instr.op == "lsl":
            e.emit(f"{dest} = ({src} << _amt) & 0xFFFFFFFF if _amt < 32 else 0")
        elif instr.op == "lsr":
            e.emit(f"{dest} = ({src} >> _amt) if _amt < 32 else 0")
        elif instr.op == "asr":
            e.emit(
                f"{dest} = (_signed({src}) >> "
                "(_amt if _amt < 31 else 31)) & 0xFFFFFFFF"
            )
        elif instr.op == "ror":
            e.emit("_amt = _amt % 32")
            e.emit(
                f"{dest} = (({src} >> _amt) | "
                f"({src} << (32 - _amt))) & 0xFFFFFFFF"
            )
        else:  # pragma: no cover
            raise NotImplementedError(instr.op)
        _emit_nz(e, dest)
    elif cls is ins.Mul:
        a, b = e.r(instr.rn), e.r(instr.rm)
        e.emit(f"{e.w(instr.rd)} = ({a} * {b}) & 0xFFFFFFFF")
    elif cls is ins.Mla:
        acc, a, b = e.r(instr.ra), e.r(instr.rn), e.r(instr.rm)
        e.emit(f"{e.w(instr.rd)} = ({acc} + {a} * {b}) & 0xFFFFFFFF")
    elif cls is ins.Mls:
        acc, a, b = e.r(instr.ra), e.r(instr.rn), e.r(instr.rm)
        e.emit(f"{e.w(instr.rd)} = ({acc} - {a} * {b}) & 0xFFFFFFFF")
    elif cls is ins.Umull:
        a, b = e.r(instr.rn), e.r(instr.rm)
        e.emit(f"_p = {a} * {b}")
        e.emit(f"{e.w(instr.rdlo)} = _p & 0xFFFFFFFF")
        e.emit(f"{e.w(instr.rdhi)} = (_p >> 32) & 0xFFFFFFFF")
    elif cls is ins.Udiv:
        a, b = e.r(instr.rn), e.r(instr.rm)
        dest = e.w(instr.rd)
        # Cycles first: ``dest`` may be an operand.
        if e.div_inline:
            # The default model, open-coded (2-12 cycles by quotient
            # width) — skipping the per-division method call.
            e.emit(f"if {b}:")
            e.emit(
                f"cycles += _DIV_CYCLES[{a}.bit_length() - {b}.bit_length() + 32]",
                1,
            )
            e.emit(f"{dest} = ({a} // {b}) & 0xFFFFFFFF", 1)
            e.emit("else:")
            e.emit("cycles += 12", 1)
            e.emit(f"{dest} = 0", 1)
        else:
            e.needs.add("div")
            e.emit(f"cycles += _div({a}, {b})")
            e.emit(f"{dest} = ({a} // {b}) & 0xFFFFFFFF if {b} else 0")
    elif cls is ins.Sdiv:
        a, b = e.r(instr.rn), e.r(instr.rm)
        e.emit(f"_da = _signed({a})")
        e.emit(f"_db = _signed({b})")
        e.emit("if _db == 0:")
        e.emit(f"{e.w(instr.rd)} = 0", 1)
        e.emit("else:")
        e.emit("_q = abs(_da) // abs(_db)", 1)
        e.emit("if (_da < 0) != (_db < 0):", 1)
        e.emit("_q = -_q", 2)
        e.emit(f"r{int(instr.rd)} = _q & 0xFFFFFFFF", 1)
        if e.div_inline:
            e.emit(
                "cycles += _DIV_CYCLES[abs(_da).bit_length() - "
                "(abs(_db) or 1).bit_length() + 32]"
            )
        else:
            e.needs.add("div")
            e.emit("cycles += _div(abs(_da), abs(_db) or 1)")
    elif cls is ins.Umod:
        a, b = e.r(instr.rn), e.r(instr.rm)
        e.emit(f"_dd = {a}")
        e.emit(f"_ds = {b}")
        e.emit(f"{e.w(instr.rd)} = (_dd % _ds) & 0xFFFFFFFF if _ds else 0")
    elif cls is ins.CmpReg:
        a = e.r(instr.rn)
        b = e.r(instr.rm)
        _emit_adc(e, None, a, f"(~{b}) & 0xFFFFFFFF", "1")
    elif cls is ins.CmpImm:
        a = e.r(instr.rn)
        not_imm = (~(instr.imm & WORD)) & WORD
        _emit_adc(e, None, a, f"{not_imm:#x}", "1")
    elif cls is ins.LdrLit:
        assert instr.resolved is not None, f"unresolved literal {instr.symbol}"
        e.emit(f"{e.w(instr.rd)} = {instr.resolved & WORD:#x}")
    elif cls is ins.Nop:
        pass
    else:  # pragma: no cover - the partitioner never lets these in
        raise NotImplementedError(f"cannot inline {instr!r}")

    e.fold(instr)
    if cls in (ins.Udiv, ins.Sdiv):
        e.worst += e.div_bound  # dynamic charge: bound for the guard
    else:
        cost = static_cost(instr, cpu)
        e.k += cost
        e.worst += cost
    e.count += 1


def _emit_back_edge(e: _Emitter, taken_cost: int, worst_pass: int,
                    extra: int = 0) -> None:
    """A branch back to the trace entry: fold the static accumulators
    into the dynamic ``cycles``/``_n`` locals, rebase the stop countdown
    ``_s`` onto the next pass, and ``continue`` unless the stop is that
    pass's first instruction or the budget does not provably admit one
    more worst-case pass; then exit with the loop head as the next PC
    (the outer loop pauses there, or single-steps the near-timeout tail
    exactly).  Pending flags are computed first, so every pass starts
    with NZCV in its locals."""
    for line in e._flags_src():
        e.emit(line, extra)
    total = e.k + taken_cost
    if total:
        e.emit(f"cycles += {total}", extra)
    if e.count:
        e.emit(f"_n += {e.count}", extra)
    e.emit(f"_s -= {e.count}", extra)
    e.emit(f"if _s and cycles + {worst_pass} < max_cycles:", extra)
    e.emit("continue", extra + 1)
    e.emit_break(0, extra)


def _branch_cond(e: _Emitter, instr, cond: str) -> str:
    """The expression of ``instr`` branching under ``cond``: eq/ne/hs/lo
    test a pending flag-setting add/sub/cmp's sum directly, every other
    flag condition computes the pending flags first."""
    if type(instr) is not ins.Bcc:
        return _fused_cond_expr(e, instr, cond)
    if e.pending and cond in _PENDING_COND:
        return _PENDING_COND[cond]
    e.emit_flags()
    expr, flags = _COND_EXPR[cond]
    for flag in flags:
        e.f(flag)
    return expr


def _emit_side_exit(e: _Emitter, cpu, addr: int, instr, width: int,
                    start: int, worst_pass: int,
                    follow_taken: bool = False) -> None:
    """A ``Bcc`` inside a trace.

    Normally the taken arm exits (or closes the loop) and fall-through
    continues the trace; with ``follow_taken`` the roles swap — the
    condition is inverted, the fall-through address becomes the exit,
    and the trace continues at the branch target."""
    e.fold(instr)
    e.count += 1
    taken = cpu._c_branch_taken
    not_taken = cpu._c_branch_not_taken
    e.worst += max(taken, not_taken)
    e.emit_flush()
    if follow_taken:
        e.emit(f"if {_branch_cond(e, instr, _COND_INV[instr.cond])}:")
        e.emit_epilogue(extra_cycles=not_taken, extra=1)
        e.emit(f"return {addr + width:#x}", 1)
        e.k += taken
        return
    e.emit(f"if {_branch_cond(e, instr, instr.cond)}:")
    if e.loop and instr.target == start:
        _emit_back_edge(e, taken, worst_pass, extra=1)
    else:
        e.emit_epilogue(extra_cycles=taken, extra=1)
        e.emit(f"return {instr.target:#x}", 1)
    e.k += not_taken


def _emit_terminator(e: _Emitter, cpu, image, addr: int, instr, width: int,
                     start: int = -1, worst_pass: int = 0) -> None:
    """Inline a trace-ending control transfer (inline variants only)."""
    cls = type(instr)
    fall = addr + width

    if cls is ins.B:
        e.fold(instr)
        cost = static_cost(instr, cpu)
        e.count += 1
        e.worst += cost
        e.emit_flush()
        if e.loop and instr.target == start:
            _emit_back_edge(e, cost, worst_pass)
        else:
            e.k += cost
            e.emit_epilogue()
            e.emit(f"return {instr.target:#x}")
    elif cls is ins.Bl:
        # LR comes from the static address: hooks never run inside a
        # trace, so regs[PC] == addr here by construction (the per-
        # instruction engines agree whenever no pre-hook is pending).
        e.emit(f"{e.w(14)} = {addr + 4:#x}")
        e.fold(instr)
        cost = static_cost(instr, cpu)
        e.k += cost
        e.worst += cost
        e.count += 1
        e.emit_flush()
        if e.monitor:
            e.emit("_mon.call_stack.append(ms)")
            callee = image.function_of(instr.target)
            if callee is not None:
                e.emit(f"ms = {entry_state(callee):#x}")
        e.emit_epilogue()
        e.emit(f"return {instr.target:#x}")
    elif cls is ins.BxLr:
        e.emit(f"_t = {e.r(14)}")
        exit_code = e.r(0)
        e.fold(instr)
        cost = static_cost(instr, cpu)
        e.k += cost
        e.worst += cost
        e.count += 1
        e.emit_flush()
        e.emit_flags()  # once, for both epilogues
        if e.monitor:
            e.emit("if _mon.call_stack:")
            e.emit("ms = _mon.call_stack.pop()", 1)
        e.emit(f"if _t == {MAGIC_RETURN:#x}:")
        e.emit("cpu.status = _EXIT", 1)
        e.emit(f"cpu.exit_code = {exit_code}", 1)
        e.emit_epilogue(extra=1)
        e.emit(f"return {fall:#x}", 1)
        e.emit_epilogue()
        e.emit(f"return _t & {MAGIC_RETURN:#x}")
    elif cls is ins.Udf:
        e.emit("cpu.status = _FAULT")
        e.emit(f"cpu.detect_code = {instr.code}")
        e.fold(instr)
        e.k += 1
        e.worst += 1
        e.count += 1
        e.emit_flush()
        e.emit_epilogue()
        e.emit(f"return {fall:#x}")
    else:  # pragma: no cover
        raise NotImplementedError(f"cannot inline terminator {instr!r}")


def _emit_trace(block: _Block, cpu, image, monitor: bool, inline: bool,
                loop: bool, worst_pass: int, preset, div_bound: int,
                fixed: dict, mmio: dict) -> _Emitter:
    """Emit one trace/block body into a fresh emitter."""
    has_div = any(type(i) in (ins.Udiv, ins.Sdiv) for _, i, _ in block.body)
    e = _Emitter(monitor, cycles_local=has_div, loop=loop, preset=preset)
    e.fixed = fixed
    e.mmio = mmio
    e.div_bound = div_bound
    e.div_inline = type(cpu.cycles_model).div is CycleModel.div
    start = block.addr
    for addr, instr, width in block.body:
        e.emit_stop_check(addr)
        if type(instr) in ins.BCC_CLASSES:
            _emit_side_exit(e, cpu, addr, instr, width, start, worst_pass,
                            follow_taken=addr in block.taken)
        else:
            _emit_body_instr(e, cpu, addr, instr, width)
    term = block.term if inline else None
    if term is not None:
        e.emit_stop_check(term[0])
        _emit_terminator(e, cpu, image, *term, start=start,
                         worst_pass=worst_pass)
    elif block.fall_loop:
        # The walk wrapped around into its own entry point: the trace
        # falls through into the next iteration.
        e.emit_flush()
        _emit_back_edge(e, 0, worst_pass)
    else:
        e.emit_flush()
        e.emit_epilogue()
        e.emit(f"return {block.exit_addr:#x}")
    return e


#: the globals every generated trace function reads
_TRACE_GLOBALS = {
    "_signed": _signed,
    "_RUNNING": Status.RUNNING,
    "_EXIT": Status.EXIT,
    "_FAULT": Status.FAULT_DETECTED,
    # default-model div cycles of a nonzero divisor, by the operands'
    # bit-length difference + 32 (see CycleModel.div: 2-cycle setup, ~3
    # quotient bits per cycle, cap 12)
    "_DIV_CYCLES": tuple(
        min(12, 2 + (max(0, d + 1) + 2) // 3) for d in range(-32, 33)
    ),
    "_drain": _drain,
}


def _shared_exit(e: _Emitter) -> list[str]:
    """The shared exit after the body's ``while True:``, which a stop, a
    halt and a loop's budget exit break out to with ``_s`` set to an
    offset in the pass.  It publishes the state before the instruction at
    that offset: every register and flag local bound by then (a local
    the prologue does not load is bound once the instruction that first
    writes it has run; flags still pending there are computed first),
    the static cycles and the pending monitor segment from that offset's
    ``_STOPS`` row, and ``_s`` instructions (plus the ``_n`` of earlier
    passes)."""
    lines = ["_row = _STOPS[_s]"]
    if any(row[4] for row in e.stops.values()):
        lines.append("if _row[4]:")  # NZCV pending at that offset
        lines += ["    " + line for line in _PENDING_FLAG.values()]
    published = [(f"r{reg}", f"regs[{reg}]", reg) for reg in sorted(e.written)]
    published += [(flag, f"cpu.{flag}", flag)
                  for flag in ("n", "z", "c", "v") if flag in e.fwritten]
    for local, target, key in published:
        born = e.born.get(key)
        if born is None:
            lines.append(f"{target} = {local}")
        else:
            lines.append(f"if _s > {born}: {target} = {local}")
    if e.cycles_local:
        lines.append("cpu.cycles = cycles + _row[1]")
    else:
        lines.append("cpu.cycles += _row[1]")
    count = "_s"
    if e.loop:
        lines.append("_n += _s")
        count = "_n"
    lines.append(f"cpu.retired += {count}")
    lines.append(f"cpu.dyn_index += {count}")
    if e.monitor:
        lines.append("_rot = _row[2]")
        lines.append(
            "_mon.state = (((ms << _rot) | (ms >> (32 - _rot))) "
            "& 0xFFFFFFFF) ^ _row[3]"
        )
    lines.append("return _row[0]")
    return ["    " + line for line in lines]


def _compile_trace(block: _Block, cpu, monitor: bool, inline: bool,
                   div_bound: int) -> tuple:
    """Generate + exec one trace function; returns ``(function,
    worst-case cycles of one pass)``.

    ``monitor``: fold the CFI monitor state advance into the trace.
    ``inline``: inline side exits and terminators (disabled when a
    SpecEngine with a non-zero window owns Bcc retirement).
    """
    image = cpu.image
    loop = block.loop and inline
    steps = block.body + [block.term] if block.term is not None else block.body
    fixed = _fixed_bases(steps, loop)
    mmio = _mmio_bases(steps, loop) if monitor else {}
    if loop:
        # Pass A: discover the full register/flag footprint and the
        # worst-case single-pass cost; pass B presets both so every
        # exit publishes everything any iteration may have written.
        probe = _emit_trace(block, cpu, image, monitor, inline,
                            loop=True, worst_pass=0, preset=None,
                            div_bound=div_bound, fixed=fixed, mmio=mmio)
        worst = max(probe.worst, 1)
        preset = (
            probe.reads | probe.written,
            set(probe.written),
            probe.freads | probe.fwritten,
            set(probe.fwritten),
        )
        e = _emit_trace(block, cpu, image, monitor, inline, loop=True,
                        worst_pass=worst, preset=preset,
                        div_bound=div_bound, fixed=fixed, mmio=mmio)
    else:
        e = _emit_trace(block, cpu, image, monitor, inline, loop=False,
                        worst_pass=0, preset=None, div_bound=div_bound,
                        fixed=fixed, mmio=mmio)
        worst = e.worst
    assert not (fixed.keys() | mmio.keys()) & e.written, "a fixed base is written"
    name = f"_t{block.addr:x}"
    prologue = [f"def {name}(cpu, regs, max_cycles, stop):"]
    for reg in sorted(e.reads):
        prologue.append(f"    r{reg} = regs[{reg}]")
    for flag in ("n", "z", "c", "v"):
        if flag in e.freads:
            prologue.append(f"    {flag} = cpu.{flag}")
    if e.cycles_local:
        prologue.append("    cycles = cpu.cycles")
    if "load" in e.needs or "store" in e.needs:
        prologue.append("    _w = cpu._words")
        prologue.append("    _fast = len(_w) << 2")
        prologue += ["    " + line for line in _fixed_prologue(fixed)]
        prologue += ["    " + line for line in _mmio_prologue(mmio)]
    if "mem" in e.needs:
        prologue.append("    _mem = cpu.memory")
    if "dirty" in e.needs:
        prologue.append("    _dirty = cpu._dirty_pages")
    if "load" in e.needs:
        prologue.append("    _load = cpu.load")
    if "store" in e.needs:
        prologue.append("    _store = cpu.store")
    if "div" in e.needs:
        prologue.append("    _div = cpu.cycles_model.div")
    if "ev" in e.needs:
        prologue.append("    _ev = cpu._cfi_events")
    if monitor:
        prologue.append("    _mon = cpu.monitor")
        prologue.append("    ms = _mon.state")
    if loop:
        prologue.append("    _n = 0")
    # The stop's offset in the pass: the trace breaks out of its ``while
    # True:`` when an instruction's offset equals it (see
    # _Emitter.emit_stop_check).
    prologue.append("    _s = stop - cpu.dyn_index")
    prologue.append("    while True:")
    namespace = dict(_TRACE_GLOBALS)
    lines = prologue + e.lines
    if e.shared:
        namespace["_STOPS"] = tuple(e.stops[i] for i in range(len(e.stops)))
        lines += _shared_exit(e)
    exec(compile("\n".join(lines), "<superblock>", "exec"), namespace)
    return namespace[name], worst


class _Variant:
    """The traces of one image with or without a CFI monitor, under one
    speculation window, compiled one at a time and shared by every CPU
    of that variant."""

    __slots__ = ("inline", "monitor", "div_bound", "traces", "seen", "cold")

    def __init__(self, inline: bool, monitor: bool, div_bound: int):
        self.inline = inline
        self.monitor = monitor
        self.div_bound = div_bound
        #: start address -> (function, worst-case cycles of one pass), for
        #: partition entries and suffixes alike
        self.traces: dict = {}
        #: addresses a run reached once: their trace compiles at the next
        #: reach
        self.seen: set = set()
        #: addresses the chaining loop reached where no trace can start
        #: (an r15-touching instruction, no instruction, a speculative
        #: block's terminator)
        self.cold: set = set()


def _image_cache(image) -> dict:
    cache = image._superblock_cache
    if cache is None:
        cache = image._superblock_cache = {}
    return cache


def _inline(cpu) -> bool:
    """Whether ``cpu``'s traces inline ``Bcc`` (no speculative window
    owns conditional-branch retirement)."""
    return cpu.spec is None or not cpu.spec.window


def _partition(image, inline: bool) -> _Partition:
    cache = _image_cache(image)
    key = "traces" if inline else "blocks"
    partition = cache.get(key)
    if partition is None:
        partition = cache[key] = partition_image(image, traces=inline)
    return partition


def _variant(cpu) -> _Variant:
    """``cpu``'s variant: its key is computed on the first call and the
    variant kept on the CPU."""
    variant = cpu._sb_variant
    if variant is None:
        cache = _image_cache(cpu.image)
        inline = _inline(cpu)
        monitor = cpu.monitor is not None
        key = (monitor, inline)
        variant = cache.get(key)
        if variant is None:
            variant = cache[key] = _Variant(
                inline, monitor, _div_bound(cpu.cycles_model)
            )
        cpu._sb_variant = variant
    return variant


def trace_entries(cpu) -> dict:
    """Entry address -> block of every trace a superblock CPU like
    ``cpu`` (same image and speculation window) can compile.  Builds the
    image's partition on the first call and compiles nothing: golden
    capture places its ladder checkpoints at these addresses, so trials
    fork and probe on a trace entry."""
    return _partition(cpu.image, _inline(cpu)).entries


def superblock_tables(cpu, entry: Optional[int] = None) -> dict:
    """The trace table of ``cpu``'s variant: start address ->
    ``(function, worst-case cycles of one pass)``.  A trace function is
    called as ``function(cpu, regs, max_cycles, stop)`` and returns the
    next PC; it pauses exactly when ``cpu.dyn_index`` reaches ``stop``,
    and a ``stop`` at or below ``cpu.dyn_index`` never pauses it.

    With ``entry``, first compile the trace that starts there unless it
    is compiled already (the chaining loop's compile-on-demand): the
    partition's trace when ``entry`` is one of its entries, else the
    suffix from ``entry`` to the next one (:meth:`_Partition.suffix`).
    Without, compile the trace of every partition entry.  The partition
    is built at the first compile."""
    variant = _variant(cpu)
    partition = _partition(cpu.image, variant.inline)
    traces = variant.traces
    for addr in partition.entries if entry is None else (entry,):
        if addr in traces:
            continue
        block = partition.entries.get(addr) or partition.suffix(addr)
        if block is None:
            variant.cold.add(addr)
        else:
            traces[addr] = _compile_trace(
                block, cpu, variant.monitor, variant.inline, variant.div_bound
            )
    return traces


# ---------------------------------------------------------------------------
# The chaining run loop
# ---------------------------------------------------------------------------
def run_superblock(
    cpu, max_cycles: int, stop_at_instruction: Optional[int] = None
) -> None:
    """Superblock dispatch with windowed deoptimisation.

    Mirrors the reference step loop's observable behaviour exactly; see
    the module docstring for the deopt contract.
    """
    pre_hooks = cpu.pre_hooks
    retire_hooks = cpu.retire_hooks
    monitor = cpu.monitor
    # Traces fold the monitor, so the only retire hook they can stand in
    # for is the monitor's own.
    traced = retire_hooks == ([monitor.on_retire] if monitor is not None else [])
    lo = hi = None
    for hook in pre_hooks:
        window = getattr(hook, "fire_window", None)
        if window is None:
            traced = False
            break
        lo = window[0] if lo is None else min(lo, window[0])
        hi = window[1] if hi is None else max(hi, window[1])
    if not traced:
        # Full deoptimisation: unbounded fault models and foreign retire
        # hooks step the whole run on the reference path.
        cpu._run_reference(max_cycles, stop_at_instruction)
        return

    stop = NO_STOP if stop_at_instruction is None else stop_at_instruction
    if hi is not None and cpu.dyn_index < hi:
        # Traces up to the slot before the window, then the window
        # stepped with its hooks consulted.  Each phase checks the budget
        # before its stop, as the step loop does, and a phase that halts
        # or times out leaves the next ones nothing to run.
        chain(cpu, max_cycles, min(lo - 1, stop))
        retired = cpu.retired
        cpu._run_reference(max_cycles, min(hi, stop))
        cpu._sb_steps += cpu.retired - retired
    chain(cpu, max_cycles, stop)


def chain(cpu, max_cycles: int, stop: int) -> None:
    """Chain compiled traces until ``cpu.dyn_index`` reaches ``stop``
    (:data:`NO_STOP` for none), compiling them on demand at any address
    (see *Lazy compilation*); a trace the stop falls in pauses exactly
    there.  Code reached the first time, addresses where no trace can
    start, near-timeout traces and a pending ``branch_invert`` take the
    reference step without its pre-hooks (no window is open here), which
    also retires a speculating CPU's ``Bcc`` through its SpecEngine.
    Like the step loop, it checks the budget before the stop, and does
    nothing once the CPU has halted."""
    variant = _variant(cpu)
    traces = variant.traces
    seen = variant.seen
    cold = variant.cold
    # Without a stop the traces are handed 0, a stop behind them: their
    # countdown then never matches and stays a small int, which the
    # interpreter compares fastest.
    trace_stop = stop if stop < NO_STOP else 0
    decode = cpu._decode
    regs = cpu.regs
    retire = cpu._retire
    RUNNING = Status.RUNNING
    nblk = 0
    nstep = 0
    try:
        while cpu.status is RUNNING:
            if cpu.cycles >= max_cycles:
                cpu.status = Status.TIMEOUT
                return
            if cpu.dyn_index >= stop:
                return
            pc = regs[PC]
            blk = traces.get(pc)
            if blk is None and pc not in cold:
                if pc in seen:
                    blk = superblock_tables(cpu, pc).get(pc)
                else:
                    # A trace compiles at its second reach: a run that
                    # passes once (a warm-up trial) steps through instead
                    # of paying a compile for a few dozen instructions.
                    seen.add(pc)
            # Compiled traces evaluate fused branch conditions inline and
            # never consult the one-shot branch_invert latch; while it is
            # pending, step (the reference Bcc semantics consume it).
            if (
                blk is not None
                and cpu.cycles + blk[1] < max_cycles
                and not cpu.branch_invert
            ):
                regs[PC] = blk[0](cpu, regs, max_cycles, trace_stop)
                nblk += 1
                continue
            entry = decode.get(pc)
            if entry is None:
                cpu.status = Status.DECODE_ERROR
                return
            cpu.dyn_index += 1
            retire(pc, *entry)
            nstep += 1
    finally:
        cpu._sb_blocks += nblk
        cpu._sb_steps += nstep
