"""The CPU simulator.

Executes a :class:`~repro.isa.assembler.CodeImage` with:

* cycle accounting via the target's :class:`~repro.isa.cycles.CycleModel`,
* MMIO (exit/console/fault report/CFI unit),
* retire hooks (the CFI monitor observes every retired instruction and the
  CFI-unit writes it caused),
* fault-injection hooks (run before each instruction; may mutate state or
  skip the instruction — the paper's instruction-skip and bit-flip models).

Returning from the entry function (``BX lr`` with the magic link value)
halts with status EXIT and the value of r0.

Dispatch
--------
Two execution paths share identical semantics:

* ``dispatch="superblock"`` (default): traces are exec-compiled, one at a
  time as runs reach them, into single Python functions with
  registers/flags pinned to locals and a chaining loop between them
  (:mod:`repro.isa.superblock`).  Fault-model hooks deoptimise to the
  reference step inside their fire window, and ``stop_at_instruction``
  pauses inside a trace.  Every forked fault trial runs here.
* ``dispatch="reference"``: :meth:`CPU.step` over the image's decode
  cache (``addr -> (instr, width)``), with :meth:`CPU.execute` looking
  each instruction's class up in :data:`EXECUTE`.  It is the differential
  oracle, and every instruction a superblock run does not run compiled
  (fault windows, code reached the first time, near-timeout tails)
  steps here too.  Golden capture runs its own loop over the same
  decode cache and ``execute``.

Checkpointing
-------------
Every CPU of an image starts with a copy of the image's pristine memory
(:data:`MEM_SIZE` zero bytes plus the data image, built by the image's
first CPU) and records in ``_dirty_pages`` each 1 KiB page it writes, so
a page outside that set holds its pristine bytes.
:meth:`CPU.snapshot` captures the full state (registers, flags, counters,
console, the dirty pages' bytes, and the attached CFI monitor), and
:meth:`CPU.restore` puts any CPU of the same image into exactly that
state, whatever it ran since: dirty pages the snapshot lacks go back to
pristine, and the snapshot's pages are laid down.  The fault-campaign
trial scheduler forks thousands of trials from mid-run checkpoints this
way, onto CPUs the previous trials left dirty.

Division semantics
------------------
``UDIV``/``SDIV`` follow the ARMv7-M DIV_0_TRP=0 behaviour: a zero divisor
yields a zero quotient and execution continues — there is no divide-by-zero
trap status.  (An earlier ``Status.DIV_BY_ZERO`` enum member suggested a
trap that was never implemented; it has been removed.)
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.isa import instructions as ins
from repro.isa.assembler import CodeImage
from repro.isa.mmio import MMIO
from repro.isa.registers import LR, PC, SP

if TYPE_CHECKING:  # pragma: no cover
    from repro.spec.config import SpecConfig
    from repro.spec.transient import SpecSummary

WORD = 0xFFFFFFFF
MAGIC_RETURN = 0xFFFF_FFFE
STACK_TOP = 0x0010_0000
MEM_SIZE = 0x0020_0000

#: Dirty-page granularity for copy-on-write snapshots (1 KiB pages).
PAGE_BITS = 10
PAGE_SIZE = 1 << PAGE_BITS

#: Schema version of :class:`CpuSnapshot`.  Bumped whenever the captured
#: state changes shape; :meth:`CPU.restore` refuses a mismatched snapshot
#: instead of silently reinstating partial state.
#:
#: v1: architectural state + CFI monitor.
#: v2: + speculation state (predictor, counters, transient-trace hash).
#: v3: memory as dirty pages only.
SNAPSHOT_VERSION = 3


class Status(enum.Enum):
    RUNNING = "running"
    EXIT = "exit"
    FAULT_DETECTED = "fault-detected"
    CFI_VIOLATION = "cfi-violation"
    MEM_ERROR = "memory-error"
    DECODE_ERROR = "decode-error"
    TIMEOUT = "timeout"


@dataclass
class ExecutionResult:
    status: Status
    exit_code: int
    cycles: int
    instructions: int
    detect_code: int = 0
    console: str = ""
    #: speculation summary when the CPU ran with a SpecConfig (None
    #: otherwise).  Excluded from equality: two runs are architecturally
    #: equal regardless of what their wrong paths touched — transient
    #: observability is compared explicitly via ``spec.digest``.
    spec: Optional["SpecSummary"] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status is Status.EXIT


@dataclass
class CfiEvent:
    """A store this instruction performed to the CFI unit."""

    addr: int
    value: int


@dataclass
class CpuSnapshot:
    """A resumable copy of the full simulator state at an instruction
    boundary (plus the CFI monitor's, when one is attached).

    ``pages`` holds the bytes of the 1 KiB pages the CPU had dirtied; every
    other page held the image's pristine bytes.  Restoring onto any CPU of
    the same image re-establishes the exact state.
    """

    regs: list[int]
    n: int
    z: int
    c: int
    v: int
    status: Status
    exit_code: int
    detect_code: int
    cycles: int
    retired: int
    dyn_index: int
    console: list[str]
    pages: dict[int, bytes]
    monitor: Optional[tuple]
    #: schema guard — restore() refuses snapshots from another schema.
    version: int = SNAPSHOT_VERSION
    #: speculation-engine state (predictor, counters, trace hash), or
    #: None when the CPU runs without a SpecConfig.
    spec: Optional[tuple] = None


class CPU:
    def __init__(
        self,
        image: CodeImage,
        dispatch: str = "superblock",
        spec: Optional["SpecConfig"] = None,
    ):
        if dispatch not in ("superblock", "reference"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.image = image
        from repro.target import get_target  # late: avoids import cycle

        target = get_target(image.target)
        self.cycles_model = target.cycle_model()
        #: whether this target's conditional branches read NZCV flags;
        #: False on fused register-compare targets (rv32).  Fault models
        #: consult it when a glitch is timed away from any branch.
        self.flag_branches = target.flag_branches
        pristine = image._pristine
        if pristine is None:
            memory = bytearray(MEM_SIZE)
            for addr, payload in image.data_image:
                memory[addr : addr + len(payload)] = payload
            pristine = image._pristine = bytes(memory)
        else:
            memory = bytearray(pristine)
        self.memory = memory
        #: the image's pristine memory, which :meth:`restore` puts clean
        #: pages back from
        self._pristine = pristine
        #: pages whose bytes may differ from ``_pristine``: every write to
        #: ``memory`` (stores, compiled traces, fault hooks) marks its page
        self._dirty_pages: set[int] = set()
        #: ``memory`` as 32-bit words, aliasing it for the CPU's lifetime
        #: (nothing rebinds ``memory``): compiled traces serve aligned word
        #: accesses through it (see repro.isa.superblock)
        self._words = _word_view(self.memory)
        self.regs = [0] * 16
        self.n = self.z = self.c = self.v = 0
        self.status = Status.RUNNING
        self.exit_code = 0
        self.detect_code = 0
        self.cycles = 0
        self.retired = 0
        self.console_chars: list[str] = []
        #: index of the *next* dynamic instruction (used by fault hooks)
        self.dyn_index = 0
        #: hooks: f(cpu, instr) -> True to skip the instruction
        self.pre_hooks: list[Callable] = []
        #: observers: f(cpu, instr, cfi_events) after each retirement
        self.retire_hooks: list[Callable] = []
        #: the attached CfiMonitor, if any (set by the monitor itself);
        #: included in snapshot()/restore().
        self.monitor = None
        self._cfi_events: list[CfiEvent] = []
        self._pending_pc: Optional[int] = None
        #: one-shot latch: the next fused register-compare branch takes
        #: the wrong direction (fault models' branch inversion on flagless
        #: targets, where forcing NZCV would be a silent no-op).
        self.branch_invert = False
        self.dispatch = dispatch
        #: superblock-engine work counters (repro.obs feeds on these):
        #: compiled blocks chained / deopt single-steps taken.
        self._sb_blocks = 0
        self._sb_steps = 0
        #: this CPU's trace table variant, looked up on the first
        #: superblock run (see repro.isa.superblock)
        self._sb_variant = None
        #: addr -> (instr, width); shared per image.
        self._decode = image.decode_cache()
        # Snapshot the cycle model's constant costs once: compiled traces
        # bake them in, and the speculative branch retire charges them.
        model = self.cycles_model
        self._c_alu = model.alu()
        self._c_mul = model.mul()
        self._c_mla = model.mla()
        self._c_umull = model.umull()
        self._c_umod = model.umod()
        self._c_load = model.load()
        self._c_store = model.store()
        self._c_branch_taken = model.branch_taken()
        self._c_branch_not_taken = model.branch_not_taken()
        self._c_call = model.call()
        self._c_ret = model.ret()
        self._c_nop = model.nop()
        #: the attached SpecEngine when speculating, else None.  With a
        #: non-zero window every stepped ``Bcc`` retires through
        #: :meth:`SpecEngine.retire_bcc` (see :meth:`_retire`).
        self.spec = None
        if spec is not None:
            from repro.spec.transient import SpecEngine

            self.spec = SpecEngine(self, spec)

    # ------------------------------------------------------------------
    # Setup / top-level run
    # ------------------------------------------------------------------
    def call(self, function: str, args: list[int] | None = None) -> None:
        """Arrange registers/stack to start executing ``function``."""
        args = args or []
        if len(args) > 4:
            raise ValueError("at most 4 register arguments supported")
        for i, a in enumerate(args):
            self.regs[i] = a & WORD
        self.regs[SP] = STACK_TOP
        self.regs[LR] = MAGIC_RETURN
        self.regs[PC] = self.image.labels[function]

    def run(
        self,
        max_cycles: int = 10_000_000,
        stop_at_instruction: Optional[int] = None,
    ) -> ExecutionResult:
        """Run until halt/timeout.

        ``stop_at_instruction`` pauses the loop (status stays RUNNING) once
        ``dyn_index`` reaches the given count: dynamic slots, skipped
        instructions included, so without a skipping hook it equals
        ``retired``.  The checkpoint scheduler uses this to slice the
        golden run into snapshot intervals, and to pause a trial at the
        ladder checkpoint it compares against the golden run.
        """
        if self.dispatch == "reference":
            self._run_reference(max_cycles, stop_at_instruction)
        else:
            from repro.isa.superblock import run_superblock

            run_superblock(self, max_cycles, stop_at_instruction)
        return self.result()

    def result(self) -> ExecutionResult:
        """The run's result so far."""
        return ExecutionResult(
            status=self.status,
            exit_code=self.exit_code,
            cycles=self.cycles,
            instructions=self.retired,
            detect_code=self.detect_code,
            console="".join(self.console_chars),
            spec=self.spec.summary() if self.spec is not None else None,
        )

    def _run_reference(
        self, max_cycles: int, stop_at_instruction: Optional[int]
    ) -> None:
        """Step until a halt, the cycle budget, or ``dyn_index`` reaching
        ``stop_at_instruction``."""
        step = self.step
        RUNNING = Status.RUNNING
        while self.status is RUNNING:
            if self.cycles >= max_cycles:
                self.status = Status.TIMEOUT
                return
            if (
                stop_at_instruction is not None
                and self.dyn_index >= stop_at_instruction
            ):
                return
            step()

    # ------------------------------------------------------------------
    # One instruction (reference path)
    # ------------------------------------------------------------------
    def step(self) -> None:
        pc = self.regs[PC]
        entry = self._decode.get(pc)
        if entry is None:
            self.status = Status.DECODE_ERROR
            return
        instr, width = entry
        self.dyn_index += 1
        skip = False
        for hook in self.pre_hooks:
            if hook(self, instr):
                skip = True
        if skip:
            # Instruction skip: PC advances, nothing retires, 1 cycle burns.
            self.regs[PC] = pc + width
            self.cycles += 1
            return
        self._retire(pc, instr, width)

    def _retire(self, pc: int, instr, width: int) -> None:
        """Execute ``instr``, the instruction at ``pc``, move the PC on,
        and call the retire hooks.  A speculating CPU retires ``Bcc``
        through its :class:`~repro.spec.transient.SpecEngine`."""
        events = self._cfi_events
        events.clear()
        spec = self.spec
        if spec is not None and spec.window and type(instr) in ins.BCC_CLASSES:
            self.regs[PC] = spec.retire_bcc(self, instr, pc, width)
        else:
            self._pending_pc = None
            self.execute(instr)
            pending = self._pending_pc
            self.regs[PC] = pc + width if pending is None else pending
        self.retired += 1
        if self.retire_hooks:
            events = list(events)
            for hook in self.retire_hooks:
                hook(self, instr, events)

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpoint forking)
    # ------------------------------------------------------------------
    def snapshot(self) -> CpuSnapshot:
        """Capture the state at the current instruction boundary."""
        mem = self.memory
        pages = {
            page: bytes(mem[page << PAGE_BITS : (page + 1) << PAGE_BITS])
            for page in self._dirty_pages
        }
        return CpuSnapshot(
            regs=list(self.regs),
            n=self.n,
            z=self.z,
            c=self.c,
            v=self.v,
            status=self.status,
            exit_code=self.exit_code,
            detect_code=self.detect_code,
            cycles=self.cycles,
            retired=self.retired,
            dyn_index=self.dyn_index,
            console=list(self.console_chars),
            pages=pages,
            monitor=self.monitor.snapshot_state() if self.monitor else None,
            version=SNAPSHOT_VERSION,
            spec=self.spec.snapshot_state() if self.spec is not None else None,
        )

    def restore(self, snap: CpuSnapshot) -> None:
        """Put this CPU into the snapshot's exact state.  The snapshot may
        come from any CPU of the same image, and this CPU may be in any
        state: its dirty pages the snapshot lacks go back to pristine, the
        snapshot's pages are laid down, and its dirty set becomes the
        snapshot's."""
        if snap.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"cannot restore CpuSnapshot schema v{snap.version} onto a "
                f"v{SNAPSHOT_VERSION} simulator — re-capture the snapshot "
                f"with the current repro.isa build"
            )
        if (snap.spec is None) != (self.spec is None):
            have = "a speculative" if self.spec is not None else "a plain"
            took = "a speculative" if snap.spec is not None else "a plain"
            raise ValueError(
                f"snapshot was captured on {took} CPU but is being restored "
                f"onto {have} one — prepare the target with the same "
                f"SpecConfig the snapshot was taken under"
            )
        self.regs[:] = snap.regs
        self.n, self.z, self.c, self.v = snap.n, snap.z, snap.c, snap.v
        self.status = snap.status
        self.exit_code = snap.exit_code
        self.detect_code = snap.detect_code
        self.cycles = snap.cycles
        self.retired = snap.retired
        self.dyn_index = snap.dyn_index
        self.console_chars[:] = snap.console
        memory, pristine, pages = self.memory, self._pristine, snap.pages
        for page in self._dirty_pages:
            if page not in pages:
                offset = page << PAGE_BITS
                end = offset + PAGE_SIZE
                memory[offset:end] = pristine[offset:end]
        for page, data in pages.items():
            offset = page << PAGE_BITS
            memory[offset : offset + len(data)] = data
        self._dirty_pages = set(pages)
        if snap.monitor is not None and self.monitor is not None:
            self.monitor.restore_state(snap.monitor)
        if snap.spec is not None:
            self.spec.restore_state(snap.spec)
        self._pending_pc = None
        self.branch_invert = False
        self._cfi_events.clear()

    # ------------------------------------------------------------------
    # Memory with MMIO
    # ------------------------------------------------------------------
    def load(self, addr: int, size: int) -> int:
        addr &= WORD
        if MMIO.is_mmio(addr):
            return 0
        if addr + size > len(self.memory):
            self.status = Status.MEM_ERROR
            return 0
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def store(self, addr: int, value: int, size: int) -> None:
        addr &= WORD
        value &= (1 << (8 * size)) - 1
        if MMIO.is_mmio(addr):
            self._mmio_store(addr, value)
            return
        if addr + size > len(self.memory):
            self.status = Status.MEM_ERROR
            return
        self.memory[addr : addr + size] = value.to_bytes(size, "little")
        dirty = self._dirty_pages
        dirty.add(addr >> PAGE_BITS)
        dirty.add((addr + size - 1) >> PAGE_BITS)

    def _mmio_store(self, addr: int, value: int) -> None:
        if addr == MMIO.EXIT:
            self.status = Status.EXIT
            self.exit_code = value
        elif addr == MMIO.CONSOLE:
            self.console_chars.append(chr(value & 0xFF))
        elif addr == MMIO.DETECT:
            self.status = Status.FAULT_DETECTED
            self.detect_code = value
        elif addr in (MMIO.CFI_MERGE, MMIO.CFI_CHECK):
            self._cfi_events.append(CfiEvent(addr, value))

    def cfi_violation(self) -> None:
        """Called by the CFI monitor when a check fails."""
        self.status = Status.CFI_VIOLATION

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def set_nz(self, value: int) -> None:
        self.n = (value >> 31) & 1
        self.z = 1 if value == 0 else 0

    def _add_with_carry(self, a: int, b: int, carry: int) -> int:
        unsigned = a + b + carry
        result = unsigned & WORD
        self.c = 1 if unsigned > WORD else 0
        sa, sb, sr = a >> 31, b >> 31, result >> 31
        self.v = 1 if (sa == sb and sr != sa) else 0
        self.set_nz(result)
        return result

    def condition_holds(self, cond: str) -> bool:
        if cond == "eq":
            return self.z == 1
        if cond == "ne":
            return self.z == 0
        if cond == "hs":
            return self.c == 1
        if cond == "lo":
            return self.c == 0
        if cond == "hi":
            return self.c == 1 and self.z == 0
        if cond == "ls":
            return self.c == 0 or self.z == 1
        if cond == "lt":
            return self.n != self.v
        if cond == "ge":
            return self.n == self.v
        if cond == "gt":
            return self.z == 0 and self.n == self.v
        if cond == "le":
            return self.z == 1 or self.n != self.v
        raise ValueError(f"unknown condition {cond}")

    def branch_holds(self, instr) -> bool:
        """Whether the conditional branch ``instr`` is taken now.  A fused
        register-compare branch consumes the one-shot ``branch_invert``
        latch.  The ``Bcc`` arms of :data:`EXECUTE` and the speculative
        retire path both decide through here."""
        if type(instr) is ins.Bcc:
            return self.condition_holds(instr.cond)
        a = self.regs[instr.rn]
        b = instr.imm & WORD if type(instr) is ins.BccImm else self.regs[instr.rm]
        holds = ins.condition_compare(instr.cond, a, b)
        if self.branch_invert:
            self.branch_invert = False
            holds = not holds
        return holds

    # ------------------------------------------------------------------
    # Execution proper (the reference semantics; see EXECUTE)
    # ------------------------------------------------------------------
    def execute(self, instr) -> None:
        arm = EXECUTE.get(type(instr))
        if arm is None:
            self.status = Status.DECODE_ERROR
        else:
            arm(self, instr)

    def _alu(self, op: str, a: int, b: int, s: bool) -> int:
        if op == "add":
            if s:
                return self._add_with_carry(a, b, 0)
            return (a + b) & WORD
        if op == "sub":
            if s:
                return self._add_with_carry(a, (~b) & WORD, 1)
            return (a - b) & WORD
        if op == "rsb":
            result = (b - a) & WORD
            if s:
                return self._add_with_carry(b, (~a) & WORD, 1)
            return result
        if op == "adc":
            return self._add_with_carry(a, b, self.c) if s else (a + b + self.c) & WORD
        if op == "sbc":
            if s:
                return self._add_with_carry(a, (~b) & WORD, self.c)
            return (a - b - (1 - self.c)) & WORD
        if op == "and":
            result = a & b
        elif op == "orr":
            result = a | b
        elif op == "eor":
            result = a ^ b
        elif op == "bic":
            result = a & ~b & WORD
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown ALU op {op}")
        if s:
            self.set_nz(result)
        return result

    def _shift(self, op: str, value: int, amount: int) -> int:
        amount &= 0xFF
        if op == "lsl":
            return (value << amount) & WORD if amount < 32 else 0
        if op == "lsr":
            return (value >> amount) if amount < 32 else 0
        if op == "asr":
            return (_signed(value) >> min(amount, 31)) & WORD
        if op == "ror":
            amount %= 32
            return ((value >> amount) | (value << (32 - amount))) & WORD
        raise ValueError(f"unknown shift {op}")


def _word_view(memory: bytearray) -> memoryview:
    """``memory`` as little-endian 32-bit words, or an empty view where it
    cannot be one (a big-endian host, a size that is not a multiple of 4,
    or RAM reaching the MMIO window): compiled traces then send every
    access to :meth:`CPU.load`/:meth:`CPU.store`."""
    if sys.byteorder == "little" and not len(memory) % 4 and len(memory) <= MMIO.BASE:
        view = memoryview(memory).cast("I")
        if view.itemsize == 4:
            return view
    return memoryview(b"").cast("I")


def _signed(value: int) -> int:
    value &= WORD
    return value - (1 << 32) if value >> 31 else value


# ---------------------------------------------------------------------------
# The reference semantics: one function per instruction class
# ---------------------------------------------------------------------------
def _mov_imm(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = instr.imm & WORD
    cpu.set_nz(regs[instr.rd])
    cpu.cycles += cpu.cycles_model.alu()


def _mov_reg(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = regs[instr.rm]
    cpu.cycles += cpu.cycles_model.alu()


def _movw(cpu: CPU, instr) -> None:
    cpu.regs[instr.rd] = instr.imm & 0xFFFF
    cpu.cycles += cpu.cycles_model.alu()


def _movt(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = (regs[instr.rd] & 0xFFFF) | ((instr.imm & 0xFFFF) << 16)
    cpu.cycles += cpu.cycles_model.alu()


def _mvn(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = (~regs[instr.rm]) & WORD
    cpu.set_nz(regs[instr.rd])
    cpu.cycles += cpu.cycles_model.alu()


def _alu(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = cpu._alu(instr.op, regs[instr.rn], regs[instr.rm], instr.s)
    cpu.cycles += cpu.cycles_model.alu()


def _alu_imm(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = cpu._alu(instr.op, regs[instr.rn], instr.imm & WORD, instr.s)
    cpu.cycles += cpu.cycles_model.alu()


def _shift_imm(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = cpu._shift(instr.op, regs[instr.rn], instr.amount)
    cpu.set_nz(regs[instr.rd])
    cpu.cycles += cpu.cycles_model.alu()


def _shift_reg(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = cpu._shift(instr.op, regs[instr.rn], regs[instr.rm] & 0xFF)
    cpu.set_nz(regs[instr.rd])
    cpu.cycles += cpu.cycles_model.alu()


def _mul(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = (regs[instr.rn] * regs[instr.rm]) & WORD
    cpu.cycles += cpu.cycles_model.mul()


def _mla(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = (regs[instr.ra] + regs[instr.rn] * regs[instr.rm]) & WORD
    cpu.cycles += cpu.cycles_model.mla()


def _mls(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rd] = (regs[instr.ra] - regs[instr.rn] * regs[instr.rm]) & WORD
    cpu.cycles += cpu.cycles_model.mla()


def _umull(cpu: CPU, instr) -> None:
    regs = cpu.regs
    product = regs[instr.rn] * regs[instr.rm]
    regs[instr.rdlo] = product & WORD
    regs[instr.rdhi] = (product >> 32) & WORD
    cpu.cycles += cpu.cycles_model.umull()


def _udiv(cpu: CPU, instr) -> None:
    # ARMv7-M (DIV_0_TRP=0): zero divisor -> zero quotient, no trap.
    regs = cpu.regs
    dividend, divisor = regs[instr.rn], regs[instr.rm]
    regs[instr.rd] = (dividend // divisor) & WORD if divisor else 0
    cpu.cycles += cpu.cycles_model.div(dividend, divisor)


def _sdiv(cpu: CPU, instr) -> None:
    regs = cpu.regs
    a = _signed(regs[instr.rn])
    b = _signed(regs[instr.rm])
    if b == 0:
        regs[instr.rd] = 0
    else:
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        regs[instr.rd] = q & WORD
    cpu.cycles += cpu.cycles_model.div(abs(a), abs(b) or 1)


def _umod(cpu: CPU, instr) -> None:
    regs = cpu.regs
    dividend, divisor = regs[instr.rn], regs[instr.rm]
    regs[instr.rd] = (dividend % divisor) & WORD if divisor else 0
    cpu.cycles += cpu.cycles_model.umod()


def _cmp_reg(cpu: CPU, instr) -> None:
    regs = cpu.regs
    cpu._add_with_carry(regs[instr.rn], (~regs[instr.rm]) & WORD, 1)
    cpu.cycles += cpu.cycles_model.alu()


def _cmp_imm(cpu: CPU, instr) -> None:
    cpu._add_with_carry(cpu.regs[instr.rn], (~(instr.imm & WORD)) & WORD, 1)
    cpu.cycles += cpu.cycles_model.alu()


def _b(cpu: CPU, instr) -> None:
    cpu._pending_pc = instr.target
    cpu.cycles += cpu.cycles_model.branch_taken()


def _bcc(cpu: CPU, instr) -> None:
    if cpu.branch_holds(instr):
        cpu._pending_pc = instr.target
        cpu.cycles += cpu.cycles_model.branch_taken()
    else:
        cpu.cycles += cpu.cycles_model.branch_not_taken()


def _bl(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[LR] = regs[PC] + 4  # BL is always 4 bytes
    cpu._pending_pc = instr.target
    cpu.cycles += cpu.cycles_model.call()


def _bx_lr(cpu: CPU, instr) -> None:
    regs = cpu.regs
    target = regs[LR]
    if target == MAGIC_RETURN:
        cpu.status = Status.EXIT
        cpu.exit_code = regs[0]
    else:
        cpu._pending_pc = target & ~1
    cpu.cycles += cpu.cycles_model.ret()


def _ldr_imm(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rt] = cpu.load(regs[instr.rn] + instr.imm, instr.size)
    cpu.cycles += cpu.cycles_model.load()


def _ldr_reg(cpu: CPU, instr) -> None:
    regs = cpu.regs
    regs[instr.rt] = cpu.load(regs[instr.rn] + regs[instr.rm], instr.size)
    cpu.cycles += cpu.cycles_model.load()


def _str_imm(cpu: CPU, instr) -> None:
    regs = cpu.regs
    cpu.store(regs[instr.rn] + instr.imm, regs[instr.rt], instr.size)
    cpu.cycles += cpu.cycles_model.store()


def _str_reg(cpu: CPU, instr) -> None:
    regs = cpu.regs
    cpu.store(regs[instr.rn] + regs[instr.rm], regs[instr.rt], instr.size)
    cpu.cycles += cpu.cycles_model.store()


def _push(cpu: CPU, instr) -> None:
    regs = cpu.regs
    for reg in reversed(instr.regs):
        regs[SP] = (regs[SP] - 4) & WORD
        cpu.store(regs[SP], regs[reg], 4)
    cpu.cycles += cpu.cycles_model.push_pop(len(instr.regs))


def _pop(cpu: CPU, instr) -> None:
    regs = cpu.regs
    for reg in instr.regs:
        regs[reg] = cpu.load(regs[SP], 4)
        regs[SP] = (regs[SP] + 4) & WORD
    cpu.cycles += cpu.cycles_model.push_pop(len(instr.regs))


def _ldr_lit(cpu: CPU, instr) -> None:
    assert instr.resolved is not None, f"unresolved literal {instr.symbol}"
    cpu.regs[instr.rd] = instr.resolved & WORD
    cpu.cycles += cpu.cycles_model.load()


def _nop(cpu: CPU, instr) -> None:
    cpu.cycles += cpu.cycles_model.nop()


def _udf(cpu: CPU, instr) -> None:
    cpu.status = Status.FAULT_DETECTED
    cpu.detect_code = instr.code
    cpu.cycles += 1


#: exact instruction class -> its semantics, ``f(cpu, instr)``: register,
#: flag, memory and status effects plus the cycle charge.  A taken branch
#: leaves its target in ``cpu._pending_pc``.  Exact types keep the fused
#: ``BccReg``/``BccImm`` apart from the ``Bcc`` they subclass.  This is the
#: reference oracle: the trace emitter (:mod:`repro.isa.superblock`) shares
#: no code with it.
EXECUTE: dict[type, Callable[[CPU, ins.Instr], None]] = {
    ins.MovImm: _mov_imm,
    ins.MovReg: _mov_reg,
    ins.Movw: _movw,
    ins.Movt: _movt,
    ins.Mvn: _mvn,
    ins.Alu: _alu,
    ins.AluImm: _alu_imm,
    ins.ShiftImm: _shift_imm,
    ins.ShiftReg: _shift_reg,
    ins.Mul: _mul,
    ins.Mla: _mla,
    ins.Mls: _mls,
    ins.Umull: _umull,
    ins.Udiv: _udiv,
    ins.Sdiv: _sdiv,
    ins.Umod: _umod,
    ins.CmpReg: _cmp_reg,
    ins.CmpImm: _cmp_imm,
    ins.B: _b,
    ins.Bcc: _bcc,
    ins.BccReg: _bcc,
    ins.BccImm: _bcc,
    ins.Bl: _bl,
    ins.BxLr: _bx_lr,
    ins.LdrImm: _ldr_imm,
    ins.LdrReg: _ldr_reg,
    ins.StrImm: _str_imm,
    ins.StrReg: _str_reg,
    ins.Push: _push,
    ins.Pop: _pop,
    ins.LdrLit: _ldr_lit,
    ins.Nop: _nop,
    ins.Udf: _udf,
}
