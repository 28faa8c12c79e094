"""Instruction set definition.

Each instruction knows:

* ``reg_uses`` / ``reg_defs`` — attribute names holding registers, for the
  register allocator;
* ``text()`` — canonical assembly text (also the CFI signature input);
* ``width()`` — encoded size in bytes per the Thumb-2 rules (encoding.py);
* execution semantics live in :data:`repro.isa.cpu.EXECUTE`, one
  function per instruction class (the reference oracle), and in the
  trace emitter of :mod:`repro.isa.superblock`.

Instances are logically frozen once assembled: layout state the assembler
maintains (``target``/``resolved``/``resolved_distance``) settles during
relaxation, and execution semantics never mutate an instruction — widths
live in the image's decode cache rather than in attributes cached onto
these dataclasses (the one remaining per-object
memo is the CFI signature, see :mod:`repro.cfi.signatures`).

Condition codes for ``Bcc`` use unsigned/equality semantics only — the
compiler emits exactly these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.registers import reg_name

#: Supported branch conditions (subset of ARM condition codes).
CONDITIONS = ("eq", "ne", "lo", "ls", "hi", "hs", "lt", "le", "gt", "ge")

ALU_OPS = ("add", "sub", "rsb", "adc", "sbc", "and", "orr", "eor", "bic")
SHIFT_OPS = ("lsl", "lsr", "asr", "ror")


class Instr:
    """Base machine instruction."""

    mnemonic = "?"
    #: attribute names that are register *reads* / *writes*
    USES: tuple[str, ...] = ()
    DEFS: tuple[str, ...] = ()

    def reg_uses(self) -> list:
        return [getattr(self, a) for a in self.USES]

    def reg_defs(self) -> list:
        return [getattr(self, a) for a in self.DEFS]

    def substitute(self, mapping) -> None:
        """Replace registers via ``mapping(reg) -> reg`` (RA rewrite)."""
        for attr in set(self.USES) | set(self.DEFS):
            setattr(self, attr, mapping(getattr(self, attr)))

    def text(self) -> str:  # pragma: no cover - overridden everywhere
        return self.mnemonic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.text()}>"

    @property
    def is_terminator(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Moves and constants
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class MovImm(Instr):
    rd: object
    imm: int
    mnemonic = "movs"
    DEFS = ("rd",)

    def text(self) -> str:
        return f"movs {reg_name(self.rd)}, #{self.imm}"


@dataclass(repr=False)
class MovReg(Instr):
    rd: object
    rm: object
    mnemonic = "mov"
    USES = ("rm",)
    DEFS = ("rd",)

    def text(self) -> str:
        return f"mov {reg_name(self.rd)}, {reg_name(self.rm)}"


@dataclass(repr=False)
class Movw(Instr):
    rd: object
    imm: int
    mnemonic = "movw"
    DEFS = ("rd",)

    def text(self) -> str:
        return f"movw {reg_name(self.rd)}, #{self.imm}"


@dataclass(repr=False)
class Movt(Instr):
    """Writes the top halfword, keeping the bottom (reads rd too)."""

    rd: object
    imm: int
    mnemonic = "movt"
    USES = ("rd",)
    DEFS = ("rd",)

    def text(self) -> str:
        return f"movt {reg_name(self.rd)}, #{self.imm}"


@dataclass(repr=False)
class Mvn(Instr):
    rd: object
    rm: object
    mnemonic = "mvns"
    USES = ("rm",)
    DEFS = ("rd",)

    def text(self) -> str:
        return f"mvns {reg_name(self.rd)}, {reg_name(self.rm)}"


# ---------------------------------------------------------------------------
# ALU
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class Alu(Instr):
    """Three-register ALU op; ``op`` from ALU_OPS.  Sets flags when `s`."""

    op: str
    rd: object
    rn: object
    rm: object
    s: bool = False
    USES = ("rn", "rm")
    DEFS = ("rd",)

    def text(self) -> str:
        s = "s" if self.s else ""
        return (
            f"{self.op}{s} {reg_name(self.rd)}, "
            f"{reg_name(self.rn)}, {reg_name(self.rm)}"
        )

    @property
    def mnemonic(self) -> str:  # type: ignore[override]
        return self.op


@dataclass(repr=False)
class AluImm(Instr):
    op: str
    rd: object
    rn: object
    imm: int
    s: bool = False
    USES = ("rn",)
    DEFS = ("rd",)

    def text(self) -> str:
        s = "s" if self.s else ""
        return f"{self.op}{s} {reg_name(self.rd)}, {reg_name(self.rn)}, #{self.imm}"

    @property
    def mnemonic(self) -> str:  # type: ignore[override]
        return self.op


@dataclass(repr=False)
class ShiftImm(Instr):
    op: str
    rd: object
    rn: object
    amount: int
    USES = ("rn",)
    DEFS = ("rd",)

    def text(self) -> str:
        return f"{self.op}s {reg_name(self.rd)}, {reg_name(self.rn)}, #{self.amount}"

    @property
    def mnemonic(self) -> str:  # type: ignore[override]
        return self.op


@dataclass(repr=False)
class ShiftReg(Instr):
    op: str
    rd: object
    rn: object
    rm: object
    USES = ("rn", "rm")
    DEFS = ("rd",)

    def text(self) -> str:
        return (
            f"{self.op}s {reg_name(self.rd)}, {reg_name(self.rn)}, {reg_name(self.rm)}"
        )

    @property
    def mnemonic(self) -> str:  # type: ignore[override]
        return self.op


# ---------------------------------------------------------------------------
# Multiply / divide (Table II's cast)
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class Mul(Instr):
    rd: object
    rn: object
    rm: object
    mnemonic = "mul"
    USES = ("rn", "rm")
    DEFS = ("rd",)

    def text(self) -> str:
        return f"mul {reg_name(self.rd)}, {reg_name(self.rn)}, {reg_name(self.rm)}"


@dataclass(repr=False)
class Mla(Instr):
    """rd = ra + rn*rm"""

    rd: object
    rn: object
    rm: object
    ra: object
    mnemonic = "mla"
    USES = ("rn", "rm", "ra")
    DEFS = ("rd",)

    def text(self) -> str:
        return (
            f"mla {reg_name(self.rd)}, {reg_name(self.rn)}, "
            f"{reg_name(self.rm)}, {reg_name(self.ra)}"
        )


@dataclass(repr=False)
class Mls(Instr):
    """rd = ra - rn*rm — the remainder trick's second half (Table II)."""

    rd: object
    rn: object
    rm: object
    ra: object
    mnemonic = "mls"
    USES = ("rn", "rm", "ra")
    DEFS = ("rd",)

    def text(self) -> str:
        return (
            f"mls {reg_name(self.rd)}, {reg_name(self.rn)}, "
            f"{reg_name(self.rm)}, {reg_name(self.ra)}"
        )


@dataclass(repr=False)
class Umull(Instr):
    rdlo: object
    rdhi: object
    rn: object
    rm: object
    mnemonic = "umull"
    USES = ("rn", "rm")
    DEFS = ("rdlo", "rdhi")

    def text(self) -> str:
        return (
            f"umull {reg_name(self.rdlo)}, {reg_name(self.rdhi)}, "
            f"{reg_name(self.rn)}, {reg_name(self.rm)}"
        )


@dataclass(repr=False)
class Udiv(Instr):
    rd: object
    rn: object
    rm: object
    mnemonic = "udiv"
    USES = ("rn", "rm")
    DEFS = ("rd",)

    def text(self) -> str:
        return f"udiv {reg_name(self.rd)}, {reg_name(self.rn)}, {reg_name(self.rm)}"


@dataclass(repr=False)
class Sdiv(Instr):
    rd: object
    rn: object
    rm: object
    mnemonic = "sdiv"
    USES = ("rn", "rm")
    DEFS = ("rd",)

    def text(self) -> str:
        return f"sdiv {reg_name(self.rd)}, {reg_name(self.rn)}, {reg_name(self.rm)}"


@dataclass(repr=False)
class Umod(Instr):
    """Hypothetical single-instruction modulo (ablation E7).

    The paper: "Hardware support for a fast modulo instruction would
    considerably reduce this overhead."  Enabled by the back end's
    ``hw_modulo`` option; never emitted otherwise.
    """

    rd: object
    rn: object
    rm: object
    mnemonic = "umod"
    USES = ("rn", "rm")
    DEFS = ("rd",)

    def text(self) -> str:
        return f"umod {reg_name(self.rd)}, {reg_name(self.rn)}, {reg_name(self.rm)}"


# ---------------------------------------------------------------------------
# Compare / test
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class CmpReg(Instr):
    rn: object
    rm: object
    mnemonic = "cmp"
    USES = ("rn", "rm")

    def text(self) -> str:
        return f"cmp {reg_name(self.rn)}, {reg_name(self.rm)}"


@dataclass(repr=False)
class CmpImm(Instr):
    rn: object
    imm: int
    mnemonic = "cmp"
    USES = ("rn",)

    def text(self) -> str:
        return f"cmp {reg_name(self.rn)}, #{self.imm}"


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class B(Instr):
    label: str
    mnemonic = "b"
    target: Optional[int] = field(default=None, compare=False)

    def text(self) -> str:
        return f"b {self.label}"

    @property
    def is_terminator(self) -> bool:
        return True


@dataclass(repr=False)
class Bcc(Instr):
    cond: str
    label: str
    mnemonic = "bcc"
    #: conditional branches that read the NZCV flags; the fused
    #: register-compare subclasses below override this, and the fault
    #: models use it to decide between flag forcing and the CPU's
    #: ``branch_invert`` latch when inverting a branch.
    uses_flags = True
    target: Optional[int] = field(default=None, compare=False)

    def text(self) -> str:
        return f"b{self.cond} {self.label}"

    @property
    def is_terminator(self) -> bool:
        return False  # fall-through continues in the block


@dataclass(repr=False)
class BccReg(Bcc):
    """Fused compare-and-branch on two registers (RISC-V style).

    Flagless targets have no NZCV state: the branch itself compares
    ``rn`` against ``rm`` under ``cond`` (signed for lt/le/gt/ge,
    unsigned for lo/ls/hi/hs).  Subclassing :class:`Bcc` keeps every
    ``isinstance``-based consumer (CFI instrumentation, fault models)
    working unchanged; exact-type dispatch sites carry explicit entries.  The mnemonic stays ``bcc`` so golden traces
    index conditional branches identically across targets.
    """

    rn: object = 0
    rm: object = 0
    uses_flags = False
    USES = ("rn", "rm")

    def text(self) -> str:
        return f"b{self.cond} {reg_name(self.rn)}, {reg_name(self.rm)}, {self.label}"


@dataclass(repr=False)
class BccImm(Bcc):
    """Fused compare-and-branch of a register against an immediate.

    The compare-with-zero form (``beqz``/``bnez`` flavour); the rv32
    backend emits it only for ``imm == 0`` and materializes any other
    constant into a register first.
    """

    rn: object = 0
    imm: int = 0
    uses_flags = False
    USES = ("rn",)

    def text(self) -> str:
        return f"b{self.cond} {reg_name(self.rn)}, #{self.imm}, {self.label}"


#: The conditional-branch instruction classes (exact types).  Exact-type
#: dispatch sites — the superblock partitioner and code generator, the
#: speculative branch retire — use this instead of ``type(i) is Bcc`` so
#: fused branches participate.
BCC_CLASSES = (Bcc, BccReg, BccImm)


def condition_compare(cond: str, a: int, b: int) -> bool:
    """Direct register-compare semantics of ``cond`` (flagless targets).

    ``a``/``b`` are unsigned 32-bit register values.  Matches the
    flag-based evaluation of ``cmp a, b`` followed by ``b<cond>`` bit for
    bit: lt/le/gt/ge are signed, lo/ls/hi/hs unsigned.
    """
    if cond == "eq":
        return a == b
    if cond == "ne":
        return a != b
    if cond == "lo":
        return a < b
    if cond == "hs":
        return a >= b
    if cond == "hi":
        return a > b
    if cond == "ls":
        return a <= b
    sa = a - 0x1_0000_0000 if a & 0x8000_0000 else a
    sb = b - 0x1_0000_0000 if b & 0x8000_0000 else b
    if cond == "lt":
        return sa < sb
    if cond == "ge":
        return sa >= sb
    if cond == "gt":
        return sa > sb
    if cond == "le":
        return sa <= sb
    raise ValueError(f"unknown condition {cond!r}")


@dataclass(repr=False)
class Bl(Instr):
    label: str
    mnemonic = "bl"
    target: Optional[int] = field(default=None, compare=False)

    def text(self) -> str:
        return f"bl {self.label}"


@dataclass(repr=False)
class BxLr(Instr):
    mnemonic = "bx"

    def text(self) -> str:
        return "bx lr"

    @property
    def is_terminator(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class LdrImm(Instr):
    rt: object
    rn: object
    imm: int = 0
    size: int = 4
    mnemonic = "ldr"
    USES = ("rn",)
    DEFS = ("rt",)

    def text(self) -> str:
        suffix = {4: "", 2: "h", 1: "b"}[self.size]
        return f"ldr{suffix} {reg_name(self.rt)}, [{reg_name(self.rn)}, #{self.imm}]"


@dataclass(repr=False)
class LdrReg(Instr):
    rt: object
    rn: object
    rm: object
    size: int = 4
    mnemonic = "ldr"
    USES = ("rn", "rm")
    DEFS = ("rt",)

    def text(self) -> str:
        suffix = {4: "", 2: "h", 1: "b"}[self.size]
        return (
            f"ldr{suffix} {reg_name(self.rt)}, "
            f"[{reg_name(self.rn)}, {reg_name(self.rm)}]"
        )


@dataclass(repr=False)
class StrImm(Instr):
    rt: object
    rn: object
    imm: int = 0
    size: int = 4
    mnemonic = "str"
    USES = ("rt", "rn")

    def text(self) -> str:
        suffix = {4: "", 2: "h", 1: "b"}[self.size]
        return f"str{suffix} {reg_name(self.rt)}, [{reg_name(self.rn)}, #{self.imm}]"


@dataclass(repr=False)
class StrReg(Instr):
    rt: object
    rn: object
    rm: object
    size: int = 4
    mnemonic = "str"
    USES = ("rt", "rn", "rm")

    def text(self) -> str:
        suffix = {4: "", 2: "h", 1: "b"}[self.size]
        return (
            f"str{suffix} {reg_name(self.rt)}, "
            f"[{reg_name(self.rn)}, {reg_name(self.rm)}]"
        )


@dataclass(repr=False)
class Push(Instr):
    regs: tuple = ()
    mnemonic = "push"

    def reg_uses(self) -> list:
        return list(self.regs)

    def text(self) -> str:
        return "push {" + ", ".join(reg_name(r) for r in self.regs) + "}"


@dataclass(repr=False)
class Pop(Instr):
    regs: tuple = ()
    mnemonic = "pop"

    def reg_defs(self) -> list:
        return list(self.regs)

    def text(self) -> str:
        return "pop {" + ", ".join(reg_name(r) for r in self.regs) + "}"


@dataclass(repr=False)
class LdrLit(Instr):
    """``ldr rd, =symbol`` — literal-pool load of a symbol's address/value.

    The assembler resolves ``symbol`` against data segments and labels; the
    literal word itself lives in the data image (pool), so the instruction
    is a fixed 4-byte LDR (literal) encoding.
    """

    rd: object
    symbol: str
    resolved: Optional[int] = field(default=None, compare=False)
    mnemonic = "ldr"
    DEFS = ("rd",)

    def text(self) -> str:
        return f"ldr {reg_name(self.rd)}, ={self.symbol}"


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class Nop(Instr):
    mnemonic = "nop"

    def text(self) -> str:
        return "nop"


@dataclass(repr=False)
class Udf(Instr):
    """Fault-report trap: halts the simulator with FAULT_DETECTED."""

    code: int = 0
    mnemonic = "udf"

    def text(self) -> str:
        return f"udf #{self.code}"

    @property
    def is_terminator(self) -> bool:
        return True
