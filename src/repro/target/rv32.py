"""The rv32 target: a RISC-V-flavoured second ISA.

What changes relative to ``baseline`` — and what deliberately does not:

* **No flags.**  There is no NZCV state; the backend lowers every
  comparison to a fused register-compare branch
  (:class:`~repro.isa.instructions.BccReg` /
  :class:`~repro.isa.instructions.BccImm`, the ``beq x10, x11, label``
  shape), signed for lt/le/gt/ge and unsigned for lo/ls/hi/hs.  The
  fault models' branch-inversion glitch consequently lands in the CPU's
  one-shot ``branch_invert`` latch instead of forcing flags.
* **RVC-flavoured widths.**  Compressed (2-byte) forms for the common
  cases the C extension covers — small immediates, two-address ALU ops
  on low registers, word loads/stores with short offsets, ``c.j``/
  ``c.jr`` — and 4 bytes for everything else, branches included.
* **Its own cycle model** (:class:`Rv32CycleModel`): a small in-order
  RV32IMC-flavoured pipeline — slower iterative multiply/divide, single
  cycle stores, a 2-cycle taken-branch bubble, cheaper ``jal``/``jr``.
* **Shared everything else.**  The register file, memory map, MMIO,
  snapshot schema, CFI retire protocol, and every dispatch tier and engine
  are target-independent; Table III therefore compares scheme rankings,
  not simulator implementations.
"""

from __future__ import annotations

from repro.isa import instructions as ins
from repro.isa.cycles import CycleModel
from repro.isa.registers import SP, is_low
from repro.target.base import Target, register_target
from repro.target.baseline import _common_samples


class Rv32CycleModel(CycleModel):
    """RV32IMC-flavoured timing: small in-order core, M-extension
    iterative multiply/divide, compressed fetch."""

    def mul(self) -> int:
        return 4  # iterative M-extension multiplier

    def mla(self) -> int:
        return 5  # mul + accumulate (no fused MLA in RV32IM)

    def umull(self) -> int:
        return 4

    def div(self, dividend: int, divisor: int) -> int:
        """2 + one bit per quotient bit, capped: a radix-2 divider."""
        if divisor == 0:
            return 34
        quotient_bits = max(0, dividend.bit_length() - divisor.bit_length() + 1)
        return min(34, 2 + quotient_bits)

    def umod(self) -> int:
        return self.umod_cycles

    def store(self) -> int:
        return 1  # write buffer hides the store latency

    def branch_taken(self) -> int:
        return 2  # shallow pipeline: one bubble on redirect

    def branch_not_taken(self) -> int:
        return 1

    def misprediction(self) -> int:
        return 8

    def call(self) -> int:
        return 2  # jal: link + redirect

    def ret(self) -> int:
        return 2  # jr ra


class Rv32Target(Target):
    name = "rv32"
    label = "RV32IMC-flavoured"
    description = (
        "RISC-V-flavoured machine: flagless fused register-compare "
        "branches, RVC compressed/full-width encodings, iterative "
        "multiply/divide timing."
    )
    flag_branches = False
    widths = (2, 4)

    def cycle_model(self) -> CycleModel:
        return Rv32CycleModel()

    def width(self, instr: ins.Instr) -> int:
        """RVC-flavoured encoding widths (2 or 4 bytes)."""
        if isinstance(instr, ins.MovImm):
            return 2 if 0 <= instr.imm <= 31 else 4  # c.li imm6
        if isinstance(instr, (ins.MovReg, ins.Nop, ins.BxLr, ins.Udf)):
            return 2  # c.mv / c.nop / c.jr ra / c.ebreak
        if isinstance(instr, (ins.Mvn, ins.Movw, ins.Movt)):
            return 4
        if isinstance(instr, ins.Alu):
            # CA-format two-address ops on the compressed register set.
            if (
                instr.rd == instr.rn
                and is_low(instr.rd)
                and is_low(instr.rm)
                and instr.op in ("add", "sub", "and", "orr", "eor")
            ):
                return 2
            if instr.op == "add" and instr.rd == instr.rn:
                return 2  # c.add rd, rm (any registers)
            return 4
        if isinstance(instr, ins.AluImm):
            if instr.rn == SP and instr.op in ("add", "sub"):
                # c.addi4spn / c.addi16sp flavours.
                if instr.imm % 4 == 0 and instr.imm <= 1020:
                    return 2
                return 4
            if (
                instr.op in ("add", "sub")
                and instr.rd == instr.rn
                and 0 <= instr.imm <= 31
            ):
                return 2  # c.addi imm6
            return 4
        if isinstance(instr, ins.ShiftImm):
            return 2 if instr.rd == instr.rn and is_low(instr.rd) else 4
        if isinstance(instr, ins.ShiftReg):
            return 4
        if isinstance(
            instr,
            (ins.Mul, ins.Mla, ins.Mls, ins.Umull, ins.Udiv, ins.Sdiv, ins.Umod),
        ):
            return 4  # M extension: no compressed forms
        if isinstance(instr, (ins.CmpReg, ins.CmpImm)):
            return 4  # slt-flavoured; the rv32 backend never emits these
        # Fused branches before plain Bcc: BccReg/BccImm subclass Bcc.
        if isinstance(instr, (ins.BccReg, ins.BccImm)):
            return 4  # beq/bne/blt[u]/bge[u] are full-width
        if isinstance(instr, ins.Bcc):
            return 4
        if isinstance(instr, ins.B):
            distance = getattr(instr, "resolved_distance", None)
            if distance is None or -2048 <= distance < 2048:
                return 2  # c.j ±2 KiB
            return 4
        if isinstance(instr, ins.Bl):
            return 4  # jal
        if isinstance(instr, (ins.LdrImm, ins.StrImm)):
            if instr.size != 4:
                return 4  # no compressed sub-word accesses
            if instr.rn == SP:
                ok = instr.imm % 4 == 0 and 0 <= instr.imm <= 252
                return 2 if ok else 4  # c.lwsp / c.swsp
            if is_low(instr.rt) and is_low(instr.rn):
                ok = instr.imm % 4 == 0 and 0 <= instr.imm <= 124
                return 2 if ok else 4  # c.lw / c.sw
            return 4
        if isinstance(instr, (ins.LdrReg, ins.StrReg)):
            return 4  # no register-offset addressing in RVC
        if isinstance(instr, ins.LdrLit):
            return 4  # auipc+lw flavoured literal load
        if isinstance(instr, (ins.Push, ins.Pop)):
            return 4  # modelled as one full-width stack-adjust bundle
        raise NotImplementedError(f"rv32 width of {instr!r}")

    def sample_instructions(self) -> list[ins.Instr]:
        samples = _common_samples()
        samples += [
            ins.BccReg("eq", "somewhere", rn=0, rm=1),
            ins.BccReg("lt", "somewhere", rn=2, rm=3),
            ins.BccReg("lo", "somewhere", rn=4, rm=5),
            ins.BccImm("ne", "somewhere", rn=0, imm=0),
        ]
        return samples


register_target(Rv32Target())
