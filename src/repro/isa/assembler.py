"""Assembler: lays out functions, resolves labels, reports code sizes.

Input is a list of :class:`AsmFunction` (each a list of labelled blocks of
:class:`~repro.isa.instructions.Instr`) plus a data segment description;
output is a :class:`CodeImage` the CPU executes directly.  Branch widths are
settled by a relaxation fixpoint (narrow until proven out of reach).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa import instructions as ins


class AsmError(ValueError):
    """Label/layout problem during assembly."""


@dataclass
class AsmBlock:
    label: str
    instructions: list = field(default_factory=list)


@dataclass
class AsmFunction:
    name: str
    blocks: list[AsmBlock] = field(default_factory=list)

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions


@dataclass
class DataSegment:
    """A named, initialised byte region placed after the code."""

    name: str
    size: int
    initializer: bytes = b""


@dataclass
class CodeImage:
    """Fully laid-out program ready for simulation."""

    code_base: int
    instructions: list  # ordered
    addr_of: dict  # id(instr) -> address
    instr_at: dict  # address -> instr
    labels: dict  # label -> address
    function_ranges: dict  # name -> (start, end)
    function_sizes: dict  # name -> bytes
    data_addrs: dict  # data segment name -> address
    data_image: list  # (address, bytes)
    code_size: int = 0
    #: name of the machine target the image was assembled for; the decode
    #: cache, superblock partitioner, disassembler and default cycle
    #: model all resolve widths/timing through it (see repro.target).
    target: str = "baseline"
    #: lazily-built addr -> (instr, width) table shared by every CPU
    #: executing this image and by the superblock partitioner.
    _decode_cache: Optional[dict] = field(
        default=None, repr=False, compare=False
    )
    #: lazily-built superblock tables (trace partition + trace functions
    #: compiled one at a time per monitor/spec variant),
    #: keyed inside repro.isa.superblock.  Like the decode cache, shared
    #: by every CPU running this image and dropped on pickle.
    _superblock_cache: Optional[dict] = field(
        default=None, repr=False, compare=False
    )
    #: the memory every CPU of this image starts with (``MEM_SIZE`` zero
    #: bytes plus the data image), built by the image's first CPU; each
    #: CPU keeps a reference, and ``CPU.restore`` puts pages back from it.
    #: One copy per image, dropped on pickle.
    _pristine: Optional[bytes] = field(default=None, repr=False, compare=False)
    #: lazily-built mnemonic numbering (see :meth:`mnemonic_numbers`),
    #: shared by every golden trace of this image and dropped on pickle.
    _mnemonic_numbers: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    def decode_cache(self) -> dict:
        """``addr -> (instr, width)`` of every instruction, built on first
        use with the target's widths."""
        cache = self._decode_cache
        if cache is None:
            from repro.target import get_target  # late: avoids an import cycle

            width = get_target(self.target).width
            addr_of = self.addr_of
            cache = self._decode_cache = {
                addr_of[id(instr)]: (instr, width(instr))
                for instr in self.instructions
            }
        return cache

    def mnemonic_numbers(self) -> tuple[dict, dict]:
        """``(address -> number, mnemonic -> number)``: each instruction's
        mnemonic as a small integer, built on first use."""
        numbering = self._mnemonic_numbers
        if numbering is None:
            numbers: dict[str, int] = {}
            number_at = {
                addr: numbers.setdefault(instr.mnemonic, len(numbers))
                for addr, (instr, _) in self.decode_cache().items()
            }
            numbering = self._mnemonic_numbers = number_at, numbers
        return numbering

    def __getstate__(self):
        # The caches are rebuilt on first use, and addr_of is keyed by
        # object ids that do not survive a process boundary; all are
        # reconstructed on the other side.
        state = dict(self.__dict__)
        state["_decode_cache"] = None
        state["_superblock_cache"] = None
        state["_pristine"] = None
        state["_mnemonic_numbers"] = None
        del state["addr_of"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # instr_at and instructions reference the same objects after
        # unpickling, so the id-keyed map can be rebuilt from instr_at.
        self.addr_of = {id(instr): addr for addr, instr in self.instr_at.items()}

    def size_of(self, name: str) -> int:
        return self.function_sizes[name]

    def function_of(self, addr: int) -> Optional[str]:
        for name, (start, end) in self.function_ranges.items():
            if start <= addr < end:
                return name
        return None

    def listing(self) -> str:
        lines = []
        label_at = {}
        for label, addr in self.labels.items():
            label_at.setdefault(addr, []).append(label)
        for instr in self.instructions:
            addr = self.addr_of[id(instr)]
            for label in label_at.get(addr, ()):
                lines.append(f"{label}:")
            lines.append(f"  {addr:#08x}: {instr.text()}")
        return "\n".join(lines)


CODE_BASE = 0x0000_1000


def assemble(
    functions: list[AsmFunction],
    data: Optional[list[DataSegment]] = None,
    code_base: int = CODE_BASE,
    target: str = "baseline",
) -> CodeImage:
    from repro.target import get_target  # late: avoids an import cycle

    width = get_target(target).width
    ordered: list = []
    owner: dict[int, str] = {}
    label_of_instr_block: dict[str, list] = {}
    labels_order: list[tuple[str, int]] = []  # (label, index into ordered)

    seen_labels: set[str] = set()
    for func in functions:
        if not func.blocks:
            raise AsmError(f"function {func.name} has no blocks")
        if func.blocks[0].label != func.name:
            # The function's entry label is its name; enforce by aliasing.
            labels_order.append((func.name, len(ordered)))
            seen_labels.add(func.name)
        for block in func.blocks:
            if block.label in seen_labels:
                raise AsmError(f"duplicate label {block.label}")
            seen_labels.add(block.label)
            labels_order.append((block.label, len(ordered)))
            for instr in block.instructions:
                owner[id(instr)] = func.name
                ordered.append(instr)

    # -- relaxation fixpoint -------------------------------------------------
    widths = {id(i): width(i) for i in ordered}
    for _ in range(32):
        addrs: dict[int, int] = {}
        cursor = code_base
        label_index = 0
        label_addr: dict[str, int] = {}
        for idx, instr in enumerate(ordered):
            while label_index < len(labels_order) and labels_order[label_index][1] == idx:
                label_addr[labels_order[label_index][0]] = cursor
                label_index += 1
            addrs[id(instr)] = cursor
            cursor += widths[id(instr)]
        while label_index < len(labels_order):
            label_addr[labels_order[label_index][0]] = cursor
            label_index += 1

        changed = False
        for instr in ordered:
            if isinstance(instr, (ins.B, ins.Bcc, ins.Bl)):
                if instr.label not in label_addr:
                    raise AsmError(f"undefined label {instr.label}")
                instr.target = label_addr[instr.label]
                instr.resolved_distance = instr.target - (addrs[id(instr)] + 4)
                new_width = width(instr)
                if new_width != widths[id(instr)]:
                    widths[id(instr)] = new_width
                    changed = True
        if not changed:
            break
    else:  # pragma: no cover - pathological layout
        raise AsmError("branch relaxation did not converge")

    code_end = cursor
    function_ranges: dict[str, tuple[int, int]] = {}
    for func in functions:
        f_instrs = [i for i in ordered if owner[id(i)] == func.name]
        start = addrs[id(f_instrs[0])]
        end = addrs[id(f_instrs[-1])] + widths[id(f_instrs[-1])]
        function_ranges[func.name] = (start, end)

    # -- data placement ---------------------------------------------------
    data_addrs: dict[str, int] = {}
    data_image: list[tuple[int, bytes]] = []
    data_cursor = (code_end + 0xFF) & ~0xFF
    for segment in data or []:
        data_addrs[segment.name] = data_cursor
        if segment.initializer:
            data_image.append((data_cursor, segment.initializer))
        data_cursor += (segment.size + 3) & ~3

    # -- literal resolution -------------------------------------------------
    for instr in ordered:
        if isinstance(instr, ins.LdrLit):
            if instr.symbol in data_addrs:
                instr.resolved = data_addrs[instr.symbol]
            elif instr.symbol in label_addr:
                instr.resolved = label_addr[instr.symbol]
            else:
                raise AsmError(f"unresolved literal symbol {instr.symbol}")

    return CodeImage(
        code_base=code_base,
        instructions=ordered,
        addr_of=addrs,
        instr_at={addrs[id(i)]: i for i in ordered},
        labels=label_addr,
        function_ranges=function_ranges,
        function_sizes={
            name: end - start for name, (start, end) in function_ranges.items()
        },
        data_addrs=data_addrs,
        data_image=data_image,
        code_size=code_end - code_base,
        target=target,
    )
