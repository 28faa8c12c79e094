"""Listing helpers (disassembly is trivial: instructions carry their text)."""

from __future__ import annotations

from repro.isa.assembler import CodeImage


def annotated_listing(image: CodeImage) -> str:
    """Listing with addresses, widths, and function boundaries.

    Widths come from the image's target — the same encoding rules the
    assembler laid the image out with — so cross-target listings stay
    faithful (baseline Thumb-flavoured vs rv32 compressed rules differ).
    """
    from repro.target import get_target

    width = get_target(image.target).width
    lines = []
    label_at: dict[int, list[str]] = {}
    for label, addr in image.labels.items():
        label_at.setdefault(addr, []).append(label)
    for instr in image.instructions:
        addr = image.addr_of[id(instr)]
        for label in sorted(label_at.get(addr, ())):
            lines.append(f"{label}:")
        lines.append(f"  {addr:#08x}  ({width(instr)}B)  {instr.text()}")
    return "\n".join(lines)


def instruction_histogram(image: CodeImage, function: str | None = None) -> dict[str, int]:
    """Mnemonic -> count, optionally restricted to one function."""
    histogram: dict[str, int] = {}
    for instr in image.instructions:
        if function is not None:
            addr = image.addr_of[id(instr)]
            start, end = image.function_ranges[function]
            if not start <= addr < end:
                continue
        histogram[instr.mnemonic] = histogram.get(instr.mnemonic, 0) + 1
    return histogram
