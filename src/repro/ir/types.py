"""IR type system: fixed-width integers, an opaque 32-bit pointer, void."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """A first-class IR type.  Instances are interned module-wide constants."""

    name: str
    bits: int

    @property
    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    @property
    def is_integer(self) -> bool:
        return self.name.startswith("i") and self.name != "iptr"

    @property
    def is_pointer(self) -> bool:
        return self.name == "ptr"

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def __str__(self) -> str:
        return self.name


VOID = Type("void", 0)
I1 = Type("i1", 1)
I8 = Type("i8", 8)
I16 = Type("i16", 16)
I32 = Type("i32", 32)
#: Pointers are opaque and 32 bits wide (the target's address size).
PTR = Type("ptr", 32)


@dataclass(frozen=True)
class FunctionType:
    """Signature of a function: return type plus parameter types."""

    ret: Type
    params: tuple[Type, ...]

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret} ({params})"
