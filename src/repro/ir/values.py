"""IR value hierarchy with use-list maintenance.

Every operand edge is tracked: when instruction ``I`` uses value ``V``,
``I in V.users``.  Passes rely on :meth:`Value.replace_all_uses_with` to
rewrite the program safely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.instructions import Instruction


class Value:
    """Base of everything that can appear as an operand."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name
        self.users: set["Instruction"] = set()

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to ``other`` (RAUW)."""
        if other is self:
            return
        for user in list(self.users):
            user.replace_operand(self, other)

    @property
    def display(self) -> str:
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.display}:{self.type}>"


class Constant(Value):
    """An integer constant.  Stored unsigned within the type's width."""

    def __init__(self, type_: Type, value: int):
        super().__init__(type_)
        self.value = value & type_.mask if type_.bits else value

    @property
    def display(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class Undef(Value):
    """An undefined value (used transiently by SSA construction)."""

    @property
    def display(self) -> str:
        return "undef"


class Argument(Value):
    """A formal function parameter."""

    def __init__(self, type_: Type, name: str, index: int):
        super().__init__(type_, name)
        self.index = index
