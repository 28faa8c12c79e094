"""Pluggable branch predictors for the speculative front end.

All predictors share one tiny contract — :meth:`predict`, :meth:`update`,
plus snapshot/restore for checkpoint forking — and are deterministic pure
state machines, so every campaign engine (fork, reference,
executor-sharded) reconstructs bit-identical predictions.  ``poison`` is
the Spectre-BHI entry point: fault models overwrite the global history
register to alias a victim branch into an attacker-trained pattern; on
history-free predictors it is a harmless no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.spec.config import SpecConfig


class BranchPredictor:
    """Base contract; concrete predictors override everything below."""

    name = "base"

    def predict(self, addr: int, target: int) -> bool:
        """Predicted direction for the conditional branch at ``addr``."""
        raise NotImplementedError

    def update(self, addr: int, taken: bool) -> None:
        """Train on the resolved (architectural) direction."""

    def poison(self, pattern: int) -> None:
        """BHB-aliasing hook (Spectre-BHI); no-op unless history-based."""

    def snapshot_state(self):
        """Immutable state for :class:`~repro.isa.cpu.CpuSnapshot`."""
        return None

    def restore_state(self, state) -> None:
        """Restore state captured by :meth:`snapshot_state`."""


class StaticPredictor(BranchPredictor):
    """Stateless policies: always-taken, never-taken, or BTFNT
    (backward taken / forward not-taken — the classic loop heuristic)."""

    def __init__(self, policy: str) -> None:
        if policy not in ("always-taken", "never-taken", "btfnt"):
            raise ValueError(f"unknown static policy {policy!r}")
        self.name = policy
        self._policy = policy

    def predict(self, addr: int, target: int) -> bool:
        if self._policy == "always-taken":
            return True
        if self._policy == "never-taken":
            return False
        return target < addr  # btfnt


class TwoBitPredictor(BranchPredictor):
    """Per-branch 2-bit saturating counters, direct-mapped by address.

    Counters start at 1 (weakly not-taken); >= 2 predicts taken.
    """

    name = "twobit"

    def __init__(self, table_size: int) -> None:
        self._mask = table_size - 1 if table_size & (table_size - 1) == 0 else 0
        self._size = table_size
        self._table = [1] * table_size

    def _index(self, addr: int) -> int:
        slot = addr >> 2
        return slot & self._mask if self._mask else slot % self._size

    def predict(self, addr: int, target: int) -> bool:
        return self._table[self._index(addr)] >= 2

    def update(self, addr: int, taken: bool) -> None:
        index = self._index(addr)
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1

    def snapshot_state(self):
        return tuple(self._table)

    def restore_state(self, state) -> None:
        self._table[:] = state


class HistoryPredictor(TwoBitPredictor):
    """GShare-style predictor: a global branch-history register XORed
    into the table index, so different paths to the same branch train
    different counters — and so an attacker who controls the history
    (``poison``) controls *which* counter the victim branch consults."""

    name = "gshare"

    def __init__(self, table_size: int, history_bits: int) -> None:
        super().__init__(table_size)
        self._history_mask = (1 << history_bits) - 1
        self.history = 0

    def _index(self, addr: int) -> int:
        slot = (addr >> 2) ^ self.history
        return slot & self._mask if self._mask else slot % self._size

    def update(self, addr: int, taken: bool) -> None:
        super().update(addr, taken)
        self.history = ((self.history << 1) | int(taken)) & self._history_mask

    def poison(self, pattern: int) -> None:
        self.history = pattern & self._history_mask

    def snapshot_state(self):
        return (tuple(self._table), self.history)

    def restore_state(self, state) -> None:
        table, self.history = state
        self._table[:] = table


PREDICTORS = {
    "always-taken": lambda config: StaticPredictor("always-taken"),
    "never-taken": lambda config: StaticPredictor("never-taken"),
    "btfnt": lambda config: StaticPredictor("btfnt"),
    "twobit": lambda config: TwoBitPredictor(config.table_size),
    "gshare": lambda config: HistoryPredictor(config.table_size, config.history_bits),
}


def build_predictor(config: "SpecConfig") -> BranchPredictor:
    try:
        factory = PREDICTORS[config.predictor]
    except KeyError:
        raise ValueError(
            f"unknown predictor {config.predictor!r}; known: {sorted(PREDICTORS)}"
        ) from None
    return factory(config)
