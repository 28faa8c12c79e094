"""The :class:`Target` interface and its registry.

One instance per machine model.  Everything here is *descriptive* — the
simulator engines stay shared; a target parameterises them (widths,
cycle model, branch semantics) rather than replacing them, which is what
keeps the result-identical dispatch tiers and campaign engines
result-identical per target.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.isa import instructions as ins
from repro.isa.cycles import CycleModel
from repro.isa.registers import LR, PC, SP


class UnknownTargetError(ValueError):
    """Lookup of a target name nobody registered."""


class DuplicateTargetError(ValueError):
    """Registration under a name that is already taken."""


class Target:
    """One machine model: encodings, registers, conditions, timing.

    Subclass and override; every attribute below is part of the contract
    the conformance kit (:mod:`repro.target.conformance`) enforces.
    """

    #: Registry key; ``CompileConfig(target=...)`` selects by this name.
    name: str = "?"
    #: Human-readable column label for side-by-side artefacts.
    label: str = ""
    description: str = ""

    # -- condition-code semantics -----------------------------------------
    #: True: conditional branches read the NZCV flags a preceding compare
    #: set (``cmp`` + ``b<cond>``).  False: the target is flagless and the
    #: backend lowers comparisons to fused register-compare branches
    #: (``b<cond> rn, rm, label``).
    flag_branches: bool = True
    #: Condition codes the backend may emit.
    conditions: tuple[str, ...] = ins.CONDITIONS

    # -- encodings ---------------------------------------------------------
    #: Encoding widths (bytes) the ISA admits; every ``width()`` result
    #: must be one of these.
    widths: tuple[int, ...] = (2, 4)

    # -- register file / calling convention --------------------------------
    #: All targets share the flat 16-register file of the simulator; the
    #: calling convention below is what the backend and ``prepare_cpu``
    #: assume when marshalling arguments and reading results.
    num_regs: int = 16
    arg_regs: tuple[int, ...] = (0, 1, 2, 3)
    ret_reg: int = 0
    callee_saved: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10, 11)
    sp: int = SP
    lr: int = LR
    pc: int = PC

    # -- trace/analysis vocabulary -----------------------------------------
    #: Mnemonic golden traces record conditional branches under (the
    #: fused subclasses deliberately keep ``"bcc"`` so cross-target
    #: analyses index branches identically).
    branch_mnemonic: str = "bcc"
    #: Mnemonic that opens the encoded-dataflow window (the AN-code
    #: encode multiply) for :func:`repro.faults.isa_campaign.encoded_window`.
    encode_mnemonic: str = "mul"

    # -- snapshot schema ----------------------------------------------------
    #: Snapshot schema version the target's CPUs produce/accept.  All
    #: bundled targets share the engine-wide schema
    #: (:data:`repro.isa.cpu.SNAPSHOT_VERSION`); a target that extends
    #: architectural state must bump this and extend ``CpuSnapshot``.
    snapshot_version: int = 3

    # ------------------------------------------------------------------
    def cycle_model(self) -> CycleModel:
        """A fresh default cycle model for this target."""
        return CycleModel()

    def width(self, instr: ins.Instr) -> int:
        """Encoded size of ``instr`` in bytes."""
        raise NotImplementedError

    def branch_classes(self) -> tuple[type, ...]:
        """Exact conditional-branch classes this target's backend emits."""
        return (ins.Bcc,) if self.flag_branches else (ins.BccReg, ins.BccImm)

    def sample_instructions(self) -> list[ins.Instr]:
        """At least one instance of every instruction class the backend
        can emit on this target — the conformance kit's roundtrip set."""
        raise NotImplementedError

    def supports_cfi(self) -> bool:
        """Whether the GPSA-based CFI monitor attaches to this target.
        All bundled targets retire through the shared hook protocol."""
        return True

    def validate(self) -> None:
        """Raise with a clear message when the target is malformed."""
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("target name must be a non-empty string")
        if not self.widths or any(
            not isinstance(w, int) or w <= 0 for w in self.widths
        ):
            raise ValueError(
                f"target {self.name!r}: widths must be positive ints, "
                f"got {self.widths!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Target {self.name}>"


_lock = threading.Lock()
_registry: dict[str, Target] = {}


def register_target(target: Target, *, replace: bool = False) -> Target:
    """Register ``target`` under ``target.name``."""
    target.validate()
    with _lock:
        if not replace and target.name in _registry:
            raise DuplicateTargetError(
                f"target {target.name!r} is already registered; "
                f"pass replace=True to override"
            )
        _registry[target.name] = target
    return target


def unregister_target(name: str) -> None:
    """Remove a registration (primarily for test cleanup)."""
    with _lock:
        if name not in _registry:
            raise UnknownTargetError(f"target {name!r} is not registered")
        del _registry[name]


def get_target(name: str) -> Target:
    """The registered :class:`Target` named ``name``."""
    target = _registry.get(name)
    if target is None:
        raise UnknownTargetError(
            f"unknown target {name!r}; registered targets: {list_targets()}"
        )
    return target


def list_targets() -> tuple[str, ...]:
    """All registered target names, in registration order."""
    return tuple(_registry)


def target_specs() -> tuple[Target, ...]:
    """All registered targets, in registration order."""
    return tuple(_registry.values())
