"""Machine-target registry: the multi-backend face of the simulator stack.

A :class:`Target` bundles everything the toolchain and the engines need
to know about one machine model — instruction encoding widths, register
file and calling convention, condition-code semantics (NZCV flags vs
fused register compares), the cycle model, CFI retire behaviour, and
the snapshot schema.  The pre-existing
Thumb-2-flavoured machine is the ``baseline`` target; ``rv32`` is a
RISC-V-flavoured second ISA with compressed/full-width encodings, no
flags (branches compare registers directly), and its own cycle model.

Select a target per compilation via
:class:`repro.toolchain.CompileConfig`::

    CompileConfig(scheme="ancode", target="rv32")

Register a third-party target::

    from repro.target import Target, register_target

    class MyTarget(Target):
        name = "mine"
        ...

    register_target(MyTarget())

and prove it with the conformance kit
(:mod:`repro.target.conformance`, driven by
``tests/target_conformance.py``).
"""

from __future__ import annotations

from repro.target.base import (
    DuplicateTargetError,
    Target,
    UnknownTargetError,
    get_target,
    list_targets,
    register_target,
    target_specs,
    unregister_target,
)
from repro.target.baseline import BaselineTarget
from repro.target.rv32 import Rv32CycleModel, Rv32Target

__all__ = [
    "BaselineTarget",
    "DuplicateTargetError",
    "Rv32CycleModel",
    "Rv32Target",
    "Target",
    "UnknownTargetError",
    "get_target",
    "list_targets",
    "register_target",
    "target_specs",
    "unregister_target",
]
