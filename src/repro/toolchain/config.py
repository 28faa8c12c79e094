"""Typed, frozen compilation configuration.

``CompileConfig`` replaces the loose bag of keyword arguments that used to
travel ``repro.compile_minic`` -> ``minic.driver.compile_source`` ->
``backend.driver.compile_ir`` -> ``core.protect.protect_module``.  It is

* **validated** on construction (unknown scheme, bad CFI policy, out-of-
  range duplication order all fail fast).  Scheme names are checked
  against the registry of *this* process: import the module that
  registers a third-party scheme before constructing (or deserialising)
  a config that names it,
* **serialisable** — ``to_dict()`` / ``from_dict()`` round-trip, for
  campaign manifests and cross-process workers,
* **hashable** — ``cache_key()`` is a stable content hash, the second half
  of the :class:`~repro.toolchain.workbench.Workbench` cache key,
* shipped with the Table III column presets (:meth:`paper`,
  :meth:`baseline`, :meth:`duplication`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.ancode.codes import ANCode
from repro.core.params import ProtectionParams
from repro.passes.duplication import DEFAULT_ORDER

#: Serialization format version (bump on incompatible dict layout changes).
SERIAL_VERSION = 1

#: CFI state-justification policies (canonical home; the back end's
#: ``repro.backend.cfi_instrumentation.POLICIES`` aliases this so config
#: validation never has to import the back end):
#: * ``merge`` — corrections only where paths actually merge,
#: * ``edge``  — a justification on every branch edge (the paper's
#:   software-centred GPSA, used for the Table III comparison).
CFI_POLICIES = ("merge", "edge")

@dataclass(frozen=True)
class CompileConfig:
    """Every knob of the Figure 3 pipeline as one immutable value object."""

    #: Branch-protection scheme name; must be registered (see
    #: :mod:`repro.toolchain.registry`).
    scheme: str = "ancode"
    #: Protection parameters; ``None`` means :meth:`ProtectionParams.paper`.
    params: Optional[ProtectionParams] = None
    #: Emit CFI instrumentation and run under the CFI monitor.
    cfi: bool = True
    #: CFI state-justification policy: ``merge`` (optimised) or ``edge``
    #: (the paper's per-transfer updates, used for the Table III numbers).
    cfi_policy: str = "merge"
    #: Comparison-tree order for the duplication baseline.
    duplication_order: int = DEFAULT_ORDER
    #: Use a native UMOD instruction instead of the UDIV+MLS idiom.
    hw_modulo: bool = False
    #: Merge comparison-operand residues into the CFI state (extension).
    operand_checks: bool = False
    #: Name the MiniC front end gives the produced IR module.  Consumed by
    #: ``compile_source``/``Workbench`` only; ``compile_ir`` operates on an
    #: already-built module and ignores it.
    module_name: str = "minic"
    #: Machine target the backend lowers to and the simulator models;
    #: must be registered (see :mod:`repro.target`).  Part of the content
    #: hash: compiling the same source for a different target is a
    #: different compilation, different service job, different campaign.
    target: str = "baseline"

    def __post_init__(self) -> None:
        from repro.toolchain.registry import get_scheme

        if not isinstance(self.scheme, str) or not self.scheme:
            raise ValueError(f"scheme must be a non-empty string, got {self.scheme!r}")
        get_scheme(self.scheme)  # raises UnknownSchemeError with the known set
        if self.params is not None and not isinstance(self.params, ProtectionParams):
            raise ValueError(
                f"params must be ProtectionParams or None, got {type(self.params).__name__}"
            )
        if self.cfi_policy not in CFI_POLICIES:
            raise ValueError(
                f"cfi_policy {self.cfi_policy!r} unknown; "
                f"expected one of {CFI_POLICIES}"
            )
        if not isinstance(self.duplication_order, int) or self.duplication_order < 1:
            raise ValueError(
                f"duplication_order must be a positive int, got {self.duplication_order!r}"
            )
        for flag in ("cfi", "hw_modulo", "operand_checks"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a bool, got {getattr(self, flag)!r}")
        if not isinstance(self.module_name, str) or not self.module_name:
            raise ValueError(
                f"module_name must be a non-empty string, got {self.module_name!r}"
            )
        from repro.target import get_target

        if not isinstance(self.target, str) or not self.target:
            raise ValueError(
                f"target must be a non-empty string, got {self.target!r}"
            )
        get_target(self.target)  # raises UnknownTargetError with the known set

    # -- presets (the Table III columns) --------------------------------
    @classmethod
    def paper(cls, **overrides: Any) -> "CompileConfig":
        """The paper's prototype column: AN-coded comparisons + CFI linking,
        per-edge CFI justification as measured in Table III."""
        overrides.setdefault("scheme", "ancode")
        overrides.setdefault("cfi_policy", "edge")
        return cls(**overrides)

    @classmethod
    def baseline(cls, **overrides: Any) -> "CompileConfig":
        """The CFI-only column: no branch protection."""
        overrides.setdefault("scheme", "none")
        overrides.setdefault("cfi_policy", "edge")
        return cls(**overrides)

    @classmethod
    def duplication(cls, **overrides: Any) -> "CompileConfig":
        """The state-of-the-art column: the 6x comparison-tree baseline."""
        overrides.setdefault("scheme", "duplication")
        overrides.setdefault("cfi_policy", "edge")
        return cls(**overrides)

    # -- derived values --------------------------------------------------
    def resolved_params(self) -> ProtectionParams:
        """The protection parameters with the paper default filled in."""
        return self.params if self.params is not None else ProtectionParams.paper()

    def replace(self, **changes: Any) -> "CompileConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        params = None
        if self.params is not None:
            params = {
                "A": self.params.an.A,
                "word_bits": self.params.an.word_bits,
                "functional_bits": self.params.an.functional_bits,
                "c_rel": self.params.c_rel,
                "c_eq": self.params.c_eq,
            }
        data = {
            "version": SERIAL_VERSION,
            "scheme": self.scheme,
            "params": params,
            "cfi": self.cfi,
            "cfi_policy": self.cfi_policy,
            "duplication_order": self.duplication_order,
            "hw_modulo": self.hw_modulo,
            "operand_checks": self.operand_checks,
            "module_name": self.module_name,
        }
        # The default target is omitted from the canonical dict so every
        # pre-multi-target cache key, service job id, and stored manifest
        # stays byte-identical; any other target is content-hashed.
        if self.target != "baseline":
            data["target"] = self.target
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompileConfig":
        data = dict(data)
        version = data.pop("version", SERIAL_VERSION)
        if version != SERIAL_VERSION:
            raise ValueError(f"unsupported CompileConfig version {version!r}")
        params_data = data.pop("params", None)
        params = None
        if params_data is not None:
            params = ProtectionParams(
                an=ANCode(
                    A=params_data["A"],
                    word_bits=params_data["word_bits"],
                    functional_bits=params_data["functional_bits"],
                ),
                c_rel=params_data["c_rel"],
                c_eq=params_data["c_eq"],
            )
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown CompileConfig fields: {sorted(unknown)}")
        return cls(params=params, **data)

    def cache_key(self) -> str:
        """Stable content hash (hex) — identical configs, identical keys,
        across processes and sessions.  Memoized: the instance is frozen,
        so the key is computed once (the Workbench consults it per
        compile, including cache hits)."""
        key = self.__dict__.get("_cache_key")
        if key is None:
            canonical = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            key = hashlib.sha256(canonical.encode()).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key


def require_config(config: Optional[CompileConfig], caller: str) -> CompileConfig:
    """``config`` checked for type, or the default configuration when
    None — the one argument check shared by the compile entry points."""
    if config is None:
        return CompileConfig()
    if not isinstance(config, CompileConfig):
        raise TypeError(
            f"{caller}: config must be a CompileConfig, "
            f"got {type(config).__name__}"
        )
    return config
