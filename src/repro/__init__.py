"""repro — reproduction of "Securing Conditional Branches in the Presence of
Fault Attacks" (Schilling, Werner, Mangard; DATE 2018).

Public API highlights
---------------------

* :class:`repro.toolchain.CompileConfig` — every pipeline knob as one
  frozen, serialisable value object (presets: ``.paper()``,
  ``.baseline()``, ``.duplication()``).
* :func:`repro.toolchain.register_scheme` /
  :func:`repro.toolchain.list_schemes` — the pluggable branch-protection
  scheme registry behind every driver, bench, and campaign report.
* :class:`repro.toolchain.Workbench` — cached batch compilation plus a
  fluent fault-campaign builder.
* :class:`repro.ancode.ANCode` — AN-code arithmetic encoding.
* :class:`repro.core.ProtectionParams` / :class:`repro.core.EncodedComparator`
  — the paper's encoded comparison (Algorithms 1 and 2, Table I).
* :func:`repro.compile_minic` — compile MiniC source through the protected
  pipeline (Figure 3) to an ARMv7-M-like binary.
* :class:`repro.isa.CPU` — the ISA simulator with CFI monitor and fault hooks.
* :mod:`repro.faults` — fault models and injection campaigns.
* :mod:`repro.analysis` — fault-coverage analytics: per-instruction
  vulnerability maps, scheme diffs, Table III reproduction.
* :mod:`repro.obs` — unified metrics, tracing, and profiling across the
  engine, the service, and the worker fleet (``GET /metrics``, span
  traces, ``python -m repro.service top``).

See README.md for a quickstart and docs/architecture.md for the
subsystem map.
"""

from repro.ancode import ANCode, ANCodeError
from repro.core import EncodedComparator, Predicate, ProtectionParams, SymbolTable


def _detect_version() -> str:
    """Package version, sourced from the installed distribution metadata
    (single source of truth: pyproject.toml) with a literal fallback for
    source-tree usage (``PYTHONPATH=src``, no installation)."""
    try:
        from importlib.metadata import version

        return version("repro-secure-branches")
    except Exception:
        return "1.8.0"  # keep in sync with pyproject.toml


__version__ = _detect_version()

#: Toolchain names re-exported lazily (the compiler stack is heavy; the
#: arithmetic API above must stay importable without it).
_TOOLCHAIN_EXPORTS = (
    "CompileConfig",
    "Workbench",
    "register_scheme",
    "get_scheme",
    "list_schemes",
)

__all__ = [
    "ANCode",
    "ANCodeError",
    "EncodedComparator",
    "Predicate",
    "ProtectionParams",
    "SymbolTable",
    "__version__",
    *_TOOLCHAIN_EXPORTS,
]


def __getattr__(name):
    if name in _TOOLCHAIN_EXPORTS:
        import repro.toolchain

        return getattr(repro.toolchain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def compile_minic(source, config=None):
    """Compile MiniC source text under ``config`` (a
    :class:`~repro.toolchain.CompileConfig`); see
    :func:`repro.minic.driver.compile_source`.  Imported lazily so the
    lightweight arithmetic API does not pull in the whole compiler stack.
    """
    from repro.minic.driver import compile_source
    from repro.toolchain.config import require_config

    return compile_source(source, config=require_config(config, "compile_minic"))
