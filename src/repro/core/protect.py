"""One-call protection facade.

``protect_module(module, config=CompileConfig(...))`` runs the configured
middle-end pipeline over a module in place; the back end
(:mod:`repro.backend.driver`) then completes compilation including CFI
instrumentation.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.toolchain.config import CompileConfig, require_config


def protect_module(
    module: Module, *, config: Optional[CompileConfig] = None
) -> dict[str, object]:
    """Apply branch protection to every ``protect_branches`` function.

    The scheme comes from ``config`` (looked up in the
    :mod:`repro.toolchain.registry`).  Returns the per-pass statistics
    (e.g. how many branches were protected).
    """
    from repro.toolchain.registry import build_pipeline

    config = require_config(config, "protect_module")
    pipeline = build_pipeline(config)
    stats = pipeline.run(module)
    verify_module(module)
    return stats
