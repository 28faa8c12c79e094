"""MiniC compilation driver: source text -> IR module -> compiled program."""

from __future__ import annotations

from typing import Optional

from repro.backend.driver import CompiledProgram, compile_ir
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.minic.lower import lower_program
from repro.minic.parser import parse
from repro.toolchain.config import CompileConfig, require_config


def parse_to_ir(source: str, module_name: str = "minic") -> Module:
    """Front end only: MiniC source -> verified IR module."""
    module = lower_program(parse(source), module_name)
    verify_module(module)
    return module


def compile_source(
    source: str, *, config: Optional[CompileConfig] = None
) -> CompiledProgram:
    """Compile MiniC source through the full Figure 3 pipeline under one
    :class:`~repro.toolchain.config.CompileConfig` (default: the
    default-constructed config)."""
    config = require_config(config, "compile_source")
    module = parse_to_ir(source, config.module_name)
    return compile_ir(module, config=config)
