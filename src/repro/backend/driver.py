"""Back-end driver: IR module -> executable CodeImage.

Mirrors the paper's Figure 3 back end: Instruction Selection -> (RA/frame,
which LLVM hides inside ISel's neighbours) -> CFI Instrumentation -> Code
Emission.  The front half (middle end) is :func:`repro.core.protect.
protect_module`; :func:`compile_ir` runs both halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.backend.cfi_instrumentation import CfiTables, instrument_function
from repro.backend.frame import expand_constants, hoist_constants, lower_frame
from repro.backend.isel import select_module
from repro.backend.machine import CfiMerge, MachineFunction
from repro.backend.regalloc import allocate
from repro.core.protect import protect_module
from repro.ir.cfg import split_critical_edges
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.isa.assembler import AsmBlock, AsmFunction, CodeImage, DataSegment, assemble
from repro.isa.cpu import CPU, CpuSnapshot, ExecutionResult
from repro.cfi.monitor import CfiMonitor
from repro.passes.lower_select import lower_selects
from repro.passes.lower_switch import lower_switches
from repro.toolchain.config import CompileConfig, require_config


def _scheduler_memo():
    from repro.faults.scheduler import SchedulerMemo  # late: import cycle

    return SchedulerMemo()


@dataclass
class CompiledProgram:
    """Everything needed to simulate and measure a compiled module."""

    image: CodeImage
    machine_functions: list[MachineFunction]
    cfi_tables: Optional[CfiTables]
    scheme: str
    cfi: bool
    stats: dict = field(default_factory=dict)
    #: The configuration this program was *requested* under (None only for
    #: hand-assembled programs built outside compile_ir).  Recompiling
    #: with it reproduces the program exactly; note a scheme may derive
    #: its effective knobs from these (e.g. ``duplication-hardened``
    #: builds its tree at twice ``duplication_order``).
    config: Optional[CompileConfig] = None
    #: (function, args, spec) -> TrialScheduler, a
    #: :class:`~repro.faults.scheduler.SchedulerMemo`; campaigns against
    #: one workload share a single golden run + checkpoint set.
    _schedulers: dict = field(default_factory=_scheduler_memo, repr=False, compare=False)
    #: (function, spec) -> (start snapshot, free list of trial CPUs): the
    #: CPUs every scheduler of that function borrows for its golden
    #: capture and its trials (see :meth:`take_trial_cpu`).
    _trial_cpus: dict = field(default_factory=dict, repr=False, compare=False)

    def size_of(self, function: str) -> int:
        return self.image.function_sizes[function]

    @property
    def target(self) -> str:
        """Name of the machine target the image was assembled for."""
        return self.image.target

    @property
    def code_size(self) -> int:
        return self.image.code_size

    def run(
        self,
        function: str,
        args: list[int] | None = None,
        max_cycles: int = 10_000_000,
        dispatch: str = "superblock",
        spec=None,
    ) -> ExecutionResult:
        cpu = self.prepare_cpu(function, args, dispatch=dispatch, spec=spec)
        return cpu.run(max_cycles)

    def prepare_cpu(
        self,
        function: str,
        args: list[int] | None = None,
        pre_hooks=None,
        dispatch: str = "superblock",
        spec=None,
    ) -> CPU:
        """``spec`` (a :class:`repro.spec.SpecConfig`) attaches the
        speculative front end — predictor, bounded transient window, and
        observable-trace digest (see :mod:`repro.spec`)."""
        cpu = CPU(self.image, dispatch=dispatch, spec=spec)
        if self.cfi:
            CfiMonitor(cpu, function)
        if pre_hooks:
            cpu.pre_hooks.extend(pre_hooks)
        cpu.call(function, list(args or []))
        return cpu

    # -- campaign support -------------------------------------------------
    def trial_scheduler(
        self, function: str, args: list[int] | None = None, spec=None
    ):
        """The cached checkpoint/trace scheduler for one (function, args)
        workload (see :class:`repro.faults.scheduler.TrialScheduler`)."""
        from repro.faults.scheduler import TrialScheduler

        return TrialScheduler.for_program(self, function, list(args or []), spec=spec)

    def take_trial_cpu(self, function: str, spec=None) -> tuple[CPU, CpuSnapshot]:
        """A CPU for ``function`` (speculating under ``spec``), in whatever
        state its previous user left it, and the start snapshot: the state
        ``prepare_cpu(function)`` leaves, with no arguments.  The caller
        restores a snapshot onto the CPU and hands it back with
        :meth:`give_trial_cpu`; until then no other caller gets it, so
        concurrent schedulers run on separate CPUs.  Only a caller that
        finds the free list empty allocates one."""
        key = (function, spec)
        pool = self._trial_cpus.get(key)
        if pool is None:
            cpu = self.prepare_cpu(function, spec=spec)
            pool = self._trial_cpus.setdefault(key, (cpu.snapshot(), []))
            return cpu, pool[0]
        start, free = pool
        try:
            cpu = free.pop()
        except IndexError:  # every CPU of the pool is out: one more
            return self.prepare_cpu(function, spec=spec), start
        cpu.pre_hooks.clear()
        return cpu, start

    def give_trial_cpu(self, function: str, spec, cpu: CPU) -> None:
        """Return a CPU :meth:`take_trial_cpu` handed out (dropped if the
        pool was cleared meanwhile)."""
        pool = self._trial_cpus.get((function, spec))
        if pool is not None:
            pool[1].append(cpu)

    def __getstate__(self):
        # The trial CPUs are per process, and the scheduler memo pickles
        # as an empty one: a copy captures its own golden runs.
        state = dict(self.__dict__)
        state["_trial_cpus"] = {}
        return state


def compile_ir(
    module: Module, *, config: Optional[CompileConfig] = None
) -> CompiledProgram:
    """Full pipeline: middle-end protection + back end + assembly.

    ``config`` (a :class:`~repro.toolchain.config.CompileConfig`) selects
    the Table III column via its registered ``scheme`` (``none`` = CFI-only
    baseline, ``duplication``, ``ancode`` = the prototype, plus anything
    third parties registered), whether to ``operand_check`` (merge operand
    residues into the CFI state — extension), and the ``cfi_policy``
    state-justification strategy: ``merge`` (optimised; corrections only
    at joins) or ``edge`` (the paper's per-transfer updates — used for the
    Table III comparison).
    """
    config = require_config(config, "compile_ir")
    stats = protect_module(module, config=config)

    # Back-end legalisation for *all* functions.
    lower_selects(module, only_protected=False)
    lower_switches(module, only_protected=False)
    for func in module.functions.values():
        if func.blocks:
            split_critical_edges(func)
    verify_module(module)

    machine_functions = select_module(module, config.hw_modulo, target=config.target)
    for mf in machine_functions:
        hoist_constants(mf)
        allocate(mf)
        lower_frame(mf)
        expand_constants(mf)

    cfi_tables: Optional[CfiTables] = None
    data = [
        DataSegment(g.name, g.size, g.initializer)
        for g in module.globals.values()
    ]
    if config.cfi:
        cfi_tables = CfiTables()
        for mf in machine_functions:
            instrument_function(mf, cfi_tables, policy=config.cfi_policy)
        for symbol, pool in cfi_tables.pools.items():
            data.append(
                DataSegment(symbol, max(4, 4 * len(pool)), cfi_tables.pool_bytes(symbol))
            )
    else:
        for mf in machine_functions:
            for block in mf.blocks:
                block.instructions = [
                    i for i in block.instructions if not isinstance(i, CfiMerge)
                ]

    asm_functions = [
        AsmFunction(mf.name, [AsmBlock(b.label, b.instructions) for b in mf.blocks])
        for mf in machine_functions
    ]
    image = assemble(asm_functions, data, target=config.target)
    return CompiledProgram(
        image=image,
        machine_functions=machine_functions,
        cfi_tables=cfi_tables,
        scheme=config.scheme,
        cfi=config.cfi,
        stats=stats,
        config=config,
    )
