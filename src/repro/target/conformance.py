"""Target conformance kit: what every registered target must prove.

``tests/target_conformance.py`` parametrises these checks over all
registered targets; third-party targets run the same kit::

    from repro.target.conformance import run_conformance
    run_conformance(my_target)   # raises ConformanceError with specifics

Checks (one function each, composable):

* :func:`check_encoding_roundtrip` — every sample instruction has a
  width from the target's advertised set, stable (pure) across queries,
  renders deterministic non-empty text, and has reference semantics (an
  entry in :data:`repro.isa.cpu.EXECUTE`).
* :func:`check_cycle_model` — every charge is a non-negative int,
  division costs are bounded at their probe extremes, and — on a real
  compiled workload — the timeout boundary is sharp: a budget of
  ``golden.cycles`` completes, and within one instruction charge below
  it every budget either reproduces the golden run exactly or times out.
* :func:`check_snapshot_restore` — a mid-block snapshot restored onto a
  fresh CPU, or back onto the CPU that ran on past it, replays the
  suffix to the identical final result.
* :func:`check_dispatch_parity` — the reference interpreter and
  trace-compiled runs agree on golden runs.
* :func:`check_cfi_retire_order` — a trace-compiled protected run ends
  with the reference run's CFI monitor (state, call stack, passed checks
  and violations), though traces fold the monitor into their own
  arithmetic, and the protected program completes cleanly.

Every failure raises :class:`ConformanceError` naming the target and
the violated contract — a broken target fails loudly, never silently.
"""

from __future__ import annotations

from repro.isa import instructions as ins
from repro.isa.cpu import EXECUTE
from repro.target.base import Target

#: Small branchy workload every execution-level check compiles per
#: target: two comparisons (signed + equality), a bounded loop, and a
#: call, exercising fused/flag branch lowering either way.
_WORKLOAD = """
u32 helper(u32 x) { if (x > 9) { return x - 9; } return x; }
protect u32 f(u32 a, u32 b) {
    u32 acc = 0;
    for (u32 i = 0; i < 5; i += 1) { acc += helper(a + i); }
    if (acc == b) { return 1; }
    if (acc < b) { return 2; }
    return 3;
}
"""
_ARGS = [7, 45]


class ConformanceError(AssertionError):
    """A target violated the conformance contract."""


def _fail(target: Target, contract: str, detail: str) -> None:
    raise ConformanceError(
        f"target {target.name!r} violates the {contract} contract: {detail}"
    )


def _compiled(target: Target, scheme: str = "ancode"):
    from repro.minic.driver import compile_source
    from repro.toolchain import CompileConfig

    return compile_source(
        _WORKLOAD, config=CompileConfig(scheme=scheme, target=target.name)
    )


# ---------------------------------------------------------------------------
def check_encoding_roundtrip(target: Target) -> None:
    """Width/text/decode roundtrip for every sample instruction."""
    samples = target.sample_instructions()
    if not samples:
        _fail(target, "encoding", "sample_instructions() returned no samples")
    for instr in samples:
        # Branch widths need resolved layout, exactly as the assembler
        # leaves them.
        if hasattr(instr, "target"):
            instr.target = 0x200
        try:
            w = target.width(instr)
        except Exception as exc:
            _fail(target, "encoding", f"width({instr!r}) raised {exc!r}")
        if w not in target.widths:
            _fail(
                target,
                "encoding",
                f"width({instr!r}) = {w!r}, not in advertised widths "
                f"{target.widths}",
            )
        if target.width(instr) != w:
            _fail(target, "encoding", f"width({instr!r}) is not pure")
        text = instr.text()
        if not text or not isinstance(text, str):
            _fail(target, "encoding", f"{instr!r}.text() = {text!r}")
        if text != instr.text():
            _fail(target, "encoding", f"{instr!r}.text() is not stable")
        if type(instr) not in EXECUTE:
            _fail(
                target,
                "decode",
                f"no reference semantics (EXECUTE entry) for "
                f"{type(instr).__name__}",
            )
    # The target's conditional-branch classes must all be Bcc family so
    # golden traces index them under the branch mnemonic.
    for cls in target.branch_classes():
        if not issubclass(cls, ins.Bcc):
            _fail(
                target,
                "decode",
                f"branch class {cls.__name__} is not a Bcc subclass",
            )


# ---------------------------------------------------------------------------
def check_cycle_model(target: Target) -> None:
    """Non-negative charges; exact timeout boundary on a real workload."""
    model = target.cycle_model()
    charges = {
        "alu": model.alu(),
        "mul": model.mul(),
        "mla": model.mla(),
        "umull": model.umull(),
        "umod": model.umod(),
        "load": model.load(),
        "store": model.store(),
        "branch_taken": model.branch_taken(),
        "branch_not_taken": model.branch_not_taken(),
        "misprediction": model.misprediction(),
        "call": model.call(),
        "ret": model.ret(),
        "nop": model.nop(),
        "push_pop(4)": model.push_pop(4),
    }
    for name, value in charges.items():
        if not isinstance(value, int) or value < 0:
            _fail(target, "cycle-model", f"{name} charge is {value!r}")
    for a, b in ((0, 0), (1, 1), (0xFFFFFFFF, 1), (0xFFFFFFFF, 0), (7, 3)):
        cost = model.div(a, b)
        if not isinstance(cost, int) or cost < 0:
            _fail(target, "cycle-model", f"div({a}, {b}) charge is {cost!r}")
    program = _compiled(target)
    golden = program.run("f", _ARGS)
    if not golden.ok:
        _fail(target, "cycle-model", f"workload golden run failed: {golden}")
    exact = program.run("f", _ARGS, max_cycles=golden.cycles)
    if exact != golden:
        _fail(
            target,
            "cycle-model",
            f"budget of exactly golden.cycles ({golden.cycles}) did not "
            f"reproduce the golden run: {exact}",
        )
    # The engine checks the budget at fetch boundaries, so the sharp
    # completion boundary sits at most one instruction charge below
    # golden.cycles: every budget above it must reproduce the golden run
    # bit-for-bit, the first one at-or-below it must report a timeout.
    boundary = None
    for budget in range(golden.cycles - 1, max(golden.cycles - 65, -1), -1):
        result = program.run("f", _ARGS, max_cycles=budget)
        if result.status.value == "timeout":
            boundary = budget
            break
        if result != golden:
            _fail(
                target,
                "cycle-model",
                f"completing budget {budget} diverged from the golden run: "
                f"{result} != {golden}",
            )
    if boundary is None:
        _fail(
            target,
            "cycle-model",
            f"no budget within 64 cycles below golden.cycles "
            f"({golden.cycles}) timed out — the cycle counter is not "
            f"enforcing the budget",
        )


# ---------------------------------------------------------------------------
def check_snapshot_restore(target: Target) -> None:
    """Mid-block snapshot/restore identity, onto a fresh CPU and onto the
    CPU the snapshot came from."""
    from repro.isa.cpu import CpuSnapshot

    program = _compiled(target)
    cpu = program.prepare_cpu("f", _ARGS)
    partial = cpu.run(10_000_000, stop_at_instruction=40)
    if partial.instructions != 40:
        _fail(
            target,
            "snapshot",
            f"stop_at_instruction=40 stopped at {partial.instructions}",
        )
    snap = cpu.snapshot()
    if not isinstance(snap, CpuSnapshot):
        _fail(target, "snapshot", f"snapshot() returned {type(snap).__name__}")
    if snap.version != target.snapshot_version:
        _fail(
            target,
            "snapshot",
            f"snapshot schema v{snap.version} != target's advertised "
            f"v{target.snapshot_version}",
        )
    final = cpu.run(10_000_000)
    # Onto a fresh CPU, and back onto the CPU that ran on past the snapshot.
    for onto in (program.prepare_cpu("f", _ARGS), cpu):
        onto.restore(snap)
        resumed = onto.run(10_000_000)
        if resumed != final:
            _fail(
                target,
                "snapshot",
                f"restored suffix diverged: {resumed} != {final}",
            )


# ---------------------------------------------------------------------------
def check_dispatch_parity(target: Target) -> None:
    """Reference interpreter vs trace-compiled golden parity."""
    for scheme in ("none", "ancode"):
        program = _compiled(target, scheme)
        for args in (_ARGS, [3, 0], [200, 1000]):
            reference = program.run("f", args, dispatch="reference")
            # The first run steps what it reaches once; the second runs
            # the traces that compiled at their second reach.
            for run in ("first", "second"):
                traced = program.run("f", args, dispatch="superblock")
                if reference != traced:
                    _fail(
                        target,
                        "dispatch-parity",
                        f"scheme {scheme}, args {args}: reference {reference} "
                        f"!= superblock ({run} run) {traced}",
                    )


# ---------------------------------------------------------------------------
def check_cfi_retire_order(target: Target) -> None:
    """A trace-compiled protected run ends with the reference run's CFI
    monitor."""
    if not target.supports_cfi():
        _fail(target, "cfi", "target opts out of CFI; nothing to check")
    program = _compiled(target, "ancode")

    def monitor_after(dispatch: str, *hooks):
        cpu = program.prepare_cpu("f", _ARGS, dispatch=dispatch)
        cpu.retire_hooks.extend(hooks)
        result = cpu.run(10_000_000)
        if not result.ok:
            _fail(target, "cfi", f"protected run failed on {dispatch}: {result}")
        return cpu.monitor.snapshot_state()

    mnemonics: set = set()
    reference = monitor_after(
        "reference", lambda cpu, instr, events: mnemonics.add(instr.mnemonic)
    )
    if target.branch_mnemonic not in mnemonics:
        _fail(
            target,
            "cfi",
            f"no {target.branch_mnemonic!r} retirement observed in a "
            f"branchy protected workload",
        )
    if not reference[3]:
        _fail(target, "cfi", "the protected workload passed no CFI check")
    monitor_after("superblock")  # compiles the traces it reaches twice
    traced = monitor_after("superblock")
    if traced != reference:
        _fail(
            target,
            "cfi",
            f"monitor (state, call stack, violations, checks passed) after "
            f"a trace-compiled run {traced} != after the reference run "
            f"{reference}",
        )


#: name -> check, in dependency-ish order (structural first).
ALL_CHECKS = {
    "encoding-roundtrip": check_encoding_roundtrip,
    "cycle-model": check_cycle_model,
    "snapshot-restore": check_snapshot_restore,
    "dispatch-parity": check_dispatch_parity,
    "cfi-retire-order": check_cfi_retire_order,
}


def run_conformance(target: Target) -> list[str]:
    """Run every check; returns the names that passed, raises on the
    first violation."""
    passed = []
    for name, check in ALL_CHECKS.items():
        check(target)
        passed.append(name)
    return passed
