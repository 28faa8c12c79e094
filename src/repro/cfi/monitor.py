"""Runtime CFI monitor.

Attached to the CPU as a retire hook.  Mirrors the paper's CFI unit:

* every retired instruction advances the GPSA state;
* stores to ``CFI_MERGE`` fold the stored value into the state (this is how
  encoded condition symbols get linked in — Figure 2);
* stores to ``CFI_CHECK`` compare the stored (expected) value against the
  state and flag a violation on mismatch;
* calls push the caller state and switch to the callee's entry state;
  returns pop (an interprocedural shadow stack inside the monitor).
"""

from __future__ import annotations

from repro.cfi.gpsa import entry_state, merge
from repro.cfi.signatures import signature
from repro.isa import instructions as ins
from repro.isa.cpu import CPU, MAGIC_RETURN
from repro.isa.mmio import MMIO

_BL, _BX_LR = ins.Bl, ins.BxLr


class CfiMonitor:
    def __init__(self, cpu: CPU, entry_function: str):
        # No reference back to ``cpu``: the CPU holds the monitor, and a
        # cycle would leave each CPU's 2 MiB memory to the cyclic GC.
        self.image = cpu.image
        self.state = entry_state(entry_function)
        self.call_stack: list[int] = []
        self.violations = 0
        self.checks_passed = 0
        cpu.retire_hooks.append(self.on_retire)
        cpu.monitor = self  # included in CPU.snapshot()/restore()

    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Monitor state for CPU checkpoints (shadow stack included)."""
        return (self.state, list(self.call_stack), self.violations, self.checks_passed)

    def restore_state(self, snap: tuple) -> None:
        self.state, call_stack, self.violations, self.checks_passed = snap
        self.call_stack = list(call_stack)

    # ------------------------------------------------------------------
    def on_retire(self, cpu: CPU, instr, cfi_events) -> None:
        # Runs once per retired instruction — the campaign engine's hottest
        # hook.  The state advance inlines gpsa.update/rotl (one shift-or
        # and an xor) and the signature's per-instruction cache, and the
        # instruction kind checks use exact class identity instead of
        # isinstance.
        try:
            sig = instr._sig_cache
        except AttributeError:
            sig = signature(instr)
        state = self.state
        state = (((state << 1) | (state >> 31)) & 0xFFFFFFFF) ^ sig
        if cfi_events:
            for event in cfi_events:
                if event.addr == MMIO.CFI_MERGE:
                    state = merge(state, event.value)
                elif event.addr == MMIO.CFI_CHECK:
                    if event.value != state:
                        self.violations += 1
                        cpu.cfi_violation()
                    else:
                        self.checks_passed += 1
        cls = instr.__class__
        if cls is _BL:
            callee = self.image.function_of(instr.target)
            self.call_stack.append(state)
            state = entry_state(callee) if callee is not None else state
        elif cls is _BX_LR and self.call_stack:
            state = self.call_stack.pop()
        self.state = state
