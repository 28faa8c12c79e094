"""The speculative engine: bounded transient execution on a misprediction.

A :class:`SpecEngine` is attached by ``CPU(..., spec=SpecConfig(...))``.
With a non-zero window the CPU retires every conditional branch it steps
through :meth:`SpecEngine.retire_bcc` (the speculative trace variant
ends its blocks at every control transfer, so every ``Bcc`` steps):

1. resolve the architectural direction (:meth:`CPU.branch_holds`, the
   helper the reference ``Bcc`` semantics decide through) and
   consult/train the predictor;
2. on a misprediction, execute up to ``window`` instructions down the
   wrong path in a **transient frame** — shadow copies of registers and
   flags, loads observed, stores buffered (with store-to-load
   forwarding), device/MMIO accesses stalled — then squash: every
   architectural effect is rolled back and the misprediction penalty is
   charged;
3. append what the wrong path *touched* (load addresses, MMIO reads,
   retirement count, cycle delta) to the :class:`TransientTrace` — the
   observable microarchitectural channel that survives the squash.

The trace is digested incrementally into sha256, so two runs leak the
same secret iff their digests match; :func:`repro.faults.classify.
classify` compares golden vs faulted digests to flag ``TRANSIENT_LEAK``.
Engine state (predictor, counters, running hash) snapshots and restores
with the CPU, so checkpoint forking reconstructs digests bit-identically.

``window=0`` short-circuits: branches retire on the plain path and the
CPU is byte-for-byte the speculation-free simulator (the equivalence
suite pins this).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.isa.cpu import Status, WORD
from repro.isa.mmio import MMIO
from repro.isa.registers import PC
from repro.spec.predictor import build_predictor

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.cpu import CPU
    from repro.spec.config import SpecConfig


@dataclass(frozen=True)
class SpecSummary:
    """What a run's speculation looked like, attached to
    :class:`~repro.isa.cpu.ExecutionResult` (compare-excluded there:
    architectural equality stays architectural)."""

    branches: int
    mispredictions: int
    transient_retired: int
    transient_cycles: int
    #: sha256 over every transient frame's observable events — equal
    #: digests mean the wrong paths touched identical addresses.
    digest: str


class TransientTrace:
    """The observable channel: an incremental digest of every transient
    frame, plus (optionally) the full per-frame event lists."""

    def __init__(self, record_frames: bool = False) -> None:
        self._hasher = hashlib.sha256()
        self.frames: Optional[list[dict]] = [] if record_frames else None

    def record_frame(
        self,
        branch_addr: int,
        wrong_pc: int,
        retired: int,
        cycles: int,
        events: list[tuple],
    ) -> None:
        hasher = self._hasher
        hasher.update(b"F%d,%d,%d,%d;" % (branch_addr, wrong_pc, retired, cycles))
        for event in events:
            hasher.update(repr(event).encode())
        if self.frames is not None:
            self.frames.append(
                {
                    "branch": branch_addr,
                    "wrong_pc": wrong_pc,
                    "retired": retired,
                    "cycles": cycles,
                    "events": list(events),
                }
            )

    def digest(self) -> str:
        return self._hasher.hexdigest()

    # Snapshot state holds a *copy* of the running hash object; hashlib
    # copies are cheap and deterministic but not picklable — snapshots
    # are never pickled (a forked executor worker inherits the parent's
    # schedulers as they are; a pickled program carries none).
    def snapshot_state(self):
        frames = list(self.frames) if self.frames is not None else None
        return (self._hasher.copy(), frames)

    def restore_state(self, state) -> None:
        hasher, frames = state
        self._hasher = hasher.copy()
        if self.frames is not None and frames is not None:
            self.frames[:] = frames


class SpecEngine:
    """Per-CPU speculation state machine (predictor + transient frames).

    It keeps no reference to its CPU (the CPU holds it as ``cpu.spec``),
    so a dropped speculative CPU and its memory are freed by refcount:
    the CPU passes itself in."""

    def __init__(self, cpu: "CPU", config: "SpecConfig") -> None:
        self.config = config
        self.window = config.window
        self.predictor = build_predictor(config)
        self.penalty = (
            config.penalty
            if config.penalty is not None
            else cpu.cycles_model.misprediction()
        )
        self.trace = TransientTrace(config.record_trace)
        self.branches = 0
        self.mispredictions = 0
        self.transient_retired = 0
        self.transient_cycles = 0
        #: one-shot flag set by PredictorFlip: invert the next prediction.
        self.flip_next = False

    def retire_bcc(self, cpu: "CPU", instr, addr: int, width: int) -> int:
        """Retire the conditional branch ``instr`` at ``addr`` on ``cpu``:
        predict, train, speculate on a misprediction, and return the
        *architectural* next PC."""
        actual = cpu.branch_holds(instr)
        target = instr.target
        next_pc = addr + width
        predicted = self.predictor.predict(addr, target)
        if self.flip_next:
            predicted = not predicted
            self.flip_next = False
        self.predictor.update(addr, actual)
        self.branches += 1
        if actual:
            cpu.cycles += cpu._c_branch_taken
            if predicted:
                return target
            self._transient(cpu, addr, next_pc)
            cpu.cycles += self.penalty
            return target
        cpu.cycles += cpu._c_branch_not_taken
        if not predicted:
            return next_pc
        self._transient(cpu, addr, target)
        cpu.cycles += self.penalty
        return next_pc

    # ------------------------------------------------------------------
    # The transient frame
    # ------------------------------------------------------------------
    def _transient(self, cpu: "CPU", branch_addr: int, wrong_pc: int) -> None:
        self.mispredictions += 1
        saved_regs = list(cpu.regs)
        saved_flags = (cpu.n, cpu.z, cpu.c, cpu.v)
        saved_status = cpu.status
        saved_exit = cpu.exit_code
        saved_detect = cpu.detect_code
        # A fused branch executed transiently would consume the one-shot
        # branch-invert latch; the squash must restore it like any other
        # architectural state.
        saved_invert = cpu.branch_invert
        cycles_start = cpu.cycles
        memory = cpu.memory
        store_buffer: dict[int, int] = {}
        events: list[tuple] = []
        #: non-empty once the frame hits something it cannot speculate
        #: through (device access, out-of-bounds address)
        stall: list[bool] = []

        def transient_load(addr: int, size: int) -> int:
            addr &= WORD
            if MMIO.is_mmio(addr):
                events.append(("mmio-read", addr))
                return 0
            if addr + size > len(memory):
                events.append(("load-oob", addr))
                stall.append(True)
                return 0
            events.append(("load", addr, size))
            data = bytearray(memory[addr : addr + size])
            for i in range(size):
                forwarded = store_buffer.get(addr + i)
                if forwarded is not None:
                    data[i] = forwarded
            return int.from_bytes(data, "little")

        def transient_store(addr: int, value: int, size: int) -> None:
            addr &= WORD
            if MMIO.is_mmio(addr):
                # Device stores wait for retirement; the frame stalls.
                events.append(("mmio-write", addr))
                stall.append(True)
                return
            if addr + size > len(memory):
                events.append(("store-oob", addr))
                stall.append(True)
                return
            events.append(("store", addr, size))
            value &= (1 << (8 * size)) - 1
            for i, byte in enumerate(value.to_bytes(size, "little")):
                store_buffer[addr + i] = byte

        # Instance attributes shadow the class methods for the duration
        # of the frame, so the reference semantics observe loads and
        # buffer stores without knowing they run transiently.  The frame
        # executes plainly: no nested speculation, no predictor training
        # on the wrong path.
        cpu.load = transient_load
        cpu.store = transient_store
        decode = cpu._decode
        regs = cpu.regs
        pc = wrong_pc
        steps = 0
        try:
            while (
                steps < self.window and not stall and cpu.status is Status.RUNNING
            ):
                entry = decode.get(pc)
                if entry is None:
                    break
                instr, width = entry
                regs[PC] = pc
                cpu._pending_pc = None
                cpu.execute(instr)
                pending = cpu._pending_pc
                pc = pc + width if pending is None else pending
                steps += 1
        finally:
            del cpu.load
            del cpu.store
            # Squash: in-place restore so run loops holding a ``regs``
            # reference keep seeing the live register file.
            regs[:] = saved_regs
            cpu.n, cpu.z, cpu.c, cpu.v = saved_flags
            cpu.status = saved_status
            cpu.exit_code = saved_exit
            cpu.detect_code = saved_detect
            cpu.branch_invert = saved_invert
        delta = cpu.cycles - cycles_start
        cpu.cycles = cycles_start
        self.transient_retired += steps
        self.transient_cycles += delta
        self.trace.record_frame(branch_addr, wrong_pc, steps, delta, events)

    # ------------------------------------------------------------------
    # Snapshot / summary
    # ------------------------------------------------------------------
    def summary(self) -> SpecSummary:
        return SpecSummary(
            branches=self.branches,
            mispredictions=self.mispredictions,
            transient_retired=self.transient_retired,
            transient_cycles=self.transient_cycles,
            digest=self.trace.digest(),
        )

    def snapshot_state(self) -> tuple:
        return (
            self.predictor.snapshot_state(),
            self.branches,
            self.mispredictions,
            self.transient_retired,
            self.transient_cycles,
            self.flip_next,
            self.trace.snapshot_state(),
        )

    def restore_state(self, state: tuple) -> None:
        (
            predictor_state,
            self.branches,
            self.mispredictions,
            self.transient_retired,
            self.transient_cycles,
            self.flip_next,
            trace_state,
        ) = state
        self.predictor.restore_state(predictor_state)
        self.trace.restore_state(trace_state)
