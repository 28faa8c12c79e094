"""Metric names, statistics and the result record shared by the workloads."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
#: Run artefacts (span NDJSON, service stores) stay inside the checkout.
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics, printed with ``--trace 0``.  An "op" is a fault
#: trial on the engine workloads and a served job on served-table3.  Times
#: are scaled to the reference host (:class:`HostSpeed`).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Span names of the program's layers, in the order they are reported.
LAYERS = (
    "toolchain.compile",
    "superblock.tables",
    "scheduler.golden",
    "scheduler.trial",
    "classify",
    "service.start",
    "service.status",
    "service.submit",
    "service.wait",
    "service.result",
    "service.map",
)

#: Per-layer metrics, printed with ``--trace 1``.  Every workload measures
#: every time here; a layer a workload does not use shows as a 0 share or
#: a 0 count.  Times of such layers (``service.wait_ms``,
#: ``scheduler.golden_s``, ...) are printed as named figures instead.
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.coverage_pct": "%",
    "trace_overhead_pct": "%",
    **{f"self_pct.{layer}": "%" for layer in LAYERS},
    "self_pct.uncovered": "%",
    "toolchain.compile_s": "s",
    "toolchain.compile_misses": "count",
    "superblock.table_calls": "count",
    "superblock.blocks": "count",
    "superblock.deopt_steps": "count",
    "scheduler.golden_instructions": "count",
    "scheduler.checkpoints": "count",
    "scheduler.trials": "count",
    "scheduler.simulated_instructions": "count",
    "scheduler.short_circuited": "count",
    "service.jobs": "count",
    "service.trace_gap_pct": "%",
}

#: Traced runs alternate untraced (False) and traced (True) rounds in this
#: ABBA order, so drift on a shared host does not favour either side.
TRACE_ROUNDS = (False, True, True, False, False, True, True, False)

#: Calibration-kernel steps per second on the reference host.  Engine
#: workload times are reported as if the host ran the kernel this fast.
REFERENCE_KERNEL_RATE = 5.0e6
KERNEL_STEPS = 20_000
_KERNEL_CODE = [(i % 4, i % 16, (i * 7) % 16) for i in range(64)]


def _kernel(steps: int) -> None:
    """A tiny register machine: the same kind of work as the simulator
    (dispatch, list and bytearray indexing), none of the program's code."""
    regs, mem, pc = [0] * 16, bytearray(4096), 0
    for _ in range(steps):
        op, a, b = _KERNEL_CODE[pc]
        if op == 0:
            regs[a] = (regs[a] + regs[b] + 1) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = (regs[b] << 1) & 0xFFFFFFFF
        elif op == 2:
            mem[regs[b] & 4095] = regs[a] & 0xFF
        else:
            regs[a] ^= mem[regs[b] & 4095]
        pc = (pc + 1) & 63


class HostSpeed:
    """How fast this CPU runs right now, from short calibration-kernel
    slices taken between slices of measured work.

    On a shared host a single-threaded run speeds up and slows down by a
    third as neighbours come and go.  The kernel slows down with it (its
    rate tracks trial throughput with a correlation of about 0.98 when
    interleaved every 50 ms), so ``scale`` turns a measured time into the
    time the reference host would take: ``seconds * scale``.  No change
    to the program can move the kernel."""

    def __init__(self) -> None:
        self.steps = 0
        self.seconds = 0.0

    def sample(self, slices: int = 1) -> None:
        for _ in range(slices):
            start = time.perf_counter()
            _kernel(KERNEL_STEPS)
            self.seconds += time.perf_counter() - start
            self.steps += KERNEL_STEPS

    def add(self, other: "HostSpeed") -> None:
        self.steps += other.steps
        self.seconds += other.seconds

    @property
    def scale(self) -> float:
        """Measured kernel rate over the reference rate."""
        return self.steps / self.seconds / REFERENCE_KERNEL_RATE


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread_order(n: int, start: int) -> list[int]:
    """A permutation of ``range(n)`` whose every prefix samples the whole
    range evenly (golden-ratio stride).  A time-bounded run then measures
    the same mix of cheap and costly trials however far it gets."""
    step = max(1, round(n * 0.6180339887498949))
    while math.gcd(step, n) != 1:
        step += 1
    return [(start + k * step) % n for k in range(n)]


def rounds(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    """The timed phase as ``(traced, seconds)`` rounds: one untraced round,
    or the :data:`TRACE_ROUNDS` pattern when tracing."""
    pattern = TRACE_ROUNDS if trace else (False,)
    return [(traced, seconds / len(pattern)) for traced in pattern]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """How much slower traced rounds ran than untraced ones, in percent."""
    if traced_rate <= 0:
        return 0.0
    return (untraced_rate / traced_rate - 1.0) * 100.0


def layer_shares(recorder: SpanRecorder, spans, wall_s: float) -> dict:
    """``self_pct.*`` and ``trace.coverage_pct`` for spans over ``wall_s``
    seconds of (per-thread) wall time."""
    if wall_s <= 0:
        return {}
    self_s = recorder.self_seconds(spans)
    covered = recorder.covered_seconds(spans)
    shares = {
        f"self_pct.{layer}": 100.0 * self_s.get(layer, 0.0) / wall_s
        for layer in LAYERS
    }
    shares["self_pct.uncovered"] = 100.0 * max(0.0, wall_s - covered) / wall_s
    shares["trace.coverage_pct"] = 100.0 * covered / wall_s
    shares["trace.wall_s"] = wall_s
    return shares


def figures_line(workload: str, figures: dict) -> str:
    """One line of named figures, ``{name: (value, unit)}``."""
    return f"{workload}: " + " ".join(
        f"{name}={value:.4g} {unit}" for name, (value, unit) in figures.items()
    )


def dominant_layer(metrics: dict) -> str:
    """The span name (or ``uncovered``) with the largest self-time share."""
    shares = {
        name.removeprefix("self_pct."): value
        for name, value in metrics.items()
        if name.startswith("self_pct.")
    }
    return max(shares, key=shares.get) if shares else "none"


@dataclass
class Round:
    """One timed round: ``ops`` operations in ``wall`` seconds of work
    between the ``perf_counter`` readings ``start`` and ``end``."""

    traced: bool
    ops: int
    wall: float
    start: float
    end: float
    #: engine counters before and after the round (engine workloads)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    #: host speed during the round
    host: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: digest of the seed's check campaign (identical across runs)
    digest: str = ""
    #: human-readable lines printed before the result
    lines: list = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def result(self) -> dict:
        """The final JSON line: every metric of the selected kind."""
        units = PER_LAYER if self.trace else END_TO_END
        metrics = {
            name: {"value": float(self.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        }
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }

    def print(self) -> None:
        for line in self.lines:
            print(line)
        print(
            f"{self.workload} seed={self.seed}: failed_frac="
            f"{self.failed_frac:.4g} ({self.failed}/{self.attempted}) "
            f"digest={self.digest or '-'}"
        )
        if self.trace:
            print(f"{self.workload}: dominant layer: {dominant_layer(self.metrics)}")
        print(json.dumps(self.result()), flush=True)
