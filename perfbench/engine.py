"""The in-process campaign workloads: ``memcmp-skip`` and ``bootloader-boot``.

Each set-up compiles the workload with a fresh ``Workbench``, captures the
golden run with a fresh ``TrialScheduler`` (so the per-image trace cache
and the scheduler memo start empty), and runs one warm-up trial so any
lazy trial-CPU or trace-table build lands in set-up.  Set-up repeats and
``setup_s`` is the median.  The timed phase then runs single-fault trials
through ``TrialScheduler.run_trial`` and ``classify``.  No engine or
dispatch is ever chosen here, so a later change of the default engine is
measured as is.

Checks feeding ``failed``: the golden exit code; the digest of a fixed
check campaign (records included), identical across the set-ups; repeated
trials reproducing their first row; and, on memcmp, a seeded sample of
timed trials re-run by ``run_attack(engine="reference")``, row for row.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from bisect import bisect_right
from dataclasses import dataclass

from common import (
    OUT_DIR,
    HostSpeed,
    Report,
    Round,
    figures_line,
    layer_shares,
    median,
    overhead_pct,
    peak_rss_mb,
    percentile,
    rounds,
    spread_order,
)
from spans import SpanRecorder

import repro.faults.classify as classify_layer
import repro.isa.superblock as superblock_layer
from repro.faults.isa_campaign import (
    AttackResult,
    CampaignReport,
    fire_index_of,
    run_attack,
)
from repro.faults.models import BranchDirectionFlip, InstructionSkip
from repro.faults.scheduler import TrialScheduler
from repro.isa.cpu import Status
from repro.service.jobs import report_to_dict
from repro.toolchain import CompileConfig, Workbench


class MemcmpSkip:
    """memcmp over the full 128-byte buffers under ancode, with a skip of
    every dynamic instruction; the seed picks where the trial order starts.
    Trial execution dominates: each trial forks right before its skip and
    simulates the long suffix.  (``n=256`` would read past the buffers
    and return 0 at byte 128.)

    A strided sweep whose offset the seed picks would give each seed its
    own mix of cheap and costly skips; the full sweep in a seeded,
    evenly spread order measures the same mix on every seed."""

    name = "memcmp-skip"
    function = "run_memcmp"
    args = [128]
    expected_exit = 1

    def __init__(self, seed: int):
        from repro.programs import load_source

        self.seed = seed
        self.source = load_source("memcmp")
        self.config = CompileConfig(scheme="ancode")
        self.initializers = None

    def trial_kwargs(self, scheduler) -> dict:
        return {}

    def models(self, scheduler):
        total = scheduler.golden.instructions
        return [InstructionSkip(i) for i in range(1, total + 1)]


class BootloaderBoot:
    """bootloader_main under ancode over a seeded 16-byte signed image.
    Golden capture and the checkpoint ladder dominate.  Instruction skips
    and branch flips are spread evenly over the last ``window`` retired
    instructions: the end of signature verification and the boot
    decision.  Each trial replays a long prefix from its checkpoint, then
    a short suffix.

    Faults earlier in the run are left out on purpose: a fault that goes
    undetected there runs on for millions of instructions, and a handful of
    such trials would set the pace of a whole run.  The trial budget is
    twice the golden run's cycles, because the stock 2M-cycle budget ends
    before this window does."""

    name = "bootloader-boot"
    function = "bootloader_main"
    args: list = []
    #: fault sites of each kind.  Skips are short and flips run to the end,
    #: so a 3:1 mix puts the median trial well inside the skips rather than
    #: in the gap between the two kinds.
    skips = 96
    flips = 32
    #: retired instructions at the end of the golden run the faults target
    window = 65536

    def __init__(self, seed: int):
        from repro.crypto.image import (
            BOOT_OK,
            bootloader_initializers,
            bootloader_params,
            bootloader_source,
            build_signed_image,
        )

        self.seed = seed
        self.expected_exit = BOOT_OK
        payload = random.Random(seed).randbytes(16)
        self.source = bootloader_source()
        self.config = CompileConfig(scheme="ancode", params=bootloader_params())
        self.initializers = bootloader_initializers(build_signed_image(payload))

    def trial_kwargs(self, scheduler) -> dict:
        return {"max_cycles": 2 * scheduler.golden.cycles}

    def models(self, scheduler):
        rng = random.Random(self.seed)
        trace = scheduler.trace
        start = scheduler.golden.instructions - self.window
        branches = trace.indices(trace.branch_mnemonic)
        first_branch = bisect_right(branches, start)  # occurrences are 1-based
        skip_gap = self.window // self.skips
        flip_gap = (len(branches) - first_branch) // self.flips
        skip0 = start + 1 + rng.randrange(skip_gap)
        flip0 = first_branch + 1 + rng.randrange(flip_gap)
        return [InstructionSkip(skip0 + k * skip_gap) for k in range(self.skips)] + [
            BranchDirectionFlip(flip0 + k * flip_gap) for k in range(self.flips)
        ]


WORKLOADS = {cls.name: cls for cls in (MemcmpSkip, BootloaderBoot)}

#: Set-up repetitions, check-campaign size and reference-oracle sample per
#: workload.  The smoke test shrinks them.
SIZES = {
    "memcmp-skip": {"setups": 9, "check": 16, "oracle": 24},
    "bootloader-boot": {"setups": 3, "check": 16, "oracle": 0},
}

#: Seconds of trials between two calibration-kernel slices.
SLICE_S = 0.05
#: Calibration-kernel slices before and after each set-up.
SETUP_SLICES = 5

#: Layer entry points wrapped during traced set-ups and rounds.
LAYER_TARGETS = (
    (Workbench, "compile", "toolchain.compile"),
    (TrialScheduler, "__init__", "scheduler.golden"),
    (TrialScheduler, "run_trial", "scheduler.trial"),
    (classify_layer, "classify", "classify"),
    (superblock_layer, "superblock_tables", "superblock.tables"),
)


def _stats(scheduler) -> dict:
    s = scheduler.stats
    return {
        "trials": s.trials,
        "short_circuited": s.short_circuited,
        "simulated_instructions": s.simulated_instructions,
        "superblock_blocks": s.superblock_blocks,
        "superblock_deopt_steps": s.superblock_deopt_steps,
    }


def _digest(result: AttackResult, scheme: str) -> str:
    report = CampaignReport(scheme=scheme, attacks={result.attack: result})
    text = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Setup:
    program: object
    scheduler: TrialScheduler
    models: list
    order: list
    #: keyword arguments of every ``run_trial`` call (the trial budget)
    kwargs: dict
    seconds: float
    compile_misses: int
    #: perf_counter window the set-up ran in (its spans start inside it)
    window: tuple


class Campaign:
    """One workload run: set-ups, timed rounds, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 setups: int, check: int, oracle: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setups = setups
        self.check = check
        self.oracle = oracle
        self.recorder = SpanRecorder()
        self.report = Report(workload.name, seed, trace)
        #: first row seen for each model index run in the timed phase
        #: (tuples of ints, which the garbage collector stops tracking)
        self.rows: dict[int, tuple] = {}
        self.latencies: list[float] = []
        self.rounds: list[Round] = []

    # -- set-up -------------------------------------------------------------
    def _setup_once(self) -> Setup:
        w = self.workload
        begin = time.perf_counter()
        workbench = Workbench()
        program = workbench.compile(w.source, w.config, initializers=w.initializers)
        scheduler = TrialScheduler(program, w.function, list(w.args))
        seconds = time.perf_counter() - begin
        models = w.models(scheduler)
        order = spread_order(len(models), self.seed)
        kwargs = w.trial_kwargs(scheduler)
        # Warm up on the latest-firing fault: it forks from the last
        # checkpoint, so set-up pays the lazy builds and not a long trial.
        warmup = max(models, key=lambda m: fire_index_of(m, scheduler.trace))
        start = time.perf_counter()
        scheduler.run_trial(warmup, **kwargs)
        end = time.perf_counter()
        return Setup(program, scheduler, models, order, kwargs, seconds + end - start,
                     workbench.misses, (begin, end))

    def _check(self, setup: Setup) -> str:
        """Digest of the fixed check campaign on this set-up's scheduler."""
        scheduler = setup.scheduler
        result = AttackResult("check", records=[])
        for index in setup.order[: self.check]:
            model = setup.models[index]
            faulted = scheduler.run_trial(model, **setup.kwargs)
            outcome = classify_layer.classify(scheduler.golden, faulted)
            result.record(outcome, faulted.exit_code)
            result.record_trial(fire_index_of(model, scheduler.trace), outcome,
                                faulted.exit_code)
        self.report.attempted += self.check
        return _digest(result, self.workload.config.scheme)

    def setup(self) -> None:
        self.setup_seconds, self.setup_windows, self.setup_misses = [], [], []
        self.setup_host = HostSpeed()
        digests = []
        for _ in range(self.setups):
            # Only the last set-up stays alive (bootloader ladders are big);
            # its CPUs hold reference cycles, so collect them right away.
            self.current = None
            gc.collect()
            self.setup_host.sample(SETUP_SLICES)
            setup = self.current = self._setup_once()
            self.setup_host.sample(SETUP_SLICES)
            self.setup_seconds.append(setup.seconds)
            self.setup_windows.append(setup.window)
            self.setup_misses.append(setup.compile_misses)
            golden = setup.scheduler.golden
            if golden.status is not Status.EXIT or golden.exit_code != self.workload.expected_exit:
                self.report.failed += self.check
                self.report.lines.append(f"wrong golden run: {golden}")
            digests.append(self._check(setup))
        mismatched = sum(1 for d in digests if d != digests[0])
        if mismatched:
            self.report.failed += mismatched * self.check
            self.report.lines.append(f"check digests differ across set-ups: {digests}")
        self.report.digest = digests[0]

    # -- timed phase --------------------------------------------------------------
    def _round(self, seconds: float, position: int) -> tuple[int, float, HostSpeed]:
        """Trials for ``seconds``, in slices of ``SLICE_S`` with a
        calibration-kernel slice after each.  Returns the operations, the
        seconds spent in trial slices and the host speed."""
        setup = self.current
        scheduler = setup.scheduler
        golden, trace = scheduler.golden, scheduler.trace
        models, order, kwargs = setup.models, setup.order, setup.kwargs
        host = HostSpeed()
        ops, wall = 0, 0.0
        now = time.perf_counter()
        deadline = now + seconds
        while now < deadline:
            slice_start, slice_end = now, min(deadline, now + SLICE_S)
            while now < slice_end:
                index = order[(position + ops) % len(order)]
                model = models[index]
                ops += 1
                try:
                    faulted = scheduler.run_trial(model, **kwargs)
                    outcome = classify_layer.classify(golden, faulted)
                except Exception as exc:  # a trial that raises is a failed operation
                    self.report.failed += 1
                    self.report.lines.append(f"trial {index} raised {exc!r}")
                    now = time.perf_counter()
                    continue
                self.latencies.append(time.perf_counter() - now)
                row = (fire_index_of(model, trace), outcome.value, faulted.exit_code)
                if self.rows.setdefault(index, row) != row:
                    self.report.failed += 1
                    self.report.lines.append(f"trial {index} changed row: {row}")
                now = time.perf_counter()
            wall += now - slice_start
            host.sample()
            now = time.perf_counter()
        return ops, wall, host

    def timed(self) -> None:
        gc.collect()  # set-up garbage is not the timed phase's to collect
        position = 0
        for traced, seconds in rounds(self.seconds, self.trace):
            before = _stats(self.current.scheduler)
            start = time.perf_counter()
            with self.recorder.wrapping(LAYER_TARGETS if traced else ()):
                ops, wall, host = self._round(seconds, position)
            position += ops
            self.rounds.append(Round(traced, ops, wall, start, time.perf_counter(),
                                     before, _stats(self.current.scheduler), host))
        self.report.attempted += position
        # Peak memory of the workload itself, before the checks add theirs.
        self.peak_rss_mb = peak_rss_mb()

    # -- checks -------------------------------------------------------------------
    def verify(self) -> None:
        if not self.oracle or not self.rows:
            return
        rng = random.Random(self.seed)
        sample = sorted(rng.sample(sorted(self.rows), min(self.oracle, len(self.rows))))
        w, setup = self.workload, self.current
        reference = run_attack(
            setup.program, w.function, list(w.args),
            [setup.models[i] for i in sample],
            engine="reference", record_trials=True,
        )
        self.report.attempted += len(sample)
        for index, row in zip(sample, reference.records):
            if self.rows[index] != tuple(row):
                self.report.failed += 1
                self.report.lines.append(
                    f"trial {index}: timed row {self.rows[index]} != reference {row}"
                )

    # -- metrics ------------------------------------------------------------------
    def end_to_end(self) -> None:
        ops = sum(r.ops for r in self.rounds)
        wall = sum(r.wall for r in self.rounds)
        lat_ms = [s * 1e3 for s in self.latencies] or [0.0]
        host = HostSpeed()
        for r in self.rounds:
            host.add(r.host)
        raw = {
            "setup_s": median(self.setup_seconds),
            "ops_per_s": ops / wall,
            "op_p50_ms": percentile(lat_ms, 0.50),
            "op_p95_ms": percentile(lat_ms, 0.95),
        }
        m = self.report.metrics
        # Times on the reference host (see HostSpeed).
        m["setup_s"] = raw["setup_s"] * self.setup_host.scale
        m["ops_per_s"] = raw["ops_per_s"] / host.scale
        m["op_p50_ms"] = raw["op_p50_ms"] * host.scale
        m["op_p95_ms"] = raw["op_p95_ms"] * host.scale
        m["peak_rss_mb"] = self.peak_rss_mb
        for label, values in (("reference host", m), ("this host", raw)):
            self.report.lines.append(
                f"{self.workload.name} ({label}): setup_s={values['setup_s']:.4f} s "
                f"trials_per_s={values['ops_per_s']:.2f} 1/s "
                f"trial_p50_ms={values['op_p50_ms']:.3f} ms "
                f"trial_p95_ms={values['op_p95_ms']:.3f} ms"
            )
        self.report.lines.append(
            f"{self.workload.name}: {len(lat_ms)} trials, host speed "
            f"{host.scale:.3f} (set-up {self.setup_host.scale:.3f}) of the "
            f"reference, peak_rss_mb={m['peak_rss_mb']:.1f} MB"
        )

    def per_layer(self) -> None:
        rec, m = self.recorder, self.report.metrics
        setup_spans = [rec.between(*window) for window in self.setup_windows]

        def setup_median(name):
            return median([sum(s.seconds for s in spans if s.name == name)
                           for spans in setup_spans])

        last = self.current.scheduler
        traced = [r for r in self.rounds if r.traced]
        untraced = [r for r in self.rounds if not r.traced]
        spans = [s for r in traced for s in rec.between(r.start, r.end)]
        delta = {key: sum(r.stats_after[key] - r.stats_before[key] for r in traced)
                 for key in traced[0].stats_before}
        trial_ms = [s.seconds * 1e3 for s in spans if s.name == "scheduler.trial"]
        trial_s = sum(trial_ms) / 1e3

        m["toolchain.compile_s"] = setup_median("toolchain.compile")
        m["toolchain.compile_misses"] = median(self.setup_misses)
        m["superblock.table_calls"] = sum(
            1 for s in spans + [s for ss in setup_spans for s in ss]
            if s.name == "superblock.tables"
        )
        m["superblock.blocks"] = delta["superblock_blocks"]
        m["superblock.deopt_steps"] = delta["superblock_deopt_steps"]
        m["scheduler.golden_instructions"] = last.golden.instructions
        m["scheduler.checkpoints"] = last.stats.checkpoints
        m["scheduler.trials"] = delta["trials"]
        m["scheduler.simulated_instructions"] = delta["simulated_instructions"]
        m["scheduler.short_circuited"] = delta["short_circuited"]

        def rate(rs):
            # Simulated instructions per reference-host second: unlike trials
            # per second it barely depends on which trials a short round ran.
            simulated = sum(r.stats_after["simulated_instructions"]
                            - r.stats_before["simulated_instructions"] for r in rs)
            return simulated / sum(r.wall * r.host.scale for r in rs)

        m["trace_overhead_pct"] = overhead_pct(rate(untraced), rate(traced))
        # Shares and coverage over everything traced: the set-ups and the
        # traced rounds.  The checks are the benchmark's own work.
        wall = sum(b - a for a, b in self.setup_windows)
        wall += sum(r.wall for r in traced)
        m.update(layer_shares(rec, [s for ss in setup_spans for s in ss] + spans, wall))

        self.figures = {
            "scheduler.golden_s": (setup_median("scheduler.golden"), "s"),
            "superblock.trace_compile_s": (setup_median("superblock.tables"), "s"),
            "scheduler.trial_s": (trial_s, "s"),
            "scheduler.trial_p95_ms": (percentile(trial_ms, 0.95), "ms"),
            "scheduler.sim_instr_per_s": (
                delta["simulated_instructions"] / trial_s, "1/s"),
            "classify.s": (sum(s.seconds for s in spans if s.name == "classify"), "s"),
        }
        self.report.lines.append(figures_line(self.workload.name, self.figures))

    def run(self) -> Report:
        with self.recorder.wrapping(LAYER_TARGETS if self.trace else ()):
            self.setup()
        self.timed()
        self.verify()
        if self.trace:
            self.per_layer()
            OUT_DIR.mkdir(exist_ok=True)
            self.recorder.write_ndjson(
                OUT_DIR / f"{self.workload.name}-seed{self.seed}.ndjson",
                [{"figures": self.figures}],
            )
        else:
            self.end_to_end()
        return self.report


def run(name: str, seed: int, seconds: float, trace: bool, **sizes) -> Report:
    """Run one engine workload; ``sizes`` overrides :data:`SIZES`."""
    workload = WORKLOADS[name](seed)
    return Campaign(workload, seed, seconds, trace, **{**SIZES[name], **sizes}).run()
