"""The ``served-table3`` workload: a campaign service under closed-loop load.

A ``python -m repro.service serve`` subprocess runs with a file-backed
store in a run directory inside the checkout.  Set-up is the time from
starting it until the first ``/status`` answers; it repeats and
``setup_s`` is the median, with the last server kept for the timed phase.

One closed-loop client then waits for each reply before sending the next
request, as ``submit --wait`` users do.  It draws a seeded stream of
Table III campaigns (``integer_compare`` with seeded arguments, rotating
across the Table III schemes).  After each fresh job it fetches
``/jobs/<id>/map``; every ``DEDUP_EVERY``-th operation instead resubmits
a finished job, which the store deduplicates.  An op is a fresh job:
submit, wait, fetch the result.

The server's threads share one interpreter lock, so the server is the
bottleneck: a second client only queues behind the first (one and two
clients gave about the same jobs per second).  The bench process and the
server share one CPU, so the calibration-kernel slices taken between
operations (as on the engine workloads) measure the CPU the server runs
on, and where the OS scheduler places the two processes on a shared host
does not enter the figures.  ``peak_rss_mb`` is the server's ``VmHWM``
after a fixed number of jobs: the server's memory grows with every job,
so a figure read at the end would count how fast the host happened to be.

Checks feeding ``failed``: every job finishes with a well-formed report,
maps name their job, resubmissions deduplicate to the stored result, and
a seeded sample of jobs re-executed in-process with ``CampaignJob.execute``
and a fresh ``Workbench`` reproduces the served report exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

from common import (
    OUT_DIR,
    ROOT,
    HostSpeed,
    Report,
    Round,
    figures_line,
    layer_shares,
    median,
    overhead_pct,
    percentile,
    rounds,
)
from spans import SpanRecorder

from repro.analysis.table3 import TABLE3_ATTACKS, TABLE3_WORKLOAD
from repro.service.client import NO_RETRY, ServiceClient, ServiceError
from repro.service.jobs import AttackSpec, CampaignJob
from repro.toolchain import CompileConfig, Workbench

NAME = "served-table3"
#: every k-th operation resubmits one of the finished jobs
DEDUP_EVERY = 5
SIZES = {"setups": 7, "reexecute": 4, "traces": 60}
START_TIMEOUT_S = 60.0
#: Calibration-kernel slices before and after each server start.
SETUP_SLICES = 10
#: Seconds of operations between two calibration-kernel slices.
SLICE_S = 0.05
#: Fresh jobs after which the server's peak memory is read.
RSS_AT_JOBS = 400

LAYER_TARGETS = (
    (ServiceClient, "service_status", "service.status"),
    (ServiceClient, "submit", "service.submit"),
    (ServiceClient, "wait", "service.wait"),
    (ServiceClient, "results", "service.result"),
    (ServiceClient, "map", "service.map"),
)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro.service serve`` subprocess with its own store."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.port = _free_port()
        self.proc = None

    def start(self) -> float:
        """Start the server; returns seconds until ``/status`` answered."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        begin = time.perf_counter()
        with open(os.path.join(self.workdir, "server.log"), "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", str(self.port),
                 "--db", os.path.join(self.workdir, "store.sqlite")],
                cwd=self.workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        probe = ServiceClient(port=self.port, timeout=5.0, connect_timeout=1.0,
                              retry=NO_RETRY)
        while True:
            try:
                probe.service_status()
                return time.perf_counter() - begin
            except ServiceError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with {self.proc.returncode}")
                if time.perf_counter() - begin > START_TIMEOUT_S:
                    raise RuntimeError("server did not answer /status")
                time.sleep(0.002)

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size so far, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Client:
    """The closed-loop client with its seeded job stream."""

    def __init__(self, seed: int, schemes, source: str, server: Server,
                 recorder: SpanRecorder):
        self.rng = random.Random(seed)
        self.schemes = schemes
        self.source = source
        self.server = server
        self.client = server.client()
        self.recorder = recorder
        self.server_rss_mb = 0.0
        self.ops = 0  # operations of every kind, for the dedup rhythm
        self.jobs = 0
        self.submitted: set[tuple[int, int, str]] = set()
        self.finished: list[tuple[CampaignJob, dict]] = []
        self.job_ms: list[float] = []
        self.map_ms: list[float] = []
        self.dedup_ms: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []

    def _job(self) -> CampaignJob:
        """The next fresh job: never one submitted before.  Half the jobs
        compare equal values."""
        scheme = self.schemes[self.jobs % len(self.schemes)]
        self.jobs += 1
        while True:
            a = self.rng.randrange(65536)
            b = a if self.rng.random() < 0.5 else self.rng.randrange(65536)
            if (a, b, scheme) not in self.submitted:
                self.submitted.add((a, b, scheme))
                break
        return CampaignJob(
            source=self.source,
            function=TABLE3_WORKLOAD[1],
            args=(a, b),
            config=CompileConfig(scheme=scheme),
            attacks=tuple(AttackSpec.make(suite, label=label, **kwargs)
                          for label, suite, kwargs in TABLE3_ATTACKS),
            title=f"table3/{scheme}",
        )

    def _fresh(self) -> None:
        job = self._job()
        job_id = job.job_id()
        self.attempted += 1
        with self.recorder.span("bench.job"):
            start = time.perf_counter()
            ack = self.client.submit(job)
            self.client.wait(job_id)
            result = self.client.results(job_id)
            self.job_ms.append((time.perf_counter() - start) * 1e3)
        report = result.get("report") or {}
        if (ack.get("deduplicated") or result.get("job_id") != job_id
                or sorted(report.get("attacks", {})) != sorted(l for l, _, _ in TABLE3_ATTACKS)
                or not all(a.get("trials") for a in report["attacks"].values())):
            self.errors.append(f"job {job_id}: bad ack {ack} or result")
            return
        self.finished.append((job, result))
        if len(self.finished) == RSS_AT_JOBS:
            self.server_rss_mb = self.server.peak_rss_mb()
        self.attempted += 1
        with self.recorder.span("bench.map"):
            start = time.perf_counter()
            payload = self.client.map(job_id)
            self.map_ms.append((time.perf_counter() - start) * 1e3)
        if payload.get("job_id") != job_id or "map" not in payload:
            self.errors.append(f"map of {job_id}: {sorted(payload)}")

    def _dedup(self) -> None:
        job, expected = self.finished[self.rng.randrange(len(self.finished))]
        job_id = job.job_id()
        self.attempted += 1
        with self.recorder.span("bench.dedup"):
            start = time.perf_counter()
            ack = self.client.submit(job)
            result = self.client.results(job_id)
            self.dedup_ms.append((time.perf_counter() - start) * 1e3)
        if not ack.get("deduplicated") or result != expected:
            self.errors.append(f"resubmitted {job_id}: ack {ack}, result changed")

    def _op(self) -> None:
        self.ops += 1
        try:
            if self.ops % DEDUP_EVERY == 0 and self.finished:
                self._dedup()
            else:
                self._fresh()
        except Exception as exc:  # an operation that raises has failed
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def loop(self, deadline: float, host: HostSpeed) -> float:
        """Operations until ``deadline``, with a calibration-kernel slice
        after every ``SLICE_S`` seconds of them.  Returns the seconds spent
        in operations."""
        wall = 0.0
        now = time.perf_counter()
        while now < deadline:
            slice_start, slice_end = now, min(deadline, now + SLICE_S)
            while now < slice_end:
                self._op()
                now = time.perf_counter()
            wall += now - slice_start
            host.sample()
            now = time.perf_counter()
        return wall


class Served:
    """One run: set-ups, timed rounds, checks, metrics."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 setups: int, reexecute: int, traces: int):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setups = setups
        self.reexecute = reexecute
        self.traces = traces
        self.recorder = SpanRecorder()
        self.report = Report(NAME, seed, trace)
        self.rounds: list[Round] = []
        self.figures: dict = {}
        self.server_spans: list[dict] = []

    def _round(self, traced: bool, client: Client, seconds: float) -> Round:
        """Run the client for ``seconds``."""
        host = HostSpeed()
        jobs0 = len(client.job_ms)
        start = time.perf_counter()
        with self.recorder.wrapping(LAYER_TARGETS if traced else ()):
            wall = client.loop(start + seconds, host)
        end = time.perf_counter()
        return Round(traced, len(client.job_ms) - jobs0, wall, start, end, host=host)

    def _reexecute(self, client: Client) -> None:
        """Re-run a seeded sample of served jobs in-process."""
        finished = client.finished
        rng = random.Random(self.seed)
        sample = rng.sample(finished, min(self.reexecute, len(finished)))
        workbench = Workbench()
        for job, served in sample:
            self.report.attempted += 1
            local = job.execute(workbench)
            if (json.dumps(local["report"], sort_keys=True)
                    != json.dumps(served["report"], sort_keys=True)):
                self.report.failed += 1
                self.report.lines.append(
                    f"job {job.job_id()}: in-process report differs from served"
                )

    def _server_layers(self, client: ServiceClient, finished) -> None:
        """Per-layer numbers read from ``/jobs/<id>/trace`` and ``/metrics``."""
        m, figures = self.report.metrics, self.figures
        finished = [job for job, _ in finished]
        rng = random.Random(self.seed)
        sample = rng.sample(finished, min(self.traces, len(finished)))
        compile_ms, attack_ms, gap_ms, gap_pct = [], [], [], []
        for job in sample:
            spans = client.trace(job.job_id())
            self.server_spans.extend(
                {"source": "server", "job": job.job_id(), **s} for s in spans)
            root = next(s for s in spans if s["parent_id"] is None)
            children = [s for s in spans if s["parent_id"] == root["span_id"]]
            compile_ms.append(sum(s["end_ms"] - s["start_ms"]
                                  for s in children if s["name"] == "compile"))
            attack_ms.append(sum(s["end_ms"] - s["start_ms"]
                                 for s in children if s["name"] == "attack"))
            job_ms = root["end_ms"] - root["start_ms"]
            gap_ms.append(job_ms - _union_ms(children))
            gap_pct.append(100.0 * gap_ms[-1] / job_ms if job_ms else 0.0)
        m["service.trace_gap_pct"] = median(gap_pct)
        figures["service.compile_span_ms"] = (median(compile_ms), "ms")
        figures["service.attack_span_ms"] = (median(attack_ms), "ms")
        figures["service.trace_gap_ms"] = (median(gap_ms), "ms")

        scrape = _parse_metrics(client.metrics())
        jobs = scrape.get("repro_job_seconds_count", 0.0)
        figures["obs.job_seconds_mean_ms"] = (
            1e3 * scrape.get("repro_job_seconds_sum", 0.0) / jobs if jobs else 0.0, "ms")
        # Cache hits cost next to nothing, so compile seconds per miss is
        # the cost of one real compilation.
        misses = scrape.get("repro_compile_cache_misses", 0.0)
        m["toolchain.compile_misses"] = misses
        m["toolchain.compile_s"] = (
            scrape.get("repro_compile_seconds_sum", 0.0) / misses if misses else 0.0)
        for metric, series in (
            ("scheduler.checkpoints", "repro_engine_checkpoints"),
            ("scheduler.trials", "repro_engine_trials_total"),
            ("scheduler.simulated_instructions", "repro_engine_instructions_total"),
            ("scheduler.short_circuited", "repro_engine_trials_short_circuited_total"),
            ("superblock.blocks", "repro_engine_superblock_blocks_total"),
            ("superblock.deopt_steps", "repro_engine_superblock_deopt_steps_total"),
        ):
            m[metric] = scrape.get(series, 0.0)

    def _per_layer(self) -> None:
        rec, m = self.recorder, self.report.metrics
        traced = [r for r in self.rounds if r.traced]
        untraced = [r for r in self.rounds if not r.traced]
        spans = [s for r in traced for s in rec.between(r.start, r.end)]

        def p50(name, parent):
            return median([s.seconds * 1e3 for s in spans if s.name == name
                           and rec.spans[s.parent].name == parent])

        self.figures.update({
            "service.submit_ms": (p50("service.submit", "bench.job"), "ms"),
            "service.wait_ms": (p50("service.wait", "bench.job"), "ms"),
            "service.result_ms": (p50("service.result", "bench.job"), "ms"),
            "service.map_ms": (p50("service.map", "bench.map"), "ms"),
            "service.dedup_ms": (median([s.seconds * 1e3 for s in spans
                                         if s.name == "bench.dedup"]), "ms"),
        })
        m["service.jobs"] = sum(r.ops for r in traced)

        def rate(rs):
            return sum(r.ops for r in rs) / sum(r.wall * r.host.scale for r in rs)

        m["trace_overhead_pct"] = overhead_pct(rate(untraced), rate(traced))
        wall = sum(b - a for a, b in self.setup_windows)
        wall += sum(r.wall for r in traced)
        setup_spans = [s for a, b in self.setup_windows for s in rec.between(a, b)]
        m.update(layer_shares(rec, setup_spans + spans, wall))
        self.report.lines.append(figures_line(NAME, self.figures))

    def _start_servers(self, rundir: str) -> Server:
        """Start ``setups`` servers one after the other; keep the last."""
        server = None
        self.setup_times, self.setup_windows = [], []
        self.setup_host = HostSpeed()
        for index in range(self.setups):
            if server is not None:
                server.stop()
            workdir = os.path.join(rundir, str(index))
            os.mkdir(workdir)
            server = self.servers[index] = Server(workdir)
            wrappers = LAYER_TARGETS[:1] if self.trace else ()
            self.setup_host.sample(SETUP_SLICES)
            with self.recorder.wrapping(wrappers), self.recorder.span("service.start") as span:
                self.setup_times.append(server.start())
            self.setup_windows.append((span.start, span.end))
            self.setup_host.sample(SETUP_SLICES)
        return server

    def run(self) -> Report:
        OUT_DIR.mkdir(exist_ok=True)
        rundir = tempfile.mkdtemp(prefix="served-", dir=OUT_DIR)
        self.servers = {}
        # The server started below inherits the one CPU.
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(affinity)})
        try:
            server = self._start_servers(rundir)
            client = self._timed(server)
            self._reexecute(client)
            if self.trace:
                self._server_layers(server.client(), client.finished)
            server.stop()
        finally:
            for server in self.servers.values():
                server.stop()
            os.sched_setaffinity(0, affinity)
            shutil.rmtree(rundir, ignore_errors=True)
        if self.trace:
            self._per_layer()
            self.recorder.write_ndjson(OUT_DIR / f"{NAME}-seed{self.seed}.ndjson",
                                       [{"figures": self.figures}, *self.server_spans])
        else:
            self._end_to_end(client)
        return self.report

    def _timed(self, server: Server) -> Client:
        from repro.programs import load_source
        from repro.toolchain.registry import table3_schemes

        client = Client(self.seed, table3_schemes(), load_source(TABLE3_WORKLOAD[0]),
                        server, self.recorder)
        for traced, seconds in rounds(self.seconds, self.trace):
            self.rounds.append(self._round(traced, client, seconds))
        if not client.server_rss_mb:  # a short run: read it now
            client.server_rss_mb = server.peak_rss_mb()
        self.report.attempted += client.attempted
        self.report.failed += len(client.errors)
        self.report.lines.extend(client.errors[:5])
        return client

    def _end_to_end(self, client: Client) -> None:
        m = self.report.metrics
        jobs = sum(r.ops for r in self.rounds)
        wall = sum(r.wall for r in self.rounds)
        job_ms = client.job_ms or [0.0]
        map_ms = client.map_ms or [0.0]
        dedup_ms = client.dedup_ms or [0.0]
        host = HostSpeed()
        for r in self.rounds:
            host.add(r.host)
        raw = {
            "setup_s": median(self.setup_times),
            "ops_per_s": jobs / wall,
            "op_p50_ms": percentile(job_ms, 0.50),
            "op_p95_ms": percentile(job_ms, 0.95),
            "map_p50_ms": percentile(map_ms, 0.50),
            "dedup_p50_ms": percentile(dedup_ms, 0.50),
        }
        # Times on the reference host (see HostSpeed).
        scaled = {name: value * host.scale for name, value in raw.items()}
        scaled["setup_s"] = raw["setup_s"] * self.setup_host.scale
        scaled["ops_per_s"] = raw["ops_per_s"] / host.scale
        m = self.report.metrics
        for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms"):
            m[name] = scaled[name]
        m["peak_rss_mb"] = client.server_rss_mb
        for label, values in (("reference host", scaled), ("this host", raw)):
            self.report.lines.append(
                f"{NAME} ({label}): setup_s={values['setup_s']:.4f} s "
                f"jobs_per_s={values['ops_per_s']:.2f} 1/s "
                f"job_p50_ms={values['op_p50_ms']:.3f} ms "
                f"job_p95_ms={values['op_p95_ms']:.3f} ms "
                f"map_p50_ms={values['map_p50_ms']:.3f} ms "
                f"dedup_p50_ms={values['dedup_p50_ms']:.3f} ms"
            )
        self.report.lines.append(
            f"{NAME}: {len(job_ms)} jobs, {len(map_ms)} maps, {len(dedup_ms)} "
            f"resubmissions, host speed {host.scale:.3f} (set-up "
            f"{self.setup_host.scale:.3f}) of the reference, "
            f"peak_rss_mb={m['peak_rss_mb']:.1f} MB (server, after "
            f"{min(RSS_AT_JOBS, len(job_ms))} jobs)"
        )


def _union_ms(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s["start_ms"]):
        start, stop = max(s["start_ms"], end), s["end_ms"]
        if stop > start:
            total += stop - start
        end = max(end, stop)
    return total


def _parse_metrics(text: str) -> dict:
    """Unlabelled series of a Prometheus text scrape."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def run(seed: int, seconds: float, trace: bool, **sizes) -> Report:
    """Run the served workload; ``sizes`` overrides :data:`SIZES`."""
    return Served(seed, seconds, trace, **{**SIZES, **sizes}).run()
