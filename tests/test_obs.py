"""Tests for repro.obs — metrics, tracing, profiling — and their wiring.

The observability contract (ISSUE 8):

* registry snapshots are picklable, mergeable, and delta-encodable, so
  forked trial workers and fleet heartbeats can carry metrics home
  without shared state or double counting;
* the shared quantile helper matches the exact nearest-rank rule (and
  numpy), and the streaming histograms stay within their documented
  bucket resolution;
* traces fold the existing job event stream into a span tree, round-trip
  through NDJSON and the result store (schema v3, migrated in place from
  v2), and are served on ``GET /jobs/<id>/trace``;
* campaign reports stay **byte-identical** with observability on vs off;
* ``/status`` counters and ``/metrics`` series share storage
  (:class:`RegistryStats`), so the two surfaces can never disagree.
"""

import json
import pickle
import re
import sqlite3
import sys
import threading
import time
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import latency_summary
from repro.faults.isa_campaign import branch_flip_sweep, skip_sweep
from repro.obs import (
    CATALOG,
    EngineProfiler,
    JobTraceRecorder,
    MetricsRegistry,
    RegistryStats,
    Tracer,
    quantile,
    snapshot_delta,
)
from repro.programs import load_source
from repro.service import BackgroundService, ServiceError
from repro.service.chaos import ChaosSchedule
from repro.service.fleet import FleetStats
from repro.service.jobs import AttackSpec, CampaignJob
from repro.service.store import SCHEMA_VERSION, ResultStore
from repro.service.top import render_top, run_top
from repro.toolchain import CampaignExecutor, CompileConfig, Workbench

import random


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------
class TestQuantile:
    def test_matches_numpy_nearest_rank(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 10, 101, 1000):
            data = [rng.lognormvariate(0, 2) for _ in range(n)]
            for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
                assert quantile(data, q) == float(
                    np.quantile(data, q, method="nearest")
                )

    def test_result_is_always_a_sample(self):
        data = [3.0, 1.0, 2.0]
        for q in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert quantile(data, q) in data

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_histogram_streaming_accuracy(self):
        """Log buckets at 100/decade: streaming quantiles within ~2.5 %
        of the exact nearest-rank value over 4 decades of data."""
        rng = random.Random(42)
        data = [rng.lognormvariate(0, 3) for _ in range(20_000)]
        hist = MetricsRegistry().histogram("repro_engine_batch_seconds")
        for value in data:
            hist.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = quantile(data, q)
            assert abs(hist.quantile(q) - exact) / exact < 0.025

    def test_histogram_zero_bucket(self):
        hist = MetricsRegistry().histogram("repro_compile_seconds")
        for value in (0.0, 0.0, 0.0, 5.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == pytest.approx(5.0, rel=0.025)

    def test_latency_summary_uses_shared_helper(self):
        samples = [0.001 * n for n in range(1, 101)]
        summary = latency_summary(samples)
        assert set(summary) == {"p50", "p95"}
        # seconds -> ms, nearest-rank over the raw samples.
        assert summary["p50"] == pytest.approx(quantile(samples, 0.5) * 1e3)
        assert summary["p95"] == pytest.approx(quantile(samples, 0.95) * 1e3)


# ---------------------------------------------------------------------------
# Registry: snapshots, merge, delta
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_is_monotonic(self):
        counter = MetricsRegistry().counter("repro_engine_trials_total")
        counter.inc(3)
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 3

    def test_snapshot_is_picklable_and_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("repro_engine_trials_total").inc(5)
        registry.gauge("repro_queue_depth").set(2)
        registry.histogram("repro_job_seconds").observe(0.25)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        assert json.loads(json.dumps(snapshot))["counters"] == {
            "repro_engine_trials_total": 5
        }

    def test_merge_adds_counters_and_buckets_overwrites_gauges(self):
        worker = MetricsRegistry()
        worker.counter("repro_engine_trials_total").inc(10)
        worker.gauge("repro_engine_checkpoints").set(7)
        worker.histogram("repro_engine_batch_seconds").observe(0.5)
        parent = MetricsRegistry()
        parent.counter("repro_engine_trials_total").inc(1)
        parent.gauge("repro_engine_checkpoints").set(3)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        assert parent.counter("repro_engine_trials_total").value == 21
        assert parent.gauge("repro_engine_checkpoints").value == 7
        assert parent.histogram("repro_engine_batch_seconds").count == 2

    def test_merge_preserves_labels(self):
        worker = MetricsRegistry()
        worker.counter("repro_store_jobs_total", labels={"state": "done"}).inc(4)
        parent = MetricsRegistry()
        parent.merge(worker.snapshot())
        assert (
            parent.counter("repro_store_jobs_total", labels={"state": "done"}).value
            == 4
        )

    def test_delta_sequence_reconstructs_totals(self):
        """The fleet-heartbeat invariant: merging every delta, each taken
        against the previously acknowledged snapshot, reconstructs the
        worker's totals exactly — no double counting, nothing lost."""
        worker = MetricsRegistry()
        coordinator = MetricsRegistry()
        acknowledged = None
        for round_no in range(1, 5):
            worker.counter("repro_worker_leases_total").inc(round_no)
            worker.histogram("repro_engine_batch_seconds").observe(0.1 * round_no)
            snapshot = worker.snapshot()
            coordinator.merge(snapshot_delta(acknowledged, snapshot))
            acknowledged = snapshot
        assert coordinator.snapshot() == worker.snapshot()

    def test_delta_skips_unchanged_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_worker_leases_total").inc(2)
        registry.histogram("repro_engine_batch_seconds").observe(1.0)
        first = registry.snapshot()
        registry.counter("repro_worker_shards_done_total").inc()
        delta = registry.delta(first)
        assert delta["counters"] == {"repro_worker_shards_done_total": 1}
        assert delta["histograms"] == {}


# ---------------------------------------------------------------------------
# RegistryStats: /status counters and /metrics series share storage
# ---------------------------------------------------------------------------
class TestRegistryStats:
    def test_fleet_stats_and_registry_share_storage(self):
        registry = MetricsRegistry()
        stats = FleetStats(registry)
        stats.leases += 3
        stats.steals = 2
        assert registry.counter("repro_fleet_leases_total").value == 3
        assert registry.counter("repro_fleet_steals_total").value == 2
        registry.counter("repro_fleet_leases_total").inc()
        assert stats.leases == 4
        assert stats.to_dict()["leases"] == 4

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            FleetStats(MetricsRegistry()).no_such_counter

    def test_chaos_counts_are_registry_series(self):
        registry = MetricsRegistry()
        schedule = ChaosSchedule(seed=1, drop=1.0, registry=registry)
        for _ in range(5):
            schedule.next_action()
        counts = schedule.counts
        assert counts["drop"] == 5
        assert (
            registry.counter(
                "repro_chaos_decisions_total", labels={"action": "drop"}
            ).value
            == 5
        )


# ---------------------------------------------------------------------------
# Forked trial workers: snapshots merge into the parent registry
# ---------------------------------------------------------------------------
class TestWorkerMetricsMerge:
    @pytest.fixture(scope="class")
    def program(self):
        return Workbench().compile(
            load_source("integer_compare"), CompileConfig(scheme="ancode")
        )

    def test_executor_merges_worker_snapshots(self, program):
        registry = MetricsRegistry()
        with CampaignExecutor(max_workers=2, metrics=registry) as executor:
            result = branch_flip_sweep(
                program, "integer_compare", [7, 7], executor=executor
            )
        assert result.trials > 0
        assert (
            registry.counter("repro_engine_trials_total").value == result.trials
        )
        # Every batch observed its wall time into the shared histogram.
        assert registry.histogram("repro_engine_batch_seconds").count >= 1

    def test_result_identical_with_metrics_on(self, program):
        with CampaignExecutor(max_workers=2) as executor:
            plain = branch_flip_sweep(
                program, "integer_compare", [7, 7],
                executor=executor, record_trials=True,
            )
        with CampaignExecutor(max_workers=2, metrics=MetricsRegistry()) as executor:
            metered = branch_flip_sweep(
                program, "integer_compare", [7, 7],
                executor=executor, record_trials=True,
            )
        assert metered == plain
        assert metered.records == plain.records

    def test_profiler_samples_program_schedulers(self, program):
        profiler = EngineProfiler()
        before = profiler.registry.counter("repro_engine_trials_total").value
        result = branch_flip_sweep(program, "integer_compare", [7, 8])
        profiler.sample_program(program)
        first = profiler.registry.counter("repro_engine_trials_total").value
        assert first >= before + result.trials
        # Idempotent between engine progress: re-sampling adds nothing.
        profiler.sample_program(program)
        assert profiler.registry.counter("repro_engine_trials_total").value == first


class _FakeScheduler:
    """What the profiler reads off a trial scheduler: its stats."""

    def __init__(self, trials: int):
        self.stats = SimpleNamespace(trials=trials, checkpoints=0, interval=0)


class TestProfilerBaselines:
    def test_a_scheduler_at_a_dropped_ones_address_counts_in_full(self):
        profiler = EngineProfiler()
        trials = profiler.registry.counter("repro_engine_trials_total")
        dropped = _FakeScheduler(trials=10)
        profiler.sample_scheduler(dropped)
        address = id(dropped)
        del dropped
        held = []  # keeps every miss alive, so its address is not reused
        for _ in range(100_000):
            fresh = _FakeScheduler(trials=4)
            if id(fresh) == address:
                break
            held.append(fresh)
        assert id(fresh) == address, "the allocator never reused the address"
        profiler.sample_scheduler(fresh)
        assert trials.value == 14

    def test_served_trials_total_counts_every_job(self):
        import gc

        from repro.faults.scheduler import TrialScheduler

        # Past TrialScheduler.MEMO_SIZE workloads per program, the memo
        # drops its oldest scheduler, and a fresh one may take its
        # address.
        schemes = ("none", "ancode", "duplication")
        jobs = len(schemes) * TrialScheduler.MEMO_SIZE + 3
        total = 0
        with BackgroundService(runners=1) as svc, svc.client() as client:
            for n in range(jobs):
                job = CampaignJob(
                    source=load_source("integer_compare"),
                    function="integer_compare",
                    args=(n, 2 * n + 1),
                    config=CompileConfig(scheme=schemes[n % len(schemes)]),
                    attacks=(
                        AttackSpec.make("branch-flip", max_branches=2),
                        AttackSpec.make("repeated-branch-flip"),
                    ),
                )
                report = client.run(job)["report"]
                total += sum(attack["trials"] for attack in report["attacks"].values())
            scrape = client.metrics()
            gc.collect()
            # Baselines are kept for live schedulers only.
            baselines = len(svc.scheduler._profiler._seen)
        assert _scraped(scrape, "repro_engine_trials_total") == total
        assert baselines <= len(schemes) * TrialScheduler.MEMO_SIZE < jobs


# ---------------------------------------------------------------------------
# Golden-rejoin counters
# ---------------------------------------------------------------------------
REJOIN_SERIES = (
    "repro_engine_trials_rejoined_total",
    "repro_engine_instructions_saved_total",
)


def _scraped(scrape: str, name: str) -> float:
    match = re.search(rf"^{name} (\S+)$", scrape, re.MULTILINE)
    assert match, f"{name} missing from /metrics"
    return float(match.group(1))


class TestRejoinCounters:
    @pytest.fixture(scope="class")
    def memcmp(self):
        return Workbench().compile(load_source("memcmp"), CompileConfig(scheme="ancode"))

    def test_served_skip_job_reports_rejoins(self):
        job = CampaignJob(
            source=load_source("memcmp"),
            function="run_memcmp",
            args=(8,),
            config=CompileConfig(scheme="ancode"),
            attacks=(AttackSpec.make("skip-sweep"),),
        )
        with BackgroundService(runners=1, trial_workers=0) as svc:
            client = svc.client()
            client.run(job)
            scrape = client.metrics()
        for name in REJOIN_SERIES:
            assert _scraped(scrape, name) > 0, name

    def test_executor_merged_totals_equal_serial(self, memcmp):
        # Whether a trial rejoins, and what it saves, depends on the
        # trial alone: workers' merged deltas add up to the serial run's.
        skip_sweep(memcmp, "run_memcmp", [8])
        profiler = EngineProfiler()
        profiler.sample_program(memcmp)
        registry = MetricsRegistry()
        with CampaignExecutor(max_workers=2, metrics=registry) as executor:
            skip_sweep(memcmp, "run_memcmp", [8], executor=executor)
        for name in REJOIN_SERIES + ("repro_engine_trials_total",):
            serial = profiler.registry.counter(name).value
            assert serial > 0, name
            assert registry.counter(name).value == serial, name


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


class TestTracer:
    def test_span_nesting_and_ndjson_roundtrip(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job", job_id="x"):
            with tracer.span("compile", scheme="ancode"):
                pass
            with tracer.span("attack", index=0) as attack:
                tracer.add_event(attack, "batch", trials_done=8)
        spans = tracer.export()
        assert [s["name"] for s in spans] == ["job", "compile", "attack"]
        job, compile_span, attack = spans
        assert compile_span["parent_id"] == job["span_id"]
        assert attack["parent_id"] == job["span_id"]
        assert attack["events"][0]["name"] == "batch"
        assert all(s["end_ms"] > s["start_ms"] for s in spans)
        assert Tracer.from_ndjson(tracer.to_ndjson()) == spans

    def test_cross_thread_spans_take_explicit_parents(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start_span("job")

        def worker():
            span = tracer.start_span("compile", parent=root)
            tracer.end(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(root)
        spans = tracer.export()
        assert spans[1]["parent_id"] == spans[0]["span_id"]

    def test_error_annotates_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("compile"):
                raise RuntimeError("boom")
        assert tracer.export()[0]["attrs"]["error"] == "RuntimeError: boom"

    def test_recorder_folds_event_stream(self):
        recorder = JobTraceRecorder("cj-test", tracer=Tracer(clock=FakeClock()))
        for event in [
            {"event": "queued"},
            {"event": "started"},
            {"event": "attack-started", "index": 0, "attack": "branch-flip"},
            {"event": "batch", "batches_done": 1, "trials_done": 8,
             "trial_count": 16},
            {"event": "attack-finished", "index": 0, "attack": "branch-flip",
             "result": {"trials": 16, "records": [[1, 2, 3]]}},
            {"event": "finished"},
        ]:
            recorder.on_event(event)
        spans = recorder.export()
        job, attack = spans
        assert job["name"] == "job" and job["attrs"]["state"] == "finished"
        assert [e["name"] for e in job["events"]] == ["queued", "started"]
        assert attack["parent_id"] == job["span_id"]
        assert attack["attrs"]["trials"] == 16
        # Bulky per-trial rows never land in trace attributes.
        assert "records" not in attack["attrs"]
        assert attack["events"][0]["attrs"]["trials_done"] == 8
        assert job["end_ms"] is not None and attack["end_ms"] is not None

    def test_recorder_finish_closes_interrupted_attacks(self):
        recorder = JobTraceRecorder("cj-test", tracer=Tracer(clock=FakeClock()))
        recorder.on_event({"event": "attack-started", "index": 0})
        recorder.on_event({"event": "failed", "error": "worker died"})
        job, attack = recorder.export()
        assert job["attrs"] == {"job_id": "cj-test", "state": "failed",
                                "error": "worker died"}
        assert attack["attrs"]["interrupted"] is True


# ---------------------------------------------------------------------------
# Result store: schema v3 migration + trace persistence
# ---------------------------------------------------------------------------
class TestStoreTraces:
    def _make_v2_database(self, path):
        """A database exactly as a v2 store (pre-traces) left it."""
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE jobs (
                job_id TEXT PRIMARY KEY, kind TEXT NOT NULL,
                spec TEXT NOT NULL, state TEXT NOT NULL, error TEXT,
                submitted_at REAL NOT NULL, started_at REAL, finished_at REAL
            );
            CREATE TABLE results (
                job_id TEXT PRIMARY KEY REFERENCES jobs(job_id),
                payload TEXT NOT NULL, trials INTEGER,
                simulated_cycles INTEGER, created_at REAL NOT NULL
            );
            CREATE TABLE events (
                job_id TEXT NOT NULL, seq INTEGER NOT NULL,
                payload TEXT NOT NULL, PRIMARY KEY (job_id, seq)
            );
            CREATE TABLE shards (
                shard_id TEXT PRIMARY KEY, job_id TEXT NOT NULL,
                attack_index INTEGER NOT NULL, scheme_revision INTEGER NOT NULL,
                payload TEXT NOT NULL, created_at REAL NOT NULL
            );
            """
        )
        conn.execute(
            "INSERT INTO jobs VALUES ('cj-old', 'campaign', '{}', 'done', "
            "NULL, 1.0, 1.0, 2.0)"
        )
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()

    def test_v2_database_migrates_in_place(self, tmp_path):
        path = tmp_path / "store.sqlite"
        self._make_v2_database(path)
        with ResultStore(path) as store:
            # Pre-migration rows survive; the trace table now exists.
            assert store.get_job("cj-old").state == "done"
            assert store.get_trace("cj-old") is None
            store.store_trace("cj-old", [{"span_id": 1, "name": "job"}])
            assert store.get_trace("cj-old") == [{"span_id": 1, "name": "job"}]
        conn = sqlite3.connect(path)
        assert (
            conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        )
        conn.close()

    def test_store_trace_replaces_earlier_attempt(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            store.store_trace("cj-x", [{"span_id": 1}, {"span_id": 2}])
            store.store_trace("cj-x", [{"span_id": 9}])
            assert store.get_trace("cj-x") == [{"span_id": 9}]

    def test_newer_schema_still_fails_loudly(self, tmp_path):
        path = tmp_path / "store.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        from repro.service.store import SchemaMismatchError

        with pytest.raises(SchemaMismatchError):
            ResultStore(path)


# ---------------------------------------------------------------------------
# Service wiring: /metrics, /status, /jobs/<id>/trace, byte-identity
# ---------------------------------------------------------------------------
def obs_job(scheme="ancode", **extra):
    return CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=(7, 7),
        config=CompileConfig(scheme=scheme),
        attacks=(
            AttackSpec.make("branch-flip", max_branches=8),
            AttackSpec.make("repeated-branch-flip"),
        ),
        **extra,
    )


#: Prometheus text format: sample lines are `name{labels} value`.
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"'
    r'(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9.e+-]+$'
)


class TestServiceObservability:
    @pytest.fixture(scope="class")
    def service(self):
        with BackgroundService(runners=2, trial_workers=0) as svc:
            yield svc

    @pytest.fixture(scope="class")
    def client(self, service):
        return service.client()

    @pytest.fixture(scope="class")
    def finished_job(self, client):
        job = obs_job()
        client.run(job)
        return job

    def test_metrics_endpoint_is_valid_prometheus_text(self, client, finished_job):
        scrape = client.metrics()
        typed = set()
        for line in scrape.strip().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "summary")
                typed.add(name)
            elif not line.startswith("#"):
                assert _SAMPLE_LINE.match(line), f"malformed sample: {line!r}"
        assert "repro_engine_trials_total" in typed
        assert "repro_jobs_executed_total" in typed

    def test_every_exposed_series_is_in_the_catalog(self, client, finished_job):
        """An undeclared series cannot ship: everything a live service
        exposes must be in repro.obs.catalog (and therefore in the doc —
        the documentation test closes that half of the loop)."""
        scrape = client.metrics()
        exposed = {
            line.split(" ")[2]
            for line in scrape.splitlines()
            if line.startswith("# TYPE ")
        }
        undeclared = exposed - set(CATALOG)
        assert not undeclared, f"series missing from CATALOG: {sorted(undeclared)}"
        assert "undocumented series" not in scrape

    def test_counters_follow_prometheus_naming(self, client, finished_job):
        scrape = client.metrics()
        for line in scrape.splitlines():
            if line.startswith("# TYPE ") and line.endswith(" counter"):
                assert line.split(" ")[2].endswith("_total")

    def test_status_observability_block(self, client, finished_job):
        status = client.service_status()
        obs = status["observability"]
        assert obs["enabled"] is True
        assert obs["series"] > 0
        assert obs["engine"]["trials"] > 0
        # /status and /metrics share storage, so the executed-jobs figure
        # can never disagree between the two surfaces.
        scrape = client.metrics()
        line = next(
            l for l in scrape.splitlines()
            if l.startswith("repro_jobs_executed_total ")
        )
        assert int(line.split(" ")[1]) == status["queue"]["executed"]

    def test_trace_endpoint_returns_span_tree(self, client, finished_job):
        spans = client.trace(finished_job.job_id())
        names = [span["name"] for span in spans]
        assert names[0] == "job"
        assert "compile" in names and "attack" in names
        root = spans[0]
        assert root["attrs"]["state"] == "finished"
        for span in spans[1:]:
            assert span["parent_id"] == root["span_id"]
        attacks = [s for s in spans if s["name"] == "attack"]
        assert {a["attrs"]["index"] for a in attacks} == {0, 1}
        assert all(a["attrs"]["trials"] > 0 for a in attacks)

    def test_trace_unknown_job_carries_error_body(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.trace("cj-" + "0" * 32)
        assert excinfo.value.status == 404
        # The fixed client surfaces the server-side error body.
        assert isinstance(excinfo.value.body, dict)
        assert "error" in excinfo.value.body

    def test_error_body_on_bad_submission(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("cj-" + "1" * 32)
        assert excinfo.value.body is not None

    def test_report_byte_identical_with_observability_off(self, client, finished_job):
        traced = client.results(finished_job.job_id())["report"]
        with BackgroundService(
            runners=1, trial_workers=0, observability=False
        ) as dark:
            dark_client = dark.client()
            plain = dark_client.run(obs_job())["report"]
            assert (
                dark_client.service_status()["observability"]["enabled"] is False
            )
            # No trace is recorded when observability is off: 409.
            with pytest.raises(ServiceError) as excinfo:
                dark_client.trace(obs_job().job_id())
            assert excinfo.value.status == 409
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )

    def test_attack_span_covers_a_shard_that_holds_the_interpreter(
        self, monkeypatch
    ):
        """Events are stamped on the thread that emits them: a runner
        thread that keeps the interpreter lock for its whole shard still
        gets an attack span covering that time, although the loop thread
        only folds the events into the trace afterwards."""
        busy_s = 0.2
        real = CampaignJob.run_shard

        def greedy(self, workbench, index, **kwargs):
            deadline = time.perf_counter() + busy_s
            while time.perf_counter() < deadline:  # never yields the lock
                pass
            return real(self, workbench, index, **kwargs)

        monkeypatch.setattr(CampaignJob, "run_shard", greedy)
        job = obs_job(scheme="none")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5.0)  # no forced switch during a shard
        try:
            with BackgroundService(runners=1) as svc:
                client = svc.client()
                client.run(job)
                spans = client.trace(job.job_id())
        finally:
            sys.setswitchinterval(interval)
        attacks = [s for s in spans if s["name"] == "attack"]
        assert len(attacks) == 2
        for span in attacks:
            assert span["end_ms"] - span["start_ms"] >= busy_s * 1e3


# ---------------------------------------------------------------------------
# top: pure rendering + poll loop
# ---------------------------------------------------------------------------
def fake_status(trials, cycles):
    return {
        "service": "repro.service",
        "version": "1.7.0",
        "runners": 2,
        "trial_workers": 0,
        "queue": {"submitted": 5, "executed": 4, "failed": 1, "cancelled": 0,
                  "deduplicated_inflight": 2, "deduplicated_store": 3},
        "jobs": {"done": 4, "failed": 1},
        "compile_cache": {"hits": 6, "misses": 2, "programs": 2},
        "fleet": {"workers": {"w1": {}}, "jobs": 1,
                  "shards": {"leased": 1, "done": 3},
                  "counters": {"leases": 4, "steals": 1, "local_shards": 0}},
        "observability": {
            "enabled": True,
            "series": 30,
            "engine": {"trials": trials, "simulated_instructions": trials * 17,
                       "simulated_cycles": cycles},
        },
    }


class TestTop:
    def test_render_top_shows_counters(self):
        frame = render_top(fake_status(1000, 50_000))
        assert "submitted      5" in frame
        assert "executed      4" in frame
        assert "workers   1" in frame
        assert "leased=1" in frame and "done=3" in frame
        assert "trials       1000" in frame
        assert "--- trials/s" in frame  # first poll: nothing to difference

    def test_render_top_computes_rates_between_polls(self):
        previous = fake_status(1000, 50_000)
        current = fake_status(3000, 150_000)
        frame = render_top(current, previous=previous, interval=2.0)
        assert "1.0k trials/s" in frame
        assert "50.0k cycles/s" in frame

    def test_render_top_flags_observability_off(self):
        status = fake_status(0, 0)
        status["observability"] = {"enabled": False}
        assert "[observability off]" in render_top(status)

    def test_run_top_polls_and_survives_errors(self):
        class FlakyClient:
            def __init__(self):
                self.calls = 0

            def service_status(self):
                self.calls += 1
                if self.calls == 2:
                    raise ServiceError("connection refused", status=None)
                return fake_status(100 * self.calls, 5000 * self.calls)

        out = StringIO()
        code = run_top(
            FlakyClient(), interval=0.0, iterations=3, out=out, clear=False
        )
        assert code == 0
        text = out.getvalue()
        assert text.count("repro.service 1.7.0") == 2
        assert "service unreachable" in text
