"""Fleet load generator: the worker-fleet protocol under concurrent load.

Three measurements over the `repro.service.fleet` coordinator:

* **load** — N simulated runners lease/execute/submit shards from a burst
  of concurrent job submissions; reports lease & result-POST latency
  percentiles, throughput, and the fraction of shards the fleet (rather
  than the local fallback) carried;
* **dedup** — every job's first shard is submitted twice; the idempotent
  content-keyed merge must acknowledge exactly one duplicate per job;
* **recovery** — a worker is killed mid-shard (`DyingRunner`) and the
  time from submission to the merged report — lease expiry, steal, local
  re-execution included — is the recovery figure.

Results land in ``BENCH_fleet.json`` (sections ``fleet_load`` /
``fleet_dedup`` / ``fleet_recovery``); the machine-independent ratios are
gated against ``benchmarks/baselines/BENCH_fleet.json``.  Latencies and
recovery seconds are informational — they depend on the host.
"""

import threading
import time
from pathlib import Path

from repro.bench import (
    bench_json_path,
    check_bench_regression,
    format_table,
    latency_summary,
    record_bench_json,
    save_table,
)
from repro.programs import load_source
from repro.service import BackgroundService
from repro.service.chaos import DyingRunner
from repro.service.client import RetryPolicy
from repro.service.jobs import AttackSpec, CampaignJob, job_from_dict
from repro.toolchain import CompileConfig, Workbench

RUNNERS = 4
JOBS = 6
RETRY = RetryPolicy(attempts=6, base_delay=0.02, max_delay=0.5, seed=42)
FLEET_JSON = bench_json_path().with_name("BENCH_fleet.json")
FLEET_BASELINE = Path(__file__).resolve().parent / "baselines" / "BENCH_fleet.json"


def _job(index):
    """A small but real two-shard campaign, content-distinct per index."""
    return CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=(index, index + 1),
        config=CompileConfig(scheme="none"),
        attacks=(
            AttackSpec.make("branch-flip", max_branches=4),
            AttackSpec.make("repeated-branch-flip"),
        ),
    )


def _wait_for_worker(service, worker_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while worker_id not in service.fleet.status()["workers"]:
        assert time.monotonic() < deadline, f"{worker_id!r} never registered"
        time.sleep(0.01)


class SimulatedRunner(threading.Thread):
    """A minimal in-process fleet worker speaking the raw protocol, so
    lease / result-POST latencies are measured without FleetRunner's
    heartbeat machinery in the way."""

    def __init__(self, service, worker_id, stop, latencies):
        super().__init__(daemon=True)
        self.client = service.client(retry=RETRY, timeout=30.0)
        self.worker_id = worker_id
        self.stop_event = stop
        self.latencies = latencies
        self.workbench = Workbench()
        self.jobs = {}
        self.shards_done = 0

    def register(self):
        """One empty-handed lease: marks the worker alive so the
        coordinator dispatches to the fleet instead of falling back."""
        self.client.fleet_lease(self.worker_id)

    def run(self):
        while not self.stop_event.is_set():
            start = time.monotonic()
            answer = self.client.fleet_lease(self.worker_id)
            self.latencies["lease"].append(time.monotonic() - start)
            shard = answer.get("shard")
            if shard is None:
                time.sleep(min(0.05, answer.get("retry_after") or 0.05))
                continue
            job = self.jobs.get(shard["job_id"])
            if job is None:
                job = self.jobs[shard["job_id"]] = job_from_dict(shard["job"])
            payload = job.run_shard(self.workbench, shard["attack_index"])
            start = time.monotonic()
            self.client.fleet_result(
                shard["shard_id"], self.worker_id,
                token=shard["token"], result=payload,
            )
            self.latencies["result"].append(time.monotonic() - start)
            self.shards_done += 1


def test_fleet_load_latency():
    latencies = {"lease": [], "result": []}
    stop = threading.Event()
    with BackgroundService(runners=2, trial_workers=0, lease_ttl=2.0) as service:
        client = service.client(retry=RETRY)
        runners = [
            SimulatedRunner(service, f"sim-{n}", stop, latencies)
            for n in range(RUNNERS)
        ]
        for runner in runners:
            runner.register()
        for runner in runners:
            runner.start()
        jobs = [_job(n) for n in range(JOBS)]
        start = time.monotonic()
        for job in jobs:
            client.submit(job)
        for job in jobs:
            client.wait(job.job_id())
        wall = time.monotonic() - start
        counters = service.fleet.status()["counters"]
        stop.set()
        for runner in runners:
            runner.join(timeout=10)

    fleet_shards = sum(runner.shards_done for runner in runners)
    total = fleet_shards + counters["local_shards"]
    assert total == 2 * JOBS
    carried = fleet_shards / total
    payload = {
        "runners": RUNNERS,
        "jobs": JOBS,
        "fleet_shards": fleet_shards,
        "local_shards": counters["local_shards"],
        "fleet_carried_ratio": round(carried, 3),
        "wall_seconds": round(wall, 3),
        "shards_per_second": round(total / wall, 2),
        # Percentiles via the shared repro.obs nearest-rank helper — the
        # same convention the service's /metrics histograms use.
        **{
            f"lease_{key}_ms": value
            for key, value in latency_summary(latencies["lease"]).items()
        },
        **{
            f"result_{key}_ms": value
            for key, value in latency_summary(latencies["result"]).items()
        },
    }
    record_bench_json("fleet_load", payload, path=FLEET_JSON)
    # A healthy fleet carries every shard; the 0.5 tolerance only forgives
    # a transient local fallback on a badly stalled CI host.
    check_bench_regression(
        "fleet_load", "fleet_carried_ratio", carried,
        baseline_path=FLEET_BASELINE, tolerance=0.5,
    )
    rows = [[key, value] for key, value in payload.items()]
    save_table(
        "fleet_load",
        format_table(
            f"Fleet load — {RUNNERS} runners x {JOBS} jobs", ["Metric", "Value"], rows
        ),
    )


def test_fleet_dedup_idempotence():
    """Duplicate shard submissions (a retried POST whose ack was dropped,
    a stolen worker finishing late) must collapse server-side: exactly
    one duplicate acknowledgement per duplicated shard."""
    dup_jobs = [_job(100 + n) for n in range(4)]
    workbench = Workbench()
    # Every queued job's shards are leasable at once: the worker below
    # deliberately holds all of them leased before answering.
    with BackgroundService(runners=1, trial_workers=0, lease_ttl=30.0) as service:
        client = service.client(retry=RETRY)
        client.fleet_lease("dup-worker")  # register before the jobs start
        for job in dup_jobs:
            client.submit(job)
        leases = []
        deadline = time.monotonic() + 30
        while len(leases) < 2 * len(dup_jobs):
            assert time.monotonic() < deadline, "shards never became leasable"
            shard = client.fleet_lease("dup-worker")["shard"]
            if shard is None:
                time.sleep(0.02)
                continue
            leases.append(shard)

        by_job = {}
        for shard in leases:
            by_job.setdefault(shard["job_id"], []).append(shard)
        job_objects = {job.job_id(): job for job in dup_jobs}
        duplicate_acks = 0
        for job_id, shards in by_job.items():
            job = job_objects[job_id]
            first, second = shards
            payload = job.run_shard(workbench, first["attack_index"])
            ack = client.fleet_result(
                first["shard_id"], "dup-worker", token=first["token"], result=payload
            )
            assert ack == {"accepted": True, "duplicate": False}
            # The duplicate, while the job is still held open by `second`.
            again = client.fleet_result(
                first["shard_id"], "dup-worker", token=first["token"], result=payload
            )
            if again.get("duplicate"):
                duplicate_acks += 1
            client.fleet_result(
                second["shard_id"], "dup-worker", token=second["token"],
                result=job.run_shard(workbench, second["attack_index"]),
            )
        for job in dup_jobs:
            client.wait(job.job_id())
        counters = service.fleet.status()["counters"]

    rate = duplicate_acks / len(dup_jobs)
    record_bench_json(
        "fleet_dedup",
        {
            "duplicate_submissions": len(dup_jobs),
            "duplicate_acks": duplicate_acks,
            "dedup_hit_rate": rate,
            "coordinator_duplicates": counters["duplicates"],
        },
        path=FLEET_JSON,
    )
    # Deterministic: every duplicate must be recognised (tolerance 0).
    check_bench_regression(
        "fleet_dedup", "dedup_hit_rate", rate,
        baseline_path=FLEET_BASELINE, tolerance=0.0,
    )


def test_fleet_recovery_after_worker_loss():
    """Kill the only worker mid-shard and time the full recovery: lease
    expiry, steal, local fallback, merged report."""
    job = _job(999)
    with BackgroundService(runners=1, trial_workers=0, lease_ttl=0.3) as service:
        with DyingRunner(
            service.client(retry=RETRY, timeout=30.0),
            die_on_lease={1},
            worker_id="doomed",
            ttl=0.3,
            poll=0.05,
        ) as doomed:
            _wait_for_worker(service, "doomed")
            client = service.client(retry=RETRY)
            start = time.monotonic()
            client.submit(job)
            client.wait(job.job_id())
            recovery = time.monotonic() - start
            counters = service.fleet.status()["counters"]
            assert doomed.died is True

    recovered = 1.0 if counters["steals"] >= 1 else 0.0
    record_bench_json(
        "fleet_recovery",
        {
            "lease_ttl": 0.3,
            "recovery_seconds": round(recovery, 3),
            "steals": counters["steals"],
            "recovered": recovered,
        },
        path=FLEET_JSON,
    )
    check_bench_regression(
        "fleet_recovery", "recovered", recovered,
        baseline_path=FLEET_BASELINE, tolerance=0.0,
    )
