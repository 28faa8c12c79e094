"""Fleet failure modes under deterministic chaos (ISSUE 7).

The acceptance contract:

* a worker killed mid-shard loses its lease and the shard is re-issued
  (work-stealing); the final report is **byte-identical** to a
  single-host run for every device program x Table III scheme;
* duplicate shard submissions are no-ops (content-hash-keyed results);
* dropped/delayed/duplicated HTTP responses (seeded :class:`ChaosProxy`)
  never corrupt a campaign;
* a store crash between WAL commits loses nothing that was acked — the
  job resumes from its persisted shards;
* a coordinator killed mid-execution resumes its jobs as PENDING, never
  as phantom RUNNING rows;
* a hung socket cannot block the client forever, and 503s surface
  ``Retry-After``.
"""

import gc
import socket
import sys
import threading
import time
import warnings
from contextlib import contextmanager

import pytest

from repro.faults.isa_campaign import branch_flip_sweep, repeated_branch_flip
from repro.programs import load_source
from repro.service import BackgroundService, ServiceError
from repro.service.chaos import (
    ChaosProxy,
    ChaosSchedule,
    CrashingStore,
    DyingRunner,
    SimulatedCrash,
)
from repro.service.client import NO_RETRY, RetryPolicy, ServiceClient
from repro.service.fleet import FleetCoordinator, FleetRunner
from repro.service.jobs import (
    AttackSpec,
    CampaignJob,
    JobError,
    merge_shards,
    report_to_dict,
)
from repro.service.store import ResultStore
from repro.toolchain import CompileConfig, Workbench, table3_schemes

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

#: The quick suite: every device micro-program x Table III scheme.
QUICK_SUITE = [
    ("integer_compare", "integer_compare", (7, 7)),
    ("integer_compare", "integer_compare", (7, 8)),
    ("memcmp", "run_memcmp", (16,)),
]
SCHEMES = table3_schemes()

#: Fast client policy for tests: tight delays, seeded jitter.
TEST_RETRY = RetryPolicy(attempts=6, base_delay=0.02, max_delay=0.5, seed=99)


def quick_job(program_name, function, args, scheme, **extra):
    return CampaignJob(
        source=load_source(program_name),
        function=function,
        args=tuple(args),
        config=CompileConfig(scheme=scheme),
        attacks=(
            AttackSpec.make("branch-flip", max_branches=8),
            AttackSpec.make("repeated-branch-flip"),
        ),
        **extra,
    )


def direct_report(workbench, program_name, function, args, scheme):
    """The single-host ground truth every fleet run must reproduce."""
    report = (
        workbench.campaign(
            load_source(program_name), function, list(args),
            CompileConfig(scheme=scheme),
        )
        .attack(branch_flip_sweep, max_branches=8)
        .attack(repeated_branch_flip)
        .run(engine="fork")
    )
    return report_to_dict(report)


def wait_for_worker(service, worker_id, timeout=10.0):
    """Block until the runner has registered with the coordinator (so a
    test's shards genuinely race against a *live* fleet, not an empty
    one that degrades to local execution immediately)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if worker_id in service.fleet.status()["workers"]:
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {worker_id!r} never registered")


def queue_job(coordinator, job, emit=None):
    """``add_job`` with an ``on_done`` that fills the returned box with
    ``payload`` or ``error`` and then sets its ``done`` event."""
    box = {"done": threading.Event()}

    def on_done(payload, error):
        assert not box["done"].is_set(), "on_done fired twice"
        if error is None:
            box["payload"] = payload
        else:
            box["error"] = error
        box["done"].set()

    coordinator.add_job(job, emit=emit, on_done=on_done)
    return box


@contextmanager
def local_runner(coordinator, workbench):
    """One runner thread claiming shards whenever the fleet is silent
    (the service's runner-thread role)."""
    stop = threading.Event()
    thread = threading.Thread(
        target=coordinator.run_local,
        args=(lambda job, index, emit: job.run_shard(workbench, index), stop),
        daemon=True,
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        coordinator.wake()
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def workbench():
    return Workbench()


# ---------------------------------------------------------------------------
# Coordinator protocol: lease, steal, duplicate, retry, give-up
# ---------------------------------------------------------------------------
class TestCoordinatorProtocol:
    def test_silent_worker_loses_lease_and_job_still_completes(self, workbench):
        job = quick_job("integer_compare", "integer_compare", (7, 7), "none")
        coordinator = FleetCoordinator(lease_ttl=0.15)
        # Register the worker first: otherwise the coordinator sees an
        # empty fleet and races our lease with local execution.
        assert coordinator.lease("doomed") is None
        with local_runner(coordinator, workbench):
            box = queue_job(coordinator, job)
            leased = coordinator.lease("doomed")
            assert leased["job_id"] == job.job_id()
            # ... and then the worker says nothing ever again.  The lease
            # expires, the shard is stolen, and — with the fleet now
            # empty — the runner thread runs both shards locally.
            assert box["done"].wait(timeout=120)
        assert "error" not in box, box.get("error")
        assert coordinator.stats.steals >= 1
        assert coordinator.stats.local_shards == len(job.attacks)
        assert box["payload"]["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (7, 7), "none"
        )

    def test_lost_lease_response_is_handed_back(self, workbench, monkeypatch):
        # Retries of one lease request whose response was lost (dropped
        # or duplicated on the wire) get the same lease back, and no
        # steal counts against the shard; a new request is new work.
        monkeypatch.setattr("repro.service.fleet.MAX_SHARD_ATTEMPTS", 1)
        job = quick_job("integer_compare", "integer_compare", (4, 4), "none")
        coordinator = FleetCoordinator(lease_ttl=30.0)
        assert coordinator.lease("w1") is None  # register before the job
        box = queue_job(coordinator, job)
        lost = coordinator.lease("w1", request="w1-1")
        for _ in range(3):
            again = coordinator.lease("w1", request="w1-1")
            assert (again["shard_id"], again["token"]) == (
                lost["shard_id"], lost["token"]
            )
        other = coordinator.lease("w1", request="w1-2")
        assert other["shard_id"] != lost["shard_id"]
        for leased in (lost, other):
            coordinator.submit_result(
                leased["shard_id"], "w1",
                payload=job.run_shard(workbench, leased["attack_index"]),
                token=leased["token"],
            )
        assert box["done"].is_set()
        assert coordinator.stats.steals == 0
        assert coordinator.stats.leases == len(job.attacks)
        assert box["payload"]["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (4, 4), "none"
        )

    def test_duplicate_shard_submission_is_noop(self, workbench):
        job = quick_job("integer_compare", "integer_compare", (1, 2), "none")
        coordinator = FleetCoordinator(lease_ttl=30.0)
        assert coordinator.lease("w1") is None  # register before the job
        box = queue_job(coordinator, job)

        first_lease = coordinator.lease("w1")
        payload = job.run_shard(workbench, first_lease["attack_index"])
        ack = coordinator.submit_result(
            first_lease["shard_id"], "w1", payload=payload,
            token=first_lease["token"],
        )
        assert ack == {"accepted": True, "duplicate": False}
        # The retried-POST / late-stolen-worker case: same content-keyed
        # shard id, byte-identical payload, submitted again.
        again = coordinator.submit_result(
            first_lease["shard_id"], "w1", payload=payload,
            token=first_lease["token"],
        )
        assert again == {"accepted": True, "duplicate": True}
        assert coordinator.stats.duplicates == 1
        assert coordinator.stats.completed == 1

        second_lease = coordinator.lease("w1")
        coordinator.submit_result(
            second_lease["shard_id"], "w1",
            payload=job.run_shard(workbench, second_lease["attack_index"]),
            token=second_lease["token"],
        )
        assert box["payload"]["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (1, 2), "none"
        )

    def test_worker_failure_requeues_and_names_fault_models(self, workbench):
        job = quick_job("integer_compare", "integer_compare", (3, 3), "none")
        coordinator = FleetCoordinator(lease_ttl=30.0)
        assert coordinator.lease("w1") is None  # register before the job
        events = []
        box = queue_job(coordinator, job, emit=events.append)
        leased = coordinator.lease("w1")
        ack = coordinator.submit_result(
            leased["shard_id"],
            "w1",
            token=leased["token"],
            error="worker process died during attack 'branch-flip'",
            fault_models=["SkipModel(address=4, count=1)"],
        )
        assert ack == {"accepted": True, "requeued": True}
        # The shard went straight back to the pool; drain both shards.
        for _ in range(len(job.attacks)):
            again = coordinator.lease("w1")
            coordinator.submit_result(
                again["shard_id"], "w1",
                payload=job.run_shard(workbench, again["attack_index"]),
                token=again["token"],
            )
        assert coordinator.stats.retries == 1
        retried = [e for e in events if e["event"] == "shard-retried"]
        assert retried and retried[0]["fault_models"] == [
            "SkipModel(address=4, count=1)"
        ]
        assert retried[0]["error"].startswith("worker process died")
        assert box["payload"]["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (3, 3), "none"
        )

    def test_repeatedly_failing_shard_fails_the_job(self, workbench, monkeypatch):
        monkeypatch.setattr("repro.service.fleet.MAX_SHARD_ATTEMPTS", 3)
        job = quick_job("integer_compare", "integer_compare", (5, 6), "none")
        coordinator = FleetCoordinator(lease_ttl=30.0)
        assert coordinator.lease("w1") is None  # register before the job
        box = queue_job(coordinator, job)
        for _ in range(3):
            leased = coordinator.lease("w1")
            coordinator.submit_result(
                leased["shard_id"], "w1", token=leased["token"],
                error="deterministic poison",
            )
        assert isinstance(box.get("error"), JobError)
        assert "deterministic poison" in str(box["error"])
        # The failed job left the queue: nothing more to lease.
        assert coordinator.lease("w1") is None

    def test_stale_failure_report_cannot_requeue_done_shard(self, workbench):
        job = quick_job("integer_compare", "integer_compare", (2, 2), "none")
        coordinator = FleetCoordinator(lease_ttl=30.0)
        assert coordinator.lease("w1") is None  # register before the job
        box = queue_job(coordinator, job)
        leased = coordinator.lease("w1")
        coordinator.submit_result(
            leased["shard_id"], "w1",
            payload=job.run_shard(workbench, leased["attack_index"]),
            token=leased["token"],
        )
        # A worker whose lease was completed must not un-complete it.
        stale = coordinator.submit_result(
            leased["shard_id"], "w1", token=leased["token"], error="too late"
        )
        assert stale == {"accepted": False, "stale": True, "state": "done"}
        leased2 = coordinator.lease("w1")
        coordinator.submit_result(
            leased2["shard_id"], "w1",
            payload=job.run_shard(workbench, leased2["attack_index"]),
            token=leased2["token"],
        )
        assert "payload" in box

    def test_runner_threads_share_the_queue_under_stress(self, workbench):
        """More runner threads than cores, switching every few bytecodes:
        every shard runs exactly once, never two of one job at a time,
        and every counter and merge survives the interleaving."""
        jobs = [
            quick_job("integer_compare", "integer_compare", (n, n % 3), "none")
            for n in range(12)
        ]
        payloads = {
            job.shard_id(index): job.run_shard(workbench, index)
            for job in jobs
            for index in range(len(job.attacks))
        }
        coordinator = FleetCoordinator(lease_ttl=30.0)
        guard, running, overlaps, runs = threading.Lock(), {}, [], []

        def execute(job, index, emit):
            with guard:
                running[job.job_id()] = running.get(job.job_id(), 0) + 1
                if running[job.job_id()] > 1:
                    overlaps.append(job.job_id())
                runs.append(job.shard_id(index))
            time.sleep(0.001)
            with guard:
                running[job.job_id()] -= 1
            return payloads[job.shard_id(index)]

        stop = threading.Event()
        threads = [
            threading.Thread(
                target=coordinator.run_local, args=(execute, stop), daemon=True
            )
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            boxes = [queue_job(coordinator, job) for job in jobs]
            for box in boxes:
                assert box["done"].wait(timeout=60)
        finally:
            stop.set()
            coordinator.wake()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not overlaps
        assert sorted(runs) == sorted(payloads)
        assert coordinator.stats.local_shards == len(payloads)
        assert coordinator.stats.completed == len(payloads)
        for job, box in zip(jobs, boxes):
            assert box["payload"] == merge_shards(
                job, [payloads[job.shard_id(i)] for i in range(len(job.attacks))]
            )

    def test_remote_worker_leases_every_queued_job(self):
        # The coordinator's shard table is the only queue: a worker can
        # lease the shards of every queued job, not only of as many jobs
        # as the service has runner threads.
        jobs = [
            quick_job("integer_compare", "integer_compare", (n, n + 1), "none")
            for n in range(20, 24)
        ]
        with (
            BackgroundService(runners=1, lease_ttl=30.0) as svc,
            svc.client(retry=TEST_RETRY) as client,
        ):
            client.fleet_lease("w1")  # register: runner threads stay idle
            for job in jobs:
                client.submit(job)
            leases = [client.fleet_lease("w1")["shard"] for _ in range(8)]
            assert client.fleet_lease("w1")["shard"] is None
            assert svc.fleet.stats.local_shards == 0
        assert None not in leases
        assert {shard["job_id"] for shard in leases} == {
            job.job_id() for job in jobs
        }
        assert len({shard["shard_id"] for shard in leases}) == 8


# ---------------------------------------------------------------------------
# End-to-end over HTTP: real workers, kills, byte-identity
# ---------------------------------------------------------------------------
class TestFleetEndToEnd:
    @pytest.fixture(scope="class")
    def service(self):
        with BackgroundService(runners=2, trial_workers=0, lease_ttl=0.5) as svc:
            yield svc

    @pytest.fixture(scope="class")
    def runner(self, service):
        with FleetRunner(
            service.client(retry=TEST_RETRY, timeout=30.0),
            worker_id="it-worker",
            ttl=0.5,
            poll=0.05,
        ) as fleet_runner:
            wait_for_worker(service, "it-worker")
            yield fleet_runner

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("program_name,function,args", QUICK_SUITE)
    def test_quick_suite_identity_with_worker(
        self, service, runner, workbench, scheme, program_name, function, args
    ):
        job = quick_job(program_name, function, args, scheme)
        with service.client(retry=TEST_RETRY) as client:
            result = client.run(job)
        assert result["report"] == direct_report(
            workbench, program_name, function, args, scheme
        )

    def test_worker_actually_leased_shards(self, runner):
        # Meta-assertion for the suite above: the fleet path genuinely
        # ran shards on the remote worker, not only local degradation.
        assert runner.shards_done > 0

    def test_killed_worker_is_stolen_and_report_identical(self, workbench):
        job = quick_job("integer_compare", "integer_compare", (9, 4), "ancode")
        with BackgroundService(runners=1, lease_ttl=0.3) as svc:
            doomed = DyingRunner(
                svc.client(retry=TEST_RETRY, timeout=30.0),
                die_on_lease={1},
                worker_id="doomed",
                ttl=0.3,
                poll=0.05,
            ).start()
            wait_for_worker(svc, "doomed")
            with svc.client(retry=TEST_RETRY) as client:
                result = client.run(job)
                status = client.service_status()
            doomed.stop()
            assert doomed.died is True
            # The /status counter block names the steal.
            assert status["fleet"]["counters"]["steals"] >= 1
        assert result["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (9, 4), "ancode"
        )

    def test_a_stopped_runner_leaves_no_socket_open(self):
        job = quick_job("integer_compare", "integer_compare", (3, 9), "none")
        with BackgroundService(runners=1, lease_ttl=5.0) as svc:
            runner = FleetRunner(
                svc.address_str, worker_id="tidy", ttl=5.0, poll=0.05
            ).start()
            wait_for_worker(svc, "tidy")
            with svc.client(retry=TEST_RETRY) as client:
                client.run(job)
            runner.stop()
            assert runner.shards_done >= 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                del runner
                gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert [str(w.message) for w in leaks] == []

    def test_executor_error_crosses_network_boundary(self, monkeypatch, workbench):
        """A worker-side CampaignExecutorError is reported with its
        in-flight fault models, lands in the job's persisted event
        stream, bumps the /status retries counter — and the re-run still
        converges to the single-host report."""
        from repro.toolchain.executor import CampaignExecutorError

        real = CampaignJob.run_shard
        fails = {"left": 1}

        def flaky(self, workbench_, index, **kwargs):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise CampaignExecutorError(
                    "worker process died during attack 'branch-flip'",
                    fault_models=["SkipModel(address=8, count=1)"],
                )
            return real(self, workbench_, index, **kwargs)

        monkeypatch.setattr(CampaignJob, "run_shard", flaky)
        job = quick_job("integer_compare", "integer_compare", (6, 1), "none")
        with BackgroundService(runners=1, lease_ttl=5.0) as svc:
            with FleetRunner(
                svc.client(retry=TEST_RETRY, timeout=30.0),
                worker_id="crashy",
                ttl=5.0,
                poll=0.05,
            ):
                wait_for_worker(svc, "crashy")
                with svc.client(retry=TEST_RETRY) as client:
                    client.submit(job)
                    client.wait(job.job_id())
                    events = list(client.stream(job.job_id()))
                    result = client.results(job.job_id())
                    status = client.service_status()
        retried = [e for e in events if e["event"] == "shard-retried"]
        assert retried, [e["event"] for e in events]
        # The runner repr()s each in-flight model before shipping it.
        assert len(retried[0]["fault_models"]) == 1
        assert "SkipModel(address=8, count=1)" in retried[0]["fault_models"][0]
        assert status["fleet"]["counters"]["retries"] >= 1
        assert result["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (6, 1), "none"
        )


# ---------------------------------------------------------------------------
# Network chaos: seeded drop/delay/duplicate between runner and service
# ---------------------------------------------------------------------------
class TestNetworkChaos:
    def test_chaotic_network_still_converges_byte_identically(self, workbench):
        job = quick_job("memcmp", "run_memcmp", (16,), "ancode")
        # One proxy and seeded schedule per client: each client's fault
        # sequence then depends only on its own requests, not on how its
        # requests interleave with the other client's.
        worker_weather, client_weather = (
            ChaosSchedule(
                seed=seed, drop=0.25, delay=0.15, duplicate=0.2, delay_seconds=0.02
            )
            for seed in (7, 8)
        )
        with BackgroundService(runners=1, lease_ttl=0.5) as svc:
            with ChaosProxy(svc.host, svc.port, worker_weather) as worker_proxy, \
                    ChaosProxy(svc.host, svc.port, client_weather) as client_proxy:
                with FleetRunner(
                    ServiceClient(
                        worker_proxy.host,
                        worker_proxy.port,
                        timeout=15.0,
                        retry=RetryPolicy(
                            attempts=8, base_delay=0.02, max_delay=0.3, seed=11
                        ),
                    ),
                    worker_id="storm-rider",
                    ttl=0.5,
                    poll=0.05,
                ):
                    # Submitted before the worker registers, the job runs
                    # on the runner thread and the worker's weather goes
                    # unexercised.
                    wait_for_worker(svc, "storm-rider")
                    # The submitting client rides bad weather too: its
                    # first submission's response is dropped.
                    with ServiceClient(
                        client_proxy.host,
                        client_proxy.port,
                        timeout=15.0,
                        retry=RetryPolicy(
                            attempts=8, base_delay=0.02, max_delay=0.3, seed=12
                        ),
                    ) as client:
                        client.submit(job)
                        client.wait(job.job_id())
                        result = client.results(job.job_id())
        # The schedules must actually have misbehaved for this to mean much.
        for weather in (worker_weather, client_weather):
            assert weather.counts["drop"] + weather.counts["duplicate"] > 0
        assert result["report"] == direct_report(
            workbench, "memcmp", "run_memcmp", (16,), "ancode"
        )


# ---------------------------------------------------------------------------
# Store crashes and phantom-RUNNING recovery
# ---------------------------------------------------------------------------
class TestStoreRecovery:
    def test_store_crash_mid_job_resumes_from_persisted_shards(
        self, tmp_path, workbench
    ):
        db = tmp_path / "chaos.sqlite"
        job = quick_job("integer_compare", "integer_compare", (8, 8), "duplication")

        # Incarnation 1: the store dies before the second shard commits.
        crashing = CrashingStore(db, crash_after=1)
        coordinator = FleetCoordinator(store=crashing, lease_ttl=5.0)
        with local_runner(coordinator, workbench):
            box = queue_job(coordinator, job)
            assert box["done"].wait(timeout=120)
        assert isinstance(box.get("error"), SimulatedCrash)
        assert crashing.crashed

        # Incarnation 2: a fresh store handle on the same file resumes
        # from the one shard that made it to disk.
        store = ResultStore(db)
        assert len(store.shard_payloads(job.job_id())) == 1
        coordinator2 = FleetCoordinator(store=store, lease_ttl=5.0)
        with local_runner(coordinator2, workbench):
            box = queue_job(coordinator2, job)
            assert box["done"].wait(timeout=120)
        assert coordinator2.stats.resumed_shards == 1
        assert coordinator2.stats.local_shards == len(job.attacks) - 1
        assert box["payload"]["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (8, 8), "duplication"
        )
        store.close()

    def test_stale_scheme_revision_shards_are_not_resumed(self, tmp_path, workbench):
        db = tmp_path / "stale.sqlite"
        job = quick_job("integer_compare", "integer_compare", (4, 2), "none")
        store = ResultStore(db)
        # A shard row stamped with a revision that no longer matches
        # (its scheme builder was replaced after it ran) is re-executed.
        bogus = job.run_shard(workbench, 0)
        store.store_shard(job.shard_id(0), job.job_id(), 0, -1, bogus)
        coordinator = FleetCoordinator(store=store, lease_ttl=5.0)
        with local_runner(coordinator, workbench):
            box = queue_job(coordinator, job)
            assert box["done"].wait(timeout=120)
        assert coordinator.stats.resumed_shards == 0
        assert coordinator.stats.local_shards == len(job.attacks)
        assert box["payload"]["report"] == direct_report(
            workbench, "integer_compare", "integer_compare", (4, 2), "none"
        )
        store.close()

    def test_merged_result_clears_shard_rows(self, tmp_path, workbench):
        db = tmp_path / "clear.sqlite"
        job = quick_job("integer_compare", "integer_compare", (3, 7), "none")
        store = ResultStore(db)
        store.record_job(job.job_id(), job.kind, job.to_dict())
        coordinator = FleetCoordinator(store=store, lease_ttl=5.0)
        with local_runner(coordinator, workbench):
            box = queue_job(coordinator, job)
            assert box["done"].wait(timeout=120)
        assert len(store.shard_payloads(job.job_id())) == len(job.attacks)
        store.store_result(job.job_id(), box["payload"])
        # Resume points are not archives: the merged result supersedes them.
        assert store.shard_payloads(job.job_id()) == {}
        store.close()

    def test_phantom_running_row_is_swept_to_queued(self, tmp_path):
        """Regression (ISSUE 7 satellite): a coordinator killed between
        the ledger insert and the first event must resume as PENDING,
        never surface as a phantom RUNNING job."""
        db = tmp_path / "phantom.sqlite"
        job = quick_job("integer_compare", "integer_compare", (1, 1), "none")
        with ResultStore(db) as store:
            store.record_job(job.job_id(), job.kind, job.to_dict())
            store.set_state(job.job_id(), "running")  # ... and then SIGKILL
        with ResultStore(db) as store:
            assert store.recover_interrupted() == 1
            record = store.get_job(job.job_id())
            assert record.state == "queued"
            assert record.started_at is None
            assert store.recover_interrupted() == 0  # idempotent

    def test_no_resume_service_reports_swept_job_as_queued(self, tmp_path):
        db = tmp_path / "noresume.sqlite"
        job = quick_job("integer_compare", "integer_compare", (2, 9), "none")
        with ResultStore(db) as store:
            store.record_job(job.job_id(), job.kind, job.to_dict())
            store.set_state(job.job_id(), "running")
        with BackgroundService(db_path=str(db), resume=False) as svc:
            assert svc.recovered_jobs == 1
            assert svc.resumed_jobs == 0
            with svc.client() as client:
                status = client.status(job.job_id())
            assert status["state"] == "queued"  # pending, not phantom-running

    def test_v1_database_migrates_in_place(self, tmp_path):
        """A pre-fleet (schema v1) database opens and gains the shards
        table without losing its ledger."""
        import sqlite3

        from repro.service.store import _SCHEMA

        db = tmp_path / "v1.sqlite"
        conn = sqlite3.connect(db)
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT INTO jobs (job_id, kind, spec, state, submitted_at) "
            "VALUES ('cj-old', 'campaign', '{}', 'done', 1.0)"
        )
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        with ResultStore(db) as store:
            assert store.get_job("cj-old") is not None
            assert store.shard_payloads("cj-old") == {}  # table exists
            store.store_shard("sh-x", "cj-old", 0, 1, {"ok": True})
            assert "sh-x" in store.shard_payloads("cj-old")


# ---------------------------------------------------------------------------
# Client hardening: timeouts, Retry-After, resumable streams
# ---------------------------------------------------------------------------
class TestClientHardening:
    def test_hung_socket_does_not_block_forever(self):
        # A listener that completes the TCP handshake (backlog) and then
        # says nothing, ever.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        try:
            with ServiceClient(
                "127.0.0.1",
                port,
                timeout=0.2,
                connect_timeout=0.2,
                retry=RetryPolicy(attempts=2, base_delay=0.01, seed=0),
            ) as client:
                start = time.monotonic()
                with pytest.raises(ServiceError):
                    client.service_status()
                with pytest.raises(ServiceError):
                    list(client.stream("cj-whatever"))
                assert time.monotonic() - start < 10
        finally:
            listener.close()

    def test_unreachable_service_fails_fast(self):
        client = ServiceClient(
            "127.0.0.1",
            1,  # nothing listens on port 1
            retry=RetryPolicy(attempts=2, base_delay=0.01, seed=0),
        )
        with pytest.raises(ServiceError) as excinfo:
            client.service_status()
        assert excinfo.value.status is None  # transport, not HTTP

    def test_shutdown_returns_503_with_retry_after(self):
        job = quick_job("integer_compare", "integer_compare", (0, 0), "none")
        with BackgroundService(runners=1) as svc, svc.client(retry=NO_RETRY) as client:
            svc.scheduler._closed = True
            try:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(job)
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after == 1.0
                with pytest.raises(ServiceError) as excinfo:
                    client.fleet_lease("w1")
                assert excinfo.value.status == 503
            finally:
                svc.scheduler._closed = False

    def test_stream_resumes_after_midstream_break(self):
        job = quick_job("integer_compare", "integer_compare", (5, 2), "none")
        with (
            BackgroundService(runners=1) as svc,
            svc.client(retry=TEST_RETRY) as client,
        ):
            client.submit(job)
            client.wait(job.job_id())
            baseline = list(client.stream(job.job_id()))
            assert baseline, "finished job must replay its events"

            real = ServiceClient._stream_once
            state = {"broken": False}

            def flaky(self, job_id, skip=0):
                for count, event in enumerate(real(self, job_id, skip=skip), 1):
                    yield event
                    if not state["broken"] and count == 2:
                        state["broken"] = True
                        # status=None == transport failure == reconnect.
                        raise ServiceError("connection reset mid-read")

            with svc.client(retry=TEST_RETRY) as flaky_client:
                flaky_client._stream_once = flaky.__get__(flaky_client)
                resumed = list(flaky_client.stream(job.job_id()))
        assert state["broken"] is True
        assert resumed == baseline  # no gaps, no duplicates

    def test_retry_policy_backoff_is_bounded_and_jittered(self):
        import random

        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=1.0)
        rng = random.Random(3)
        delays = [policy.delay(n, rng) for n in range(5)]
        assert all(d <= 1.5 for d in delays)  # cap * (1 + BACKOFF_JITTER)
        assert all(
            d >= min(0.1 * 2**n, 1.0) for n, d in enumerate(delays)
        )
        assert policy.should_retry(ServiceError("transport", status=None))
        assert policy.should_retry(ServiceError("busy", status=503))
        assert not policy.should_retry(ServiceError("nope", status=404))

    def test_retry_policy_reads_its_constants_when_it_runs(self, monkeypatch):
        import random

        policy = RetryPolicy(attempts=4, base_delay=0.1, max_delay=1.0)
        monkeypatch.setattr("repro.service.client.BACKOFF_MULTIPLIER", 3.0)
        monkeypatch.setattr("repro.service.client.BACKOFF_JITTER", 0.0)
        monkeypatch.setattr("repro.service.client.RETRY_STATUSES", frozenset({502}))
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in range(4)]
        assert delays == pytest.approx([0.1, 0.3, 0.9, 1.0])
        assert policy.should_retry(ServiceError("gateway", status=502))
        assert not policy.should_retry(ServiceError("busy", status=503))
        assert policy.should_retry(ServiceError("transport", status=None))
