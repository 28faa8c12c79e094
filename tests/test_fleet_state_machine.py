"""Generated fleet histories: a Hypothesis state machine over the
:class:`~repro.service.fleet.FleetCoordinator` shard queue and its
:class:`~repro.service.store.ResultStore`, in process and without HTTP.

Rules interleave everything that can happen to the queue: jobs are
added and cancelled, workers lease, heartbeat, post results (and
duplicates) or report errors, leases expire on a patched clock, runner
threads claim shards locally, and the coordinator restarts on the same
store file.  Shard payloads are computed once up front, so a history
costs only coordinator and SQLite work.

Invariants:

* ``on_done`` fires at most once per queued job, never after a cancel;
* a merged payload equals ``CampaignJob.execute`` on a fresh
  ``Workbench``, byte for byte;
* no shard is merged twice (one ``attack-finished`` per shard);
* an acknowledged shard is never handed out again, and a restarted
  coordinator resumes every acknowledged shard of its jobs from the
  store.
"""

import json
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.service.fleet as fleet_module
from repro.programs import load_source
from repro.service.fleet import FleetCoordinator
from repro.service.jobs import AttackSpec, CampaignJob
from repro.service.store import ResultStore
from repro.toolchain import CompileConfig, Workbench

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

LEASE_TTL = 10.0
WORKERS = ("w1", "w2")

JOBS = [
    CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=args,
        config=CompileConfig(scheme=scheme),
        attacks=(
            AttackSpec.make("branch-flip", max_branches=2),
            AttackSpec.make("repeated-branch-flip"),
        ),
    )
    for args, scheme in (((1, 1), "none"), ((2, 3), "ancode"), ((4, 4), "none"))
]


@pytest.fixture(scope="module")
def oracle():
    """Shard payloads by shard id, and each job's merged payload from
    ``CampaignJob.execute`` on a fresh Workbench."""
    workbench = Workbench()
    shards = {
        job.shard_id(index): job.run_shard(workbench, index)
        for job in JOBS
        for index in range(len(job.attacks))
    }
    merged = {job.job_id(): job.execute(Workbench()) for job in JOBS}
    return shards, merged


class FakeTime:
    """Stands in for the ``time`` module the coordinator reads."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


class Queued:
    """The model of one ``add_job`` call."""

    def __init__(self, job):
        self.job = job
        self.outcomes = []
        self.finished = {}  # shard id -> attack-finished events
        self.cancelled = False

    def emit(self, event):
        if event["event"] == "attack-finished":
            shard_id = self.job.shard_id(event["index"])
            self.finished[shard_id] = self.finished.get(shard_id, 0) + 1


class FleetMachine(RuleBasedStateMachine):
    #: set by the test: shard payloads, merged payloads, store directory
    shards: dict = {}
    merged: dict = {}
    directory = None
    clock: FakeTime = None

    @initialize()
    def open(self):
        self.path = tempfile.mkdtemp(dir=self.directory) + "/fleet.sqlite"
        self.store = ResultStore(self.path)
        self.coordinator = self._coordinator()
        self.queued: dict[str, Queued] = {}
        self.history: list[Queued] = []
        self.leases: list[dict] = []
        #: shard id -> job id of every shard acknowledged (so persisted)
        #: whose job's merged result is not stored yet
        self.acked: dict[str, str] = {}
        self.violations: list[str] = []

    def teardown(self):
        store = getattr(self, "store", None)
        if store is not None:
            store.close()

    def _coordinator(self):
        return FleetCoordinator(store=self.store, lease_ttl=LEASE_TTL)

    def _queue(self, job):
        queued = Queued(job)
        self.queued[job.job_id()] = queued
        self.history.append(queued)

        def on_done(payload, error):
            # Recorded, not asserted: a runner thread calls this, and an
            # exception there would only fail the job.
            if queued.cancelled:
                self.violations.append(f"on_done after cancel: {job.job_id()}")
            queued.outcomes.append((payload, error))
            if len(queued.outcomes) > 1:
                self.violations.append(f"on_done fired twice: {job.job_id()}")
            self.queued.pop(job.job_id(), None)
            if error is None:
                expected = json.dumps(self.merged[job.job_id()])
                if json.dumps(payload) != expected:
                    self.violations.append(f"merged payload differs: {job.job_id()}")
                # What the scheduler does next: the merged result
                # supersedes the job's stored shards.
                self.store.store_result(job.job_id(), payload)
                for index in range(len(job.attacks)):
                    self.acked.pop(job.shard_id(index), None)

        self.coordinator.add_job(job, emit=queued.emit, on_done=on_done)

    def _ack(self, shard_id, job_id):
        if job_id in self.queued:  # else its merged result cleared it
            self.acked[shard_id] = job_id

    def _handed_out(self, shard_id):
        assert shard_id not in self.acked, "an acknowledged shard ran again"

    # -- rules ---------------------------------------------------------------
    @rule(index=st.integers(0, len(JOBS) - 1))
    def add_job(self, index):
        job = JOBS[index]
        if job.job_id() in self.queued:
            return
        self.store.record_job(job.job_id(), job.kind, job.to_dict(), True)
        self._queue(job)

    @rule(worker=st.sampled_from(WORKERS))
    def lease(self, worker):
        leased = self.coordinator.lease(worker)
        if leased is not None:
            self._handed_out(leased["shard_id"])
            self.leases.append({**leased, "worker": worker})

    @precondition(lambda self: self.leases)
    @rule(data=st.data())
    def heartbeat(self, data):
        leased = data.draw(st.sampled_from(self.leases))
        answer = self.coordinator.heartbeat(
            leased["shard_id"], leased["worker"], leased["token"]
        )
        assert isinstance(answer["valid"], bool)

    @precondition(lambda self: self.leases)
    @rule(data=st.data())
    def post_result(self, data):
        leased = data.draw(st.sampled_from(self.leases))
        job_id = leased["job_id"]
        was_queued = job_id in self.queued
        ack = self.coordinator.submit_result(
            leased["shard_id"],
            leased["worker"],
            payload=self.shards[leased["shard_id"]],
            token=leased["token"],
        )
        assert ack.get("unknown", False) == (not was_queued)
        if ack["accepted"]:
            self._ack(leased["shard_id"], job_id)

    @precondition(lambda self: self.acked.values() & self.queued.keys())
    @rule(data=st.data())
    def post_duplicate(self, data):
        shard_id = data.draw(
            st.sampled_from(
                sorted(s for s, job_id in self.acked.items() if job_id in self.queued)
            )
        )
        ack = self.coordinator.submit_result(
            shard_id, "w1", payload=self.shards[shard_id]
        )
        assert ack == {"accepted": True, "duplicate": True}

    @precondition(lambda self: self.leases)
    @rule(data=st.data())
    def report_error(self, data):
        leased = data.draw(st.sampled_from(self.leases))
        ack = self.coordinator.submit_result(
            leased["shard_id"], leased["worker"], token=leased["token"],
            error="worker died",
        )
        assert ack["accepted"] == ack.get("requeued", False)

    @rule()
    def expire(self):
        # Past every lease and every worker's silence threshold.
        self.clock.now += 2 * LEASE_TTL + 1

    @precondition(
        lambda self: not self.coordinator.status()["workers"]
        and self.coordinator.status()["shards"].keys() & {"pending", "leased"}
    )
    @rule()
    def claim_locally(self):
        stop = threading.Event()
        claimed = []

        def execute(job, index, emit):
            stop.set()
            claimed.append((job.job_id(), job.shard_id(index)))
            return self.shards[job.shard_id(index)]

        runner = threading.Thread(
            target=self.coordinator.run_local, args=(execute, stop), daemon=True
        )
        runner.start()
        # Without a claimable shard (a sweep failed the last job) the
        # thread idles; stop it.
        runner.join(timeout=0.5)
        stop.set()
        self.coordinator.wake()
        runner.join(timeout=10)
        assert not runner.is_alive()
        for job_id, shard_id in claimed:
            self._handed_out(shard_id)
            self._ack(shard_id, job_id)

    @precondition(lambda self: self.queued)
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.queued)))
        queued = self.queued.pop(job_id)
        queued.cancelled = True
        assert self.coordinator.cancel(job_id) is True

    @rule()
    def restart(self):
        """A new coordinator on a new store handle; the scheduler would
        resume every job it had queued."""
        self.store.close()
        self.store = ResultStore(self.path)
        self.coordinator = self._coordinator()
        resuming = [queued.job for queued in self.queued.values()]
        self.queued = {}
        for job in resuming:
            self._queue(job)
        expected = sum(
            job.shard_id(index) in self.acked
            for job in resuming
            for index in range(len(job.attacks))
        )
        assert self.coordinator.stats.resumed_shards == expected

    # -- invariants ------------------------------------------------------------
    @invariant()
    def no_violations(self):
        assert not getattr(self, "violations", [])

    @invariant()
    def no_shard_merges_twice(self):
        for queued in getattr(self, "history", []):
            assert all(count == 1 for count in queued.finished.values())


def test_fleet_state_machine(oracle, tmp_path, monkeypatch):
    clock = FakeTime()
    monkeypatch.setattr(fleet_module, "time", clock)
    monkeypatch.setattr(fleet_module, "MAX_SHARD_ATTEMPTS", 2)
    shards, merged = oracle

    class Machine(FleetMachine):
        pass

    Machine.shards, Machine.merged = shards, merged
    Machine.directory, Machine.clock = str(tmp_path), clock
    run_state_machine_as_test(
        Machine,
        settings=settings(
            max_examples=60,
            stateful_step_count=40,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
