"""End-to-end tests for the campaign service over a real localhost socket.

The acceptance contract (ISSUE 3):

* submit -> stream -> results works over HTTP;
* service-run campaigns are **result-identical** to a direct
  ``CampaignBuilder.run(engine="fork")`` for every device program x
  scheme in the quick suite;
* a second submission of the same job is answered from the store
  without re-executing a single trial — in-process and across a
  service restart.
"""

import time

import pytest

import repro
from repro.faults.isa_campaign import branch_flip_sweep, repeated_branch_flip
from repro.programs import load_source
from repro.service import BackgroundService, ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import (
    AttackSpec,
    CampaignJob,
    CompileJob,
    report_to_dict,
)
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


@pytest.fixture(scope="module")
def service():
    with BackgroundService(runners=2, trial_workers=0) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    with service.client() as client:
        yield client


@pytest.fixture(scope="module")
def workbench():
    return Workbench()


# ---------------------------------------------------------------------------
# Submit -> stream -> results
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_submit_stream_results(self, client):
        job = quick_job("integer_compare", "integer_compare", (3, 9), "ancode")
        submitted = client.submit(job)
        assert submitted["job_id"] == job.job_id()
        assert submitted["deduplicated"] is False

        events = list(client.stream(submitted["job_id"]))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds[-1] == "finished"
        finished_attacks = [
            e["result"]["attack"] for e in events if e["event"] == "attack-finished"
        ]
        assert finished_attacks == ["branch-flip", "repeated-branch-flip"]

        result = client.results(submitted["job_id"])
        assert result["kind"] == "campaign"
        assert result["report"]["scheme"] == "ancode"
        assert set(result["report"]["attacks"]) == {
            "branch-flip",
            "repeated-branch-flip",
        }
        # The replayed stream of a finished job terminates immediately.
        replay = [e["event"] for e in client.stream(submitted["job_id"])]
        assert replay[-1] == "finished"

    def test_status_reports_version_and_schemes(self, client):
        status = client.service_status()
        assert status["service"] == "repro.service"
        assert status["version"] == repro.__version__
        assert list(SCHEMES) == [
            s for s in status["schemes"] if s in SCHEMES
        ]
        assert status["runners"] == 2

    def test_http_error_paths(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("cj-does-not-exist")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "campaign", "source": ""})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream("cj-does-not-exist"))
        assert excinfo.value.status == 404

    def test_failing_job_surfaces_error(self, client):
        job = CampaignJob(
            source="u32 f(u32 a) { return a; }",
            function="no_such_function",
            args=(1,),
            config=CompileConfig(scheme="none"),
            attacks=(AttackSpec.make("branch-flip", max_branches=2),),
        )
        submitted = client.submit(job)
        kinds = [e["event"] for e in client.stream(submitted["job_id"])]
        assert kinds[-1] == "failed"
        status = client.status(submitted["job_id"])
        assert status["state"] == "failed"
        assert status["error"]
        with pytest.raises(ServiceError, match="failed"):
            client.wait(submitted["job_id"])

    def test_compile_job(self, client):
        job = CompileJob(
            source=load_source("integer_compare"),
            config=CompileConfig(scheme="duplication"),
        )
        result = client.run(job)
        assert result["kind"] == "compile"
        assert result["scheme"] == "duplication"
        assert "integer_compare" in result["functions"]
        assert result["code_size"] > 0


# ---------------------------------------------------------------------------
# Result identity: service == direct CampaignBuilder.run(engine="fork")
# ---------------------------------------------------------------------------
class TestResultIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("program_name,function,args", QUICK_SUITE)
    def test_quick_suite_identity(
        self, client, workbench, scheme, program_name, function, args
    ):
        source = load_source(program_name)
        config = CompileConfig(scheme=scheme)
        direct = (
            workbench.campaign(source, function, list(args), config)
            .attack(branch_flip_sweep, max_branches=8)
            .attack(repeated_branch_flip)
            .run(engine="fork")
        )
        remote = (
            workbench.campaign(source, function, list(args), config)
            .attack(branch_flip_sweep, max_branches=8)
            .attack(repeated_branch_flip)
            .run(service=client)
        )
        assert report_to_dict(remote) == report_to_dict(direct)

    @pytest.mark.parametrize("command", ["serve", "worker"])
    def test_no_engine_option(self, command, capsys):
        # Campaigns run on the one fork engine; neither process takes an
        # engine choice.
        from repro.service.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--engine", "fork"])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_identity_with_process_sharded_trials(self):
        """trial_workers>0: the executor path must merge to the same report."""
        source = load_source("memcmp")
        config = CompileConfig(scheme="ancode")
        workbench = Workbench()
        direct = (
            workbench.campaign(source, "run_memcmp", [16], config)
            .attack(branch_flip_sweep, max_branches=8)
            .attack(repeated_branch_flip)
            .run(engine="fork")
        )
        with (
            BackgroundService(runners=1, trial_workers=2) as svc,
            svc.client() as client,
        ):
            job = quick_job("memcmp", "run_memcmp", (16,), "ancode")
            submitted = client.submit(job)
            events = list(client.stream(submitted["job_id"]))
            result = client.results(submitted["job_id"])
        assert report_to_dict(direct) == result["report"]
        batch_events = [e for e in events if e["event"] == "batch"]
        assert batch_events, "expected per-batch progress events"
        assert batch_events[-1]["trials_done"] == batch_events[-1]["trial_count"]


# ---------------------------------------------------------------------------
# Deduplication: in flight, via the store, and across restarts
# ---------------------------------------------------------------------------
class TestDeduplication:
    def test_second_submission_skips_execution(self, service, client):
        job = quick_job("integer_compare", "integer_compare", (5, 5), "none")
        first = client.submit(job)
        assert first["deduplicated"] is False
        client.wait(first["job_id"])
        executed_before = service.scheduler.stats.executed

        second = client.submit(job)
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        assert client.results(second["job_id"]) == client.results(first["job_id"])
        assert service.scheduler.stats.executed == executed_before
        assert service.scheduler.stats.deduplicated_store >= 1

    def test_restart_resume_answers_from_store(self, tmp_path):
        db = tmp_path / "campaigns.sqlite"
        job = quick_job("integer_compare", "integer_compare", (2, 4), "duplication")

        with BackgroundService(db_path=str(db)) as first, first.client() as client:
            submitted = client.submit(job)
            assert submitted["deduplicated"] is False
            client.wait(submitted["job_id"])
            stored = client.results(submitted["job_id"])
            assert first.scheduler.stats.executed == 1

        # A brand-new process (fresh scheduler, same database file).
        with BackgroundService(db_path=str(db)) as second, second.client() as client:
            resubmitted = client.submit(job)
            assert resubmitted["job_id"] == submitted["job_id"]
            assert resubmitted["deduplicated"] is True
            assert client.results(resubmitted["job_id"]) == stored
            assert second.scheduler.stats.executed == 0
            assert second.scheduler.stats.submitted == 0

    def test_restart_resumes_interrupted_jobs(self, tmp_path):
        """Jobs left queued by a dead process run on the next start."""
        from repro.service.store import ResultStore

        db = tmp_path / "campaigns.sqlite"
        job = quick_job("integer_compare", "integer_compare", (9, 9), "none")
        with ResultStore(db) as store:  # a service that died pre-execution
            store.record_job(job.job_id(), job.kind, job.to_dict())
        with BackgroundService(db_path=str(db)) as svc, svc.client() as client:
            assert svc.resumed_jobs == 1
            client.wait(job.job_id())
            result = client.results(job.job_id())
        assert result["report"]["scheme"] == "none"

    def test_source_hash_framing_resists_collisions(self):
        # Job ids and cache keys derive from this hash; unframed
        # concatenation would let distinct splits collide.
        from repro.toolchain.workbench import source_hash

        assert source_hash("src", {"a": b"\x00b=c"}) != source_hash(
            "src", {"a": b"", "b": b"c"}
        )
        assert source_hash("src\x00a=xx") != source_hash("src", {"a": b"xx"})
        assert (
            source_hash("s") == source_hash("s", None) == source_hash("s", {})
        )

    def test_different_initializers_are_different_jobs(self):
        source = (
            "u32 KEY = 0;\n"
            "protect u32 check(u32 guess) {\n"
            "    if (guess == KEY) { return 1; }\n"
            "    return 0;\n"
            "}\n"
        )
        key_bytes = (42).to_bytes(4, "little").hex()
        base = dict(
            source=source,
            function="check",
            args=(42,),
            config=CompileConfig(scheme="ancode"),
            attacks=(AttackSpec.make("branch-flip", max_branches=4),),
        )
        plain = CampaignJob(**base)
        keyed = CampaignJob(**base, initializers=(("KEY", key_bytes),))
        assert plain.job_id() != keyed.job_id()


    def test_replaced_scheme_builder_invalidates_stored_result(self, tmp_path):
        """register_scheme(replace=True) bumps the revision; stored results
        computed by the superseded builder must not be served."""
        from repro.toolchain import register_scheme, unregister_scheme

        @register_scheme("svc-rev-scheme", label="RevTest")
        def build_v1(pipeline, config):
            pass

        try:
            job = CampaignJob(
                source=load_source("integer_compare"),
                function="integer_compare",
                args=(4, 4),
                config=CompileConfig(scheme="svc-rev-scheme"),
                attacks=(AttackSpec.make("branch-flip", max_branches=2),),
            )
            with (
                BackgroundService(db_path=str(tmp_path / "c.sqlite")) as svc,
                svc.client() as client,
            ):
                client.submit(job)
                client.wait(job.job_id())
                assert svc.scheduler.stats.executed == 1
                assert client.submit(job)["deduplicated"] is True

                @register_scheme("svc-rev-scheme", label="RevTest", replace=True)
                def build_v2(pipeline, config):
                    pass

                resubmitted = client.submit(job)
                assert resubmitted["deduplicated"] is False
                client.wait(job.job_id())
                assert svc.scheduler.stats.executed == 2
        finally:
            unregister_scheme("svc-rev-scheme")


class TestCancellation:
    def test_cancel_queued_job(self):
        # A single busy runner guarantees the second job sits queued.
        slow = CampaignJob(
            source=load_source("memcmp"),
            function="run_memcmp",
            args=(64,),
            config=CompileConfig(scheme="duplication"),
            attacks=(AttackSpec.make("skip-sweep"),),  # full dynamic sweep
        )
        victim = quick_job("integer_compare", "integer_compare", (1, 2), "none")
        with BackgroundService(runners=1) as svc, svc.client() as client:
            client.submit(slow)
            submitted = client.submit(victim)
            outcome = client.cancel(submitted["job_id"])
            assert outcome["cancelled"] is True
            with pytest.raises(ServiceError, match="cancelled"):
                client.wait(submitted["job_id"])
            assert client.status(submitted["job_id"])["state"] == "cancelled"

    def test_cancel_running_job_takes_effect_at_once(self):
        job = quick_job("integer_compare", "integer_compare", (6, 6), "none")
        with (
            BackgroundService(runners=1, lease_ttl=30.0) as svc,
            svc.client() as client,
        ):
            client.fleet_lease("w1")  # an active worker: runner threads idle
            client.submit(job)
            shard = client.fleet_lease("w1")["shard"]
            assert client.status(job.job_id())["state"] == "running"
            assert client.cancel(job.job_id()) == {
                "job_id": job.job_id(), "state": "cancelled", "cancelled": True
            }
            # The worker finishes its shard after the cancel: dropped.
            late = client.fleet_result(
                shard["shard_id"], "w1", token=shard["token"],
                result=job.run_shard(Workbench(), shard["attack_index"]),
            )
            assert late == {"accepted": False, "unknown": True}
            with pytest.raises(ServiceError, match="cancelled"):
                client.wait(job.job_id())
            store = svc.scheduler.store
            assert store.shard_payloads(job.job_id()) == {}
            deadline = time.monotonic() + 10
            while store.get_job(job.job_id()).state != "cancelled":
                assert time.monotonic() < deadline, "ledger never said cancelled"
                time.sleep(0.01)


class TestPriority:
    """Lower ``priority`` numbers are served first; ties in submission
    order."""

    def test_lower_number_leases_first(self):
        low, high = (
            quick_job("integer_compare", "integer_compare", (n, n), "none")
            for n in (30, 31)
        )
        with (
            BackgroundService(runners=1, lease_ttl=30.0) as svc,
            svc.client() as client,
        ):
            client.fleet_lease("w1")  # an active worker: runner threads idle
            client.submit(low, priority=10)
            client.submit(high, priority=1)
            order = [client.fleet_lease("w1")["shard"]["job_id"] for _ in range(4)]
        assert order == [high.job_id()] * 2 + [low.job_id()] * 2

    def test_lower_number_runs_first_locally(self):
        low, high = (
            quick_job("integer_compare", "integer_compare", (n, n + 2), "none")
            for n in (32, 33)
        )
        with BackgroundService(runners=1, lease_ttl=0.5) as svc, svc.client() as client:
            # A worker that falls silent holds the runner thread back
            # until both jobs are queued.
            client.fleet_lease("w1")
            client.submit(low, priority=10)
            client.submit(high, priority=1)
            for job in (low, high):
                client.wait(job.job_id())
            started = {
                job: client.status(job.job_id())["started_at"] for job in (low, high)
            }
        assert started[high] < started[low]
