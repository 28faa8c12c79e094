"""ResultStore: schema roundtrip, restart-resume, concurrent writers."""

import json
import sqlite3
import threading

import pytest

from repro.service.store import (
    SCHEMA_VERSION,
    JobRecord,
    ResultStore,
    SchemaMismatchError,
    StoreError,
)

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

SPEC = {"kind": "campaign", "title": "t", "source": "u32 f() { return 1; }"}
RESULT = {
    "kind": "campaign",
    "job_id": "cj-abc",
    "report": {
        "scheme": "ancode",
        "attacks": {
            "branch-flip": {
                "attack": "branch-flip",
                "outcomes": {"masked": 3, "detected-cfi": 1},
                "trials": 4,
                "wrong_codes": [],
                "simulated_cycles": 1234,
            }
        },
    },
}


class TestSchemaRoundtrip:
    def test_job_and_result_roundtrip(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.record_job("cj-abc", "campaign", SPEC)
            record = store.get_job("cj-abc")
            assert isinstance(record, JobRecord)
            assert record.state == "queued" and record.spec == SPEC
            store.set_state("cj-abc", "running")
            store.store_result("cj-abc", RESULT)
        # Reopen from disk: everything survives the process boundary.
        with ResultStore(path) as store:
            record = store.get_job("cj-abc")
            assert record.state == "done"
            assert record.started_at is not None
            assert record.finished_at is not None
            assert store.get_result("cj-abc") == RESULT
            assert store.counts() == {"done": 1}

    def test_events_roundtrip_in_order(self, tmp_path):
        path = tmp_path / "store.sqlite"
        events = [{"event": "queued"}, {"event": "started"}, {"event": "finished"}]
        with ResultStore(path) as store:
            store.record_job("cj-e", "campaign", SPEC)
            for event in events:
                store.append_event("cj-e", event)
        with ResultStore(path) as store:
            assert store.events("cj-e") == events
            store.clear_events(["cj-e"])
            assert store.events("cj-e") == []

    def test_schema_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "store.sqlite"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaMismatchError, match="schema"):
            ResultStore(path)

    def test_unknown_job_operations_raise(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError, match="unknown job"):
                store.set_state("cj-missing", "running")
            with pytest.raises(StoreError, match="unknown job"):
                store.store_result("cj-missing", RESULT)
            with pytest.raises(StoreError, match="state"):
                store.record_job("cj-x", "campaign", SPEC)
                store.set_state("cj-x", "sideways")
            assert store.get_job("cj-missing") is None
            assert store.get_result("cj-missing") is None


class TestRestartResume:
    def test_interrupted_jobs_are_resumable(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.record_job("cj-1", "campaign", dict(SPEC, title="one"))
            store.record_job("cj-2", "campaign", dict(SPEC, title="two"))
            store.record_job("cj-3", "campaign", dict(SPEC, title="three"))
            store.set_state("cj-2", "running")  # process dies mid-run
            store.store_result("cj-3", RESULT)  # finished before the crash
        with ResultStore(path) as store:
            resumable = {r.job_id for r in store.resumable_jobs()}
            assert resumable == {"cj-1", "cj-2"}
            # The finished campaign must never be recomputed.
            assert store.get_job("cj-3").state == "done"
            assert store.get_result("cj-3") == RESULT

    def test_requeue_resets_failed_but_never_done(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_job("cj-f", "campaign", SPEC)
            store.set_state("cj-f", "failed", error="boom")
            store.record_job("cj-f", "campaign", SPEC)  # resubmission
            record = store.get_job("cj-f")
            assert record.state == "queued" and record.error is None

            store.record_job("cj-d", "campaign", SPEC)
            store.store_result("cj-d", RESULT)
            store.record_job("cj-d", "campaign", SPEC)  # resubmission
            assert store.get_job("cj-d").state == "done"
            assert store.get_result("cj-d") == RESULT


class TestConcurrentWriters:
    def test_many_threads_many_store_instances(self, tmp_path):
        """Writers in separate threads, each with its own connection to the
        same database file, must all land (WAL + busy retries)."""
        path = tmp_path / "store.sqlite"
        ResultStore(path).close()  # create schema once
        writers, jobs_per_writer = 6, 8
        errors: list[BaseException] = []

        def write(worker: int) -> None:
            try:
                with ResultStore(path) as store:
                    for n in range(jobs_per_writer):
                        job_id = f"cj-{worker}-{n}"
                        store.record_job(job_id, "campaign", SPEC)
                        store.append_event(job_id, {"event": "queued"})
                        store.store_result(
                            job_id, dict(RESULT, job_id=job_id)
                        )
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        with ResultStore(path) as store:
            assert store.counts() == {"done": writers * jobs_per_writer}
            for worker in range(writers):
                for n in range(jobs_per_writer):
                    job_id = f"cj-{worker}-{n}"
                    assert store.get_result(job_id)["job_id"] == job_id

    def test_concurrent_event_appends_get_unique_seqs(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.record_job("cj-ev", "campaign", SPEC)
        appenders, events_each = 4, 10
        errors: list[BaseException] = []

        def append(worker: int) -> None:
            try:
                with ResultStore(path) as store:
                    for n in range(events_each):
                        store.append_event(
                            "cj-ev", {"event": "batch", "worker": worker, "n": n}
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=append, args=(i,)) for i in range(appenders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        with ResultStore(path) as store:
            events = store.events("cj-ev")
        assert len(events) == appenders * events_each
        # Per-writer order is preserved by the monotonic seq.
        for worker in range(appenders):
            ns = [e["n"] for e in events if e["worker"] == worker]
            assert ns == sorted(ns)

    def test_shared_instance_across_threads(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        errors: list[BaseException] = []

        def write(worker: int) -> None:
            try:
                for n in range(10):
                    store.record_job(f"cj-s-{worker}-{n}", "campaign", SPEC)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert store.counts() == {"queued": 40}
        store.close()

    def test_result_payload_is_canonical_json(self, tmp_path):
        # Guard against accidental non-JSON payloads (bytes, enums, ...)
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_job("cj-j", "campaign", SPEC)
            store.store_result("cj-j", RESULT)
            raw = store._conn.execute(
                "SELECT payload, trials, simulated_cycles FROM results"
            ).fetchone()
        assert json.loads(raw["payload"]) == RESULT
        assert raw["trials"] == 4
        assert raw["simulated_cycles"] == 1234


class TestTransactions:
    def test_a_transaction_commits_all_of_its_writes_or_none(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(RuntimeError, match="before the commit"):
                with store.transaction():
                    store.record_job("cj-t", "campaign", SPEC)
                    store.append_event("cj-t", {"event": "queued"})
                    raise RuntimeError("dies before the commit")
            assert store.get_job("cj-t") is None
            assert store.events("cj-t") == []
            with store.transaction():
                store.record_job("cj-t", "campaign", SPEC)
                store.append_event("cj-t", {"event": "queued"})
            assert store.get_job("cj-t").state == "queued"
            assert store.events("cj-t") == [{"event": "queued"}]

    def test_a_failed_write_inside_rolls_back_only_its_own_statements(
        self, tmp_path
    ):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_job("cj-t", "campaign", SPEC)
            store.store_trace("cj-t", [{"name": "job"}])
            with store.transaction():
                store.store_result("cj-t", RESULT)
                # Deletes the stored trace, then fails to encode the new
                # one: only the delete is undone.
                with pytest.raises(TypeError):
                    store.store_trace("cj-t", [{"name": object()}])
                with pytest.raises(StoreError, match="unknown job"):
                    store.set_state("cj-missing", "running")
                store.append_event("cj-t", {"event": "finished"})
            assert store.get_result("cj-t") == RESULT
            assert store.get_trace("cj-t") == [{"name": "job"}]
            assert store.events("cj-t") == [{"event": "finished"}]


class TestShards:
    def test_a_shard_write_runs_no_query(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_job("cj-t", "campaign", SPEC)
            statements = []
            store._conn.set_trace_callback(statements.append)
            assert store.store_shard("sh-1", "cj-t", 0, 1, {"n": 1}) is None
            store._conn.set_trace_callback(None)
            assert [s for s in statements if "SELECT" in s.upper()] == []
            assert store.shard_payloads("cj-t") == {"sh-1": (0, 1, {"n": 1})}

    def test_a_repeated_shard_replaces_its_row(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_job("cj-t", "campaign", SPEC)
            store.store_shard("sh-1", "cj-t", 0, 1, {"n": 1})
            store.store_shard("sh-1", "cj-t", 0, 2, {"n": 2})
            store.store_shard("sh-2", "cj-t", 1, 2, {"n": 3})
            assert store.shard_payloads("cj-t") == {
                "sh-1": (0, 2, {"n": 2}),
                "sh-2": (1, 2, {"n": 3}),
            }


def lifecycle_job(attacks):
    from repro.programs import load_source
    from repro.service.jobs import AttackSpec, CampaignJob
    from repro.toolchain import CompileConfig

    return CampaignJob(
        source=load_source("integer_compare"),
        function="integer_compare",
        args=(5, 6),
        config=CompileConfig(scheme="ancode"),
        attacks=tuple(
            AttackSpec.make(suite, label=label, **kwargs)
            for label, suite, kwargs in attacks
        ),
    )


class TestLifecycleTransactions:
    def test_a_served_job_commits_nine_transactions(self, tmp_path):
        from repro.analysis.table3 import TABLE3_ATTACKS
        from repro.service import BackgroundService

        job = lifecycle_job(TABLE3_ATTACKS)
        commits = []
        with BackgroundService(db_path=str(tmp_path / "s.sqlite"), runners=1) as svc:
            connection = svc.scheduler.store._conn
            connection.set_trace_callback(
                lambda sql: commits.append(sql) if sql == "COMMIT" else None
            )
            with svc.client() as client:
                client.submit(job)
                client.wait(job.job_id())
                client.results(job.job_id())
                client.map(job.job_id())
            connection.set_trace_callback(None)
        # Enqueue, start and finish one each; per attack, its shard row
        # and its attack-finished event.
        assert len(commits) == 3 + 2 * len(job.attacks) == 9

    @pytest.mark.parametrize("crash_after", range(11))
    def test_a_crash_inside_a_step_leaves_none_of_its_rows(
        self, tmp_path, crash_after
    ):
        from repro.service.chaos import CrashingStore
        from repro.service.queue import JobScheduler

        db = tmp_path / "crash.sqlite"
        job = lifecycle_job(
            [("flip", "branch-flip", {"max_branches": 2}),
             ("repeat", "repeated-branch-flip", {})]
        )
        store = CrashingStore(db, crash_after=crash_after)
        scheduler = JobScheduler(store=store, runners=1)
        try:
            job_id, _ = scheduler.submit(job)
            assert scheduler.wait(job_id)
        finally:
            scheduler.close()
            store.close()
        with ResultStore(db) as disk:
            record = disk.get_job(job_id)
            events = [event["event"] for event in disk.events(job_id)]
            # enqueue: the ledger row and its 'queued' event
            assert (record is not None) == ("queued" in events)
            # start: the 'running' state and its 'started' event
            started = record is not None and record.started_at is not None
            assert started == ("started" in events)
            # finish: the result, the trace and the 'finished' event
            assert (
                (disk.get_result(job_id) is not None)
                == (disk.get_trace(job_id) is not None)
                == ("finished" in events)
            )
            assert ("finished" in events) == (crash_after >= 10)
