"""Tests for :mod:`repro.analysis` (ISSUE 5).

The acceptance contract:

* golden-fixture JSON roundtrips for ``VulnerabilityMap``/``SchemeDiff``;
* a map built from a persisted store job is identical to one built from
  a live run, for every quick-suite device workload x Table III scheme;
* ``reproduce_table3()`` matches the E6 bench's scheme ranking (the
  campaign definitions are byte-for-byte the same attacks);
* ``GET /jobs/<id>/map`` returns a map byte-identical to the locally
  built one for a served bootloader campaign.
"""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    SchemeDiff,
    Table3Reproduction,
    VulnerabilityMap,
    diff_from_store,
    map_from_store,
    reproduce_table3,
    table3_jobs,
)
from repro.faults.isa_campaign import (
    branch_flip_sweep,
    repeated_branch_flip,
    run_attack,
    skip_sweep,
)
from repro.faults.models import BranchDirectionFlip, InstructionSkip
from repro.programs import load_source
from repro.service.store import ResultStore
from repro.toolchain import CompileConfig, Workbench, table3_schemes

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

#: Same quick suite as tests/test_service_api.py: the device workloads
#: small enough to sweep under every scheme in tier-1 time.
QUICK_SUITE = [
    ("integer_compare", "integer_compare", (7, 7)),
    ("integer_compare", "integer_compare", (7, 8)),
    ("memcmp", "run_memcmp", (16,)),
]
SCHEMES = table3_schemes()


@pytest.fixture(scope="module")
def workbench():
    return Workbench()


def quick_builder(workbench, program_name, function, args, scheme):
    return (
        workbench.campaign(
            load_source(program_name),
            function,
            list(args),
            CompileConfig(scheme=scheme),
        )
        .attack(branch_flip_sweep, max_branches=8)
        .attack(repeated_branch_flip)
    )


# ---------------------------------------------------------------------------
# Per-trial records
# ---------------------------------------------------------------------------
class TestRecords:
    def test_rows_engine_independent(self, workbench):
        program = workbench.compile(
            load_source("integer_compare"), CompileConfig(scheme="ancode")
        )
        models = [InstructionSkip(i) for i in range(1, 12)] + [
            BranchDirectionFlip(1)
        ]
        rows = {
            engine: run_attack(
                program,
                "integer_compare",
                [7, 7],
                models,
                engine=engine,
                record_trials=True,
            ).records
            for engine in ("fork", "reference")
        }
        assert rows["fork"] == rows["reference"]
        assert len(rows["fork"]) == len(models)
        # Every row is [fire_index, outcome, exit_code] with fire >= 1
        # for these always-firing models.
        assert all(
            row[0] >= 1 and isinstance(row[1], str) for row in rows["fork"]
        )

    def test_executor_rows_match_single_process(self, workbench):
        from repro.toolchain import CampaignExecutor

        program = workbench.compile(
            load_source("integer_compare"), CompileConfig(scheme="ancode")
        )
        direct = branch_flip_sweep(
            program, "integer_compare", [7, 8], max_branches=8, record_trials=True
        )
        with CampaignExecutor(max_workers=2) as executor:
            sharded = branch_flip_sweep(
                program,
                "integer_compare",
                [7, 8],
                max_branches=8,
                executor=executor,
                record_trials=True,
            )
        assert sharded == direct
        assert sharded.records == direct.records

    def test_suites_default_to_tally_only(self, workbench):
        program = workbench.compile(
            load_source("integer_compare"), CompileConfig(scheme="none")
        )
        assert skip_sweep(program, "integer_compare", [7, 7]).records is None

    def test_builder_records_by_default(self, workbench):
        report = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 7), "ancode"
        ).run()
        assert all(
            result.records is not None for result in report.attacks.values()
        )

    def test_record_trials_override_still_serialises(self, workbench):
        """record_trials is an execution-mode knob: a per-attack override
        must not leak into (and break) the wire-format job spec."""
        builder = workbench.campaign(
            load_source("integer_compare"),
            "integer_compare",
            [7, 7],
            CompileConfig(scheme="ancode"),
        ).attack(branch_flip_sweep, max_branches=2, record_trials=False)
        report = builder.run()
        assert report.attacks["branch-flip"].records is None  # honoured locally
        job = builder.to_job()  # must not raise JobError
        assert job.attacks[0].kwargs == {"max_branches": 2}


# ---------------------------------------------------------------------------
# VulnerabilityMap
# ---------------------------------------------------------------------------
class TestVulnerabilityMap:
    def test_pins_single_point_of_failure(self, workbench):
        analysis = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 8), "none"
        ).analyze()
        sites = analysis.map.exploitable_cells()
        assert sites, "CFI-only must leave the decision exploitable"
        assert all(cell.mnemonic == "bcc" for cell in sites)
        assert all(cell.function == "integer_compare" for cell in sites)

    def test_totals_reproduce_report_tally(self, workbench):
        analysis = quick_builder(
            workbench, "memcmp", "run_memcmp", (16,), "ancode"
        ).analyze()
        expected: dict = {}
        for result in analysis.report.attacks.values():
            for outcome, count in result.outcomes.items():
                expected[outcome.value] = expected.get(outcome.value, 0) + count
        assert analysis.map.totals() == dict(sorted(expected.items()))
        assert analysis.map.trials == sum(
            result.trials for result in analysis.report.attacks.values()
        )

    def test_roundtrip_and_byte_stability(self, workbench):
        builder = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 7), "ancode"
        )
        vmap = builder.analyze().map
        again = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 7), "ancode"
        ).analyze().map
        assert vmap.to_json() == again.to_json()  # deterministic build
        restored = VulnerabilityMap.from_dict(vmap.to_dict())
        assert restored.to_json() == vmap.to_json()
        assert restored.to_dict() == json.loads(vmap.to_json())

    def test_requires_records(self, workbench):
        from repro.faults.isa_campaign import CampaignReport

        program = workbench.compile(
            load_source("integer_compare"), CompileConfig(scheme="none")
        )
        report = CampaignReport(scheme="none")
        report.attacks["skip"] = skip_sweep(program, "integer_compare", [7, 7])
        with pytest.raises(AnalysisError, match="per-trial records"):
            VulnerabilityMap.build(program, "integer_compare", [7, 7], report)

    def test_golden_fixture_parses(self):
        """A pinned wire-format payload (what /map served at PR 5) must
        keep parsing and rendering."""
        fixture = {
            "kind": "vulnerability-map",
            "scheme": "none",
            "function": "check",
            "args": [7, 8],
            "attacks": ["branch-flip"],
            "skipped_attacks": [],
            "cells": [
                {
                    "addr": 4112,
                    "mnemonic": "bcc",
                    "text": "beq .L2",
                    "function": "check",
                    "outcomes": {"wrong-result": 1},
                    "attacks": {"branch-flip": {"wrong-result": 1}},
                }
            ],
            "unlocated": {"branch-flip": {"masked": 7}},
            "totals": {"masked": 7, "wrong-result": 1},
        }
        vmap = VulnerabilityMap.from_dict(fixture)
        assert vmap.exploitable == 1
        assert vmap.totals() == {"masked": 7, "wrong-result": 1}
        assert [c.addr for c in vmap.exploitable_cells()] == [4112]
        rendered = vmap.render()
        assert "EXPLOITABLE" in rendered and "0x001010" in rendered
        assert vmap.to_dict() == fixture


# ---------------------------------------------------------------------------
# SchemeDiff
# ---------------------------------------------------------------------------
class TestSchemeDiff:
    @pytest.fixture(scope="class")
    def analyses(self, workbench):
        return {
            scheme: quick_builder(
                workbench, "integer_compare", "integer_compare", (7, 8), scheme
            ).analyze()
            for scheme in ("none", "ancode")
        }

    def test_verdicts(self, analyses):
        diff = analyses["none"].diff(analyses["ancode"])
        assert set(diff.closed) == {"branch-flip", "repeated-branch-flip"}
        assert diff.opened == [] and diff.still_open == []
        assert diff.residual_b == [] and diff.residual_a
        assert diff.exploitable_delta < 0
        # The reverse diff opens exactly what the forward diff closed.
        reverse = analyses["ancode"].diff(analyses["none"])
        assert set(reverse.opened) == set(diff.closed)
        assert reverse.exploitable_delta == -diff.exploitable_delta

    def test_roundtrip(self, analyses):
        diff = analyses["none"].diff(analyses["ancode"])
        restored = SchemeDiff.from_dict(diff.to_dict())
        assert restored.to_json() == diff.to_json()
        assert restored.to_dict() == json.loads(diff.to_json())
        assert restored.render() == diff.render()

    def test_rejects_mismatched_workloads(self, workbench, analyses):
        other = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 7), "ancode"
        ).analyze()
        with pytest.raises(AnalysisError, match="different workloads"):
            analyses["none"].diff(other)


# ---------------------------------------------------------------------------
# Map from store == map from live run (no re-execution)
# ---------------------------------------------------------------------------
def _store_with(jobs, workbench, store):
    for job in jobs:
        payload = job.execute(workbench)
        store.record_job(job.job_id(), job.kind, job.to_dict())
        store.store_result(job.job_id(), payload)


class TestMapFromStore:
    @pytest.fixture(scope="class")
    def store(self):
        with ResultStore(":memory:") as store:
            yield store

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("program_name,function,args", QUICK_SUITE)
    def test_identical_to_live(
        self, workbench, store, program_name, function, args, scheme
    ):
        builder = quick_builder(workbench, program_name, function, args, scheme)
        live = builder.analyze().map
        job = quick_builder(
            workbench, program_name, function, args, scheme
        ).to_job(title=f"{program_name}/{scheme}")
        if store.get_job(job.job_id()) is None:
            _store_with([job], workbench, store)
        from_store = map_from_store(store, job.job_id(), workbench)
        assert from_store.to_json() == live.to_json()

    def test_store_diff_matches_direct(self, workbench, store):
        jobs = {
            scheme: quick_builder(
                workbench, "integer_compare", "integer_compare", (7, 8), scheme
            ).to_job()
            for scheme in ("none", "ancode")
        }
        for job in jobs.values():
            if store.get_job(job.job_id()) is None:
                _store_with([job], workbench, store)
        via_store = diff_from_store(
            store, jobs["none"].job_id(), jobs["ancode"].job_id(), workbench
        )
        direct = SchemeDiff.build(
            map_from_store(store, jobs["none"].job_id(), workbench),
            map_from_store(store, jobs["ancode"].job_id(), workbench),
        )
        assert via_store.to_json() == direct.to_json()
        assert "branch-flip" in via_store.closed

    def test_diff_rejects_different_program_inputs(self, workbench, store):
        """Same function name but different args (or source/initializers)
        must not diff — the verdicts would compare unrelated runs."""
        jobs = []
        for args in ((7, 7), (7, 8)):
            job = quick_builder(
                workbench, "integer_compare", "integer_compare", args, "none"
            ).to_job()
            if store.get_job(job.job_id()) is None:
                _store_with([job], workbench, store)
            jobs.append(job)
        with pytest.raises(AnalysisError, match="different workloads"):
            diff_from_store(store, jobs[0].job_id(), jobs[1].job_id(), workbench)

    def test_recordless_stored_result_is_rejected(self, workbench, store):
        job = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 7), "none"
        ).to_job()
        payload = job.execute(workbench)
        for attack in payload["report"]["attacks"].values():
            attack.pop("records", None)  # a pre-analytics payload
        store.record_job(job.job_id(), job.kind, job.to_dict(), force=True)
        store.store_result(job.job_id(), payload)
        with pytest.raises(AnalysisError, match="per-trial records"):
            map_from_store(store, job.job_id(), workbench)

    def test_unknown_job(self, store, workbench):
        with pytest.raises(AnalysisError, match="unknown job"):
            map_from_store(store, "cj-missing", workbench)


# ---------------------------------------------------------------------------
# Service endpoints: /map, /diff, CLI verbs
# ---------------------------------------------------------------------------
class TestServedAnalysis:
    """The served bootloader campaign (acceptance criterion): the map the
    service builds from its stored result must be byte-identical to one
    built locally from a live run of the same campaign."""

    @pytest.fixture(scope="class")
    def served(self, workbench):
        from repro.crypto.image import (
            bootloader_initializers,
            bootloader_params,
            bootloader_source,
            build_signed_image,
        )
        from repro.service import BackgroundService
        from repro.service.jobs import AttackSpec, CampaignJob

        image = build_signed_image(b"ANALYSIS-TEST-01" * 4)
        initializers = bootloader_initializers(image)
        source = bootloader_source()
        bogus_sig = (0x00C0FFEE & 0xFFFFF, 0x000BEEF1 & 0xFFFFF)
        hex_pairs = tuple(
            (name, data.hex()) for name, data in sorted(initializers.items())
        )
        jobs = {
            scheme: CampaignJob(
                source=source,
                function="accept_signature",
                args=bogus_sig,
                config=CompileConfig(
                    scheme=scheme, params=bootloader_params(), cfi_policy="edge"
                ),
                attacks=(
                    AttackSpec.make("branch-flip", max_branches=8),
                    AttackSpec.make("repeated-branch-flip"),
                ),
                title=f"bootloader-map/{scheme}",
            )
            for scheme in ("none", "ancode")
        }
        local = {}
        for scheme, job in jobs.items():
            local[scheme] = (
                workbench.campaign(
                    job.source,
                    job.function,
                    list(job.args),
                    job.config,
                    initializers=initializers,
                )
                .attack(branch_flip_sweep, max_branches=8)
                .attack(repeated_branch_flip)
                .analyze()
            )
        with BackgroundService(runners=1) as service, service.client() as client:
            for job in jobs.values():
                client.run(job)
            yield {
                "jobs": jobs,
                "local": local,
                "client": client,
                "address": service.address,
            }

    def test_served_map_byte_identical(self, served):
        for scheme, job in served["jobs"].items():
            payload = served["client"].map(job.job_id())
            assert payload["kind"] == "vulnerability-map"
            served_json = (
                json.dumps(payload["map"], indent=2, sort_keys=True) + "\n"
            )
            assert served_json == served["local"][scheme].map.to_json()

    def test_served_diff(self, served):
        jobs = served["jobs"]
        payload = served["client"].diff(
            jobs["none"].job_id(), jobs["ancode"].job_id()
        )
        diff = SchemeDiff.from_dict(payload["diff"])
        local = served["local"]["none"].diff(served["local"]["ancode"])
        assert diff.to_json() == local.to_json()

    def test_unknown_and_unfinished(self, served):
        from repro.service import ServiceError

        client = served["client"]
        with pytest.raises(ServiceError) as err:
            client.map("cj-" + "0" * 32)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.diff(next(iter(served["jobs"].values())).job_id(), "cj-" + "1" * 32)
        assert err.value.status == 404

    def test_diff_of_unrelated_programs_is_400(self, served, workbench):
        from repro.service import ServiceError

        client = served["client"]
        other = quick_builder(
            workbench, "integer_compare", "integer_compare", (7, 8), "none"
        ).to_job(title="unrelated")
        client.run(other)
        with pytest.raises(ServiceError) as err:
            client.diff(
                next(iter(served["jobs"].values())).job_id(), other.job_id()
            )
        assert err.value.status == 400
        assert "different workloads" in str(err.value)

    def test_recordless_stored_result_reexecutes_on_resubmit(self, tmp_path):
        """A stored result that predates per-trial recording is stale:
        resubmitting the identical job must re-execute (not dedup), after
        which /map works — the upgrade path for pre-analytics stores."""
        from repro.service import BackgroundService

        workbench = Workbench()
        job = quick_builder(
            workbench, "integer_compare", "integer_compare", (3, 5), "ancode"
        ).to_job(title="pre-analytics row")
        payload = job.execute(workbench)
        for attack in payload["report"]["attacks"].values():
            attack.pop("records", None)
        db = str(tmp_path / "campaigns.sqlite")
        with ResultStore(db) as store:
            store.record_job(job.job_id(), job.kind, job.to_dict())
            store.store_result(job.job_id(), payload)
        with (
            BackgroundService(db_path=db, runners=1) as service,
            service.client() as client,
        ):
            submitted = client.submit(job)
            assert submitted["deduplicated"] is False  # stale row re-executes
            client.wait(submitted["job_id"])
            assert client.map(job.job_id())["map"]["scheme"] == "ancode"
            # Now the stored result carries records: dedup applies again.
            assert client.submit(job)["deduplicated"] is True

    def test_cli_map_and_diff(self, served, capsys):
        from repro.service.cli import main as cli_main

        host, port = served["address"]
        jobs = list(served["jobs"].values())
        endpoint = ["--host", str(host), "--port", str(port)]
        assert cli_main(["map", *endpoint, jobs[0].job_id()]) == 0
        out = capsys.readouterr().out
        assert "Vulnerability map" in out and "totals:" in out
        assert (
            cli_main(["map", *endpoint, "--json", jobs[0].job_id()]) == 0
        )
        assert json.loads(capsys.readouterr().out)["kind"] == "vulnerability-map"
        assert (
            cli_main(["diff", *endpoint, jobs[0].job_id(), jobs[1].job_id()]) == 0
        )
        assert "Scheme diff" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Table III reproduction
# ---------------------------------------------------------------------------
class TestTable3:
    def test_matches_bench_campaign(self, workbench):
        """Pinned equivalence against the E6 bench: the same attacks the
        bench chains produce the same per-scheme undetected totals, and
        the ranking is the paper's."""
        source = load_source("integer_compare")
        bench_reports = {}
        for scheme in SCHEMES:
            bench_reports[scheme] = (
                workbench.campaign(
                    source, "integer_compare", [7, 7], CompileConfig(scheme=scheme)
                )
                .attack(branch_flip_sweep, name="single-flip", max_branches=1)
                .attack(repeated_branch_flip, name="repeated-flip")
                .attack(skip_sweep, name="skip-sweep")
                .run()
            )
        reproduction = reproduce_table3(workbench)
        from_reports = reproduce_table3(reports=bench_reports)
        assert reproduction.ranking == from_reports.ranking
        assert reproduction.ranking == ["ancode", "duplication", "none"]
        for scheme in SCHEMES:
            bench_wrong = sum(
                result.undetected_wrong
                for result in bench_reports[scheme].attacks.values()
            )
            assert reproduction.row(scheme).undetected_wrong == bench_wrong
        assert [row.to_dict() for row in reproduction.rows] == [
            row.to_dict() for row in from_reports.rows
        ]

    def test_store_backed_reproduction(self, workbench):
        with ResultStore(":memory:") as store:
            with pytest.raises(AnalysisError, match="no result"):
                reproduce_table3(workbench, store=store, require_stored=True)
            first = reproduce_table3(workbench, store=store)
            assert first.source == "run"
            # Second pass is answered entirely from persisted results.
            second = reproduce_table3(workbench, store=store, require_stored=True)
            assert second.source == "store"
            assert second.to_json() == first.to_json().replace('"run"', '"store"')

    def test_stale_scheme_revision_is_not_reused(self, workbench):
        """Stored Table III results computed under a replaced scheme
        builder must be re-run, mirroring the service dedup rule."""
        with ResultStore(":memory:") as store:
            first = reproduce_table3(workbench, store=store)
            job = table3_jobs()["ancode"]
            payload = store.get_result(job.job_id())
            payload["scheme_revision"] = -1  # as if the builder changed
            store.store_result(job.job_id(), payload)
            with pytest.raises(AnalysisError, match="no result"):
                reproduce_table3(workbench, store=store, require_stored=True)
            again = reproduce_table3(workbench, store=store)
            assert again.ranking == first.ranking

    def test_recordless_row_is_rerun_and_overwritten(self, workbench):
        """A stored row without per-trial records cannot build a map, so
        Table III re-runs it and overwrites it, as a resubmission to the
        service does."""
        with ResultStore(":memory:") as store:
            first = reproduce_table3(workbench, store=store)
            job = table3_jobs()["ancode"]
            payload = store.get_result(job.job_id())
            for attack in payload["report"]["attacks"].values():
                del attack["records"]  # a pre-analytics row
            store.store_result(job.job_id(), payload)
            with pytest.raises(AnalysisError, match="no result"):
                reproduce_table3(workbench, store=store, require_stored=True)
            again = reproduce_table3(workbench, store=store)
            assert again.to_json() == first.to_json()
            attacks = store.get_result(job.job_id())["report"]["attacks"]
            assert all("records" in attack for attack in attacks.values())
            stored = reproduce_table3(workbench, store=store, require_stored=True)
            assert stored.source == "store"

    def test_jobs_are_canonical(self):
        jobs = table3_jobs()
        assert set(jobs) == set(SCHEMES)
        again = table3_jobs()
        for scheme in jobs:
            assert jobs[scheme].job_id() == again[scheme].job_id()

    def test_roundtrip(self, workbench):
        reproduction = reproduce_table3(workbench)
        restored = Table3Reproduction.from_dict(reproduction.to_dict())
        assert restored.to_json() == reproduction.to_json()
        assert restored.ranking == reproduction.ranking
