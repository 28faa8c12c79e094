"""Unit and end-to-end tests for ``repro.spec`` — the speculative-execution
adversary: branch predictors, the bounded transient window, transient-trace
digests, the predictor-targeted fault models, and the ``speculative``
attack suite's wiring into classification, analysis, and the service.

Engine/dispatch equivalence under speculation lives in
``tests/test_engine_equivalence.py``; this file owns everything else.
"""

import gc
import hashlib
import weakref

import pytest

from repro.backend.driver import CompiledProgram
from repro.faults.adversary import CompositeFault, adversary_sweep
from repro.faults.classify import Outcome, classify
from repro.faults.models import HistoryPoison, InstructionSkip, PredictorFlip
from repro.faults.scheduler import TrialScheduler
from repro.isa.cpu import ExecutionResult, Status
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.spec import (
    PREDICTORS,
    HistoryPredictor,
    SpecConfig,
    StaticPredictor,
    TwoBitPredictor,
    build_predictor,
)
from repro.spec.campaign import speculative_sweep
from repro.spec.transient import SpecSummary
from repro.toolchain import CompileConfig

EMPTY_DIGEST = hashlib.sha256().hexdigest()

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


def _program(scheme="ancode", name="integer_compare"):
    return compile_source(load_source(name), config=CompileConfig(scheme=scheme))


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------
class TestPredictors:
    def test_static_policies(self):
        taken = StaticPredictor("always-taken")
        never = StaticPredictor("never-taken")
        btfnt = StaticPredictor("btfnt")
        assert taken.predict(0x100, 0x200) is True
        assert never.predict(0x100, 0x200) is False
        assert btfnt.predict(0x100, 0x80) is True  # backward -> loop, taken
        assert btfnt.predict(0x100, 0x200) is False  # forward -> not taken

    def test_two_bit_saturation(self):
        predictor = TwoBitPredictor(table_size=16)
        addr = 0x40
        # Counters start weakly-not-taken: first prediction is not-taken.
        assert predictor.predict(addr, 0) is False
        predictor.update(addr, True)  # 1 -> 2
        assert predictor.predict(addr, 0) is True
        for _ in range(5):  # saturates at 3, never beyond
            predictor.update(addr, True)
        predictor.update(addr, False)  # 3 -> 2: still predicts taken
        assert predictor.predict(addr, 0) is True
        predictor.update(addr, False)  # 2 -> 1
        assert predictor.predict(addr, 0) is False

    def test_two_bit_snapshot_roundtrip(self):
        predictor = TwoBitPredictor(table_size=8)
        for addr in (0x10, 0x14, 0x18):
            predictor.update(addr, True)
        state = predictor.snapshot_state()
        predictor.update(0x10, False)
        predictor.restore_state(state)
        assert predictor.snapshot_state() == state

    def test_gshare_history_disambiguates_aliases(self):
        predictor = HistoryPredictor(table_size=64, history_bits=4)
        addr = 0x100
        base_index = predictor._index(addr)
        predictor.update(addr, True)
        assert predictor._index(addr) != base_index  # history shifted in

    def test_gshare_poison_overwrites_history(self):
        predictor = HistoryPredictor(table_size=64, history_bits=4)
        for taken in (True, False, True, True):
            predictor.update(0x100, taken)
        predictor.poison(0b0000)
        _table, history = predictor.snapshot_state()
        assert history == 0
        predictor.poison(0b1111)
        _table, history = predictor.snapshot_state()
        assert history == 0b1111

    def test_poison_is_a_noop_on_history_free_predictors(self):
        predictor = TwoBitPredictor(table_size=8)
        state = predictor.snapshot_state()
        predictor.poison(0b1010)
        assert predictor.snapshot_state() == state

    def test_registry_builds_every_predictor(self):
        for name in PREDICTORS:
            predictor = build_predictor(SpecConfig(predictor=name))
            outcome = predictor.predict(0x100, 0x200)
            assert isinstance(outcome, bool)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            SpecConfig(window=-1)
        with pytest.raises(ValueError, match="predictor"):
            SpecConfig(predictor="oracle")
        with pytest.raises(ValueError, match="table_size"):
            SpecConfig(table_size=0)
        with pytest.raises(ValueError, match="history_bits"):
            SpecConfig(history_bits=0)
        with pytest.raises(ValueError, match="penalty"):
            SpecConfig(penalty=-3)

    def test_config_round_trips_as_json_primitives(self):
        import json

        config = SpecConfig(window=4, predictor="gshare", history_bits=6)
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


# ---------------------------------------------------------------------------
# Transient window semantics
# ---------------------------------------------------------------------------
class TestTransientWindow:
    def test_squash_is_architecturally_invisible(self):
        program = _program()
        plain = program.run("integer_compare", [7, 8])
        spec = program.run("integer_compare", [7, 8], spec=SpecConfig(window=8))
        assert spec.exit_code == plain.exit_code
        assert spec.status == plain.status
        assert spec.instructions == plain.instructions
        assert spec.console == plain.console

    def test_misprediction_penalty_is_the_only_cycle_cost(self):
        program = _program()
        plain = program.run("integer_compare", [7, 8])
        spec = program.run("integer_compare", [7, 8], spec=SpecConfig(window=8))
        penalty = 12  # CycleModel.misprediction()
        assert spec.cycles == plain.cycles + penalty * spec.spec.mispredictions

    def test_penalty_override(self):
        program = _program()
        base = program.run("integer_compare", [7, 7], spec=SpecConfig(window=8))
        assert base.spec.mispredictions > 0
        cheap = program.run(
            "integer_compare", [7, 7], spec=SpecConfig(window=8, penalty=0)
        )
        plain = program.run("integer_compare", [7, 7])
        assert cheap.cycles == plain.cycles

    def test_window_zero_never_speculates(self):
        program = _program()
        result = program.run("integer_compare", [7, 7], spec=SpecConfig(window=0))
        assert result.spec == SpecSummary(0, 0, 0, 0, EMPTY_DIGEST)

    def test_digest_is_deterministic(self):
        program = _program()
        spec = SpecConfig(window=8)
        first = program.run("integer_compare", [7, 7], spec=spec)
        second = program.run("integer_compare", [7, 7], spec=spec)
        assert first.spec.digest == second.spec.digest

    def test_digest_separates_branch_outcomes(self):
        # The observable channel: equal vs unequal inputs drive the
        # protected branch the other way, and the wrong path touches
        # different state — different transient digests.
        program = _program()
        spec = SpecConfig(window=8)
        equal = program.run("integer_compare", [7, 7], spec=spec)
        unequal = program.run("integer_compare", [7, 8], spec=spec)
        assert equal.spec.digest != unequal.spec.digest

    def test_recorded_frames(self):
        program = _program()
        cpu = program.prepare_cpu(
            "integer_compare", [7, 7], spec=SpecConfig(window=8, record_trace=True)
        )
        cpu.run()
        frames = cpu.spec.trace.frames
        assert frames, "expected at least one misprediction frame"
        frame = frames[0]
        assert set(frame) >= {"branch", "wrong_pc", "retired", "cycles", "events"}
        assert frame["retired"] <= 8

    def test_window_bounds_transient_retirement(self):
        program = _program(name="memcmp")
        wide = program.run("run_memcmp", [16], spec=SpecConfig(window=16))
        narrow = program.run("run_memcmp", [16], spec=SpecConfig(window=2))
        assert narrow.spec.transient_retired <= 2 * narrow.spec.mispredictions
        assert wide.spec.transient_retired >= narrow.spec.transient_retired

    def test_speculative_cpus_die_by_refcount(self, monkeypatch):
        # The engine keeps no reference back to its CPU, so a dropped
        # speculative CPU and its 2 MiB memory are freed at once, not
        # whenever the cyclic GC next runs (buffers that size never
        # trigger it).  A scheduler owns no CPU: the golden captures and
        # trials of two speculative workloads run on one CPU borrowed from
        # the program, which outlives the schedulers and dies with the
        # program.
        made = []
        prepare = CompiledProgram.prepare_cpu

        def spy(self, *args, **kwargs):
            cpu = prepare(self, *args, **kwargs)
            made.append(weakref.ref(cpu))
            return cpu

        monkeypatch.setattr(CompiledProgram, "prepare_cpu", spy)
        program = _program(name="memcmp")
        spec = SpecConfig(window=4)
        gc.disable()
        try:
            cpu = program.prepare_cpu("run_memcmp", [8], spec=spec)
            assert cpu.run().ok and cpu.spec.mispredictions
            del cpu
            assert len(made) == 1 and made[0]() is None, "dropped CPU"
            schedulers = [
                TrialScheduler(program, "run_memcmp", args, spec=spec)
                for args in ([8], [16])
            ]
            for scheduler in schedulers:
                assert scheduler.run_trial(InstructionSkip(5)).spec is not None
            assert len(made) == 2, "captures and trials borrow one CPU"
            borrowed = made[1]
            del schedulers, scheduler
            assert borrowed() is not None, "the program keeps its trial CPU"
            del program
            assert borrowed() is None, "dropped program's trial CPU"
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------
def _result(exit_code=0, spec=None, status=Status.EXIT):
    return ExecutionResult(
        status=status,
        exit_code=exit_code,
        cycles=100,
        instructions=50,
        console=(),
        spec=spec,
    )


class TestClassification:
    def test_masked_upgrades_to_transient_leak(self):
        golden = _result(spec=SpecSummary(2, 1, 4, 9, "aa"))
        faulted = _result(spec=SpecSummary(2, 2, 8, 18, "bb"))
        assert classify(golden, faulted) is Outcome.TRANSIENT_LEAK

    def test_identical_digests_stay_masked(self):
        summary = SpecSummary(2, 1, 4, 9, "aa")
        assert classify(_result(spec=summary), _result(spec=summary)) is Outcome.MASKED

    def test_architectural_damage_outranks_the_leak(self):
        golden = _result(exit_code=1, spec=SpecSummary(2, 1, 4, 9, "aa"))
        faulted = _result(exit_code=2, spec=SpecSummary(2, 2, 8, 18, "bb"))
        assert classify(golden, faulted) is Outcome.WRONG_RESULT

    def test_speculation_free_results_never_leak(self):
        assert classify(_result(), _result()) is Outcome.MASKED


# ---------------------------------------------------------------------------
# Predictor-targeted fault models
# ---------------------------------------------------------------------------
class TestPredictorFaults:
    def test_require_a_speculative_cpu(self):
        program = _program()
        cpu = program.prepare_cpu(
            "integer_compare", [7, 7], pre_hooks=[PredictorFlip(1).hook()]
        )
        with pytest.raises(RuntimeError, match="spec=repro.spec.SpecConfig"):
            cpu.run()

    def test_flip_leaks_without_architectural_damage(self):
        # The headline property: under every Table III scheme the flip is
        # squashed (architecturally MASKED) yet the transient digest moved.
        program = _program()
        result = speculative_sweep(
            program, "integer_compare", [7, 7], max_branches=8
        )
        assert result.outcomes.get(Outcome.TRANSIENT_LEAK, 0) >= 1
        assert result.outcomes.get(Outcome.WRONG_RESULT, 0) == 0

    def test_history_poison_under_gshare(self):
        # Needs a workload with enough branch history to train aliased
        # counters — poisoning the BHB then redirects a later lookup to a
        # counter trained by *other* branches, flipping the prediction.
        program = _program(name="memcmp")
        result = speculative_sweep(
            program,
            "run_memcmp",
            [8],
            max_branches=16,
            predictor="gshare",
            kinds=("history-poison",),
            poison_patterns=(0b1111, 0b0000),
        )
        assert result.trials == 32
        assert result.outcomes.get(Outcome.TRANSIENT_LEAK, 0) >= 1

    def test_unknown_kind_rejected(self):
        program = _program()
        with pytest.raises(ValueError, match="speculative fault kind"):
            speculative_sweep(
                program, "integer_compare", [7, 7], kinds=("rowhammer",)
            )

    def test_focus_restricts_the_sweep(self):
        program = _program(name="memcmp")
        focused = speculative_sweep(
            program, "run_memcmp", [8], focus="secure_memcmp", max_branches=64
        )
        unfocused = speculative_sweep(
            program, "run_memcmp", [8], max_branches=64
        )
        assert 0 < focused.trials <= unfocused.trials

    def test_composite_with_predictor_flip_under_scheduler(self):
        program = _program()
        spec = SpecConfig(window=8)
        scheduler = TrialScheduler.for_program(
            program, "integer_compare", [7, 7], spec=spec
        )
        model = CompositeFault((PredictorFlip(1), InstructionSkip(5)))
        forked = scheduler.run_trial(model)
        cpu = program.prepare_cpu(
            "integer_compare", [7, 7], pre_hooks=[model.hook()], spec=spec,
            dispatch="reference",
        )
        replayed = cpu.run(2_000_000)
        assert forked == replayed
        assert forked.spec == replayed.spec

    def test_adversary_sweep_with_predictor_first(self):
        program = _program()
        result = adversary_sweep(
            program,
            "integer_compare",
            [7, 7],
            k=2,
            first_kinds=("predictor-flip",),
            max_first=4,
            spec=SpecConfig(window=8),
        )
        assert result.trials > 0
        assert result.outcomes.get(Outcome.TRANSIENT_LEAK, 0) >= 1


# ---------------------------------------------------------------------------
# Service + analysis wiring
# ---------------------------------------------------------------------------
class TestServiceWiring:
    def test_suite_is_registered(self):
        from repro.service.jobs import ATTACK_SUITES, AttackSpec

        assert ATTACK_SUITES["speculative"] is speculative_sweep
        spec = AttackSpec.make("speculative", window=4, max_branches=6)
        assert spec.default_label == "speculative"

    def test_raw_spec_objects_stay_out_of_jobs(self):
        # ``spec`` is a reserved suite parameter: jobs configure
        # speculation through the suite's primitive kwargs, never by
        # smuggling a config object through the wire.
        from repro.service.jobs import AttackSpec, JobError

        with pytest.raises(JobError, match="does not accept"):
            AttackSpec.make("adversary", spec=4)
        with pytest.raises(JobError, match="does not accept"):
            AttackSpec.make("speculative", spec=4)

    def test_builder_round_trips_through_the_wire(self):
        from repro.service.jobs import job_from_dict
        from repro.toolchain.workbench import Workbench

        workbench = Workbench()
        builder = workbench.campaign(
            load_source("integer_compare"),
            "integer_compare",
            [7, 7],
            config=CompileConfig(scheme="ancode"),
        ).speculative(window=6, max_branches=6)
        job = builder.to_job(title="spec round-trip")
        assert job_from_dict(job.to_dict()).job_id() == job.job_id()

    def test_served_campaign_surfaces_the_leak(self):
        from repro.service.jobs import job_from_dict
        from repro.toolchain.workbench import Workbench

        workbench = Workbench()
        job = (
            workbench.campaign(
                load_source("integer_compare"),
                "integer_compare",
                [7, 7],
                config=CompileConfig(scheme="ancode"),
            )
            .speculative(window=6, max_branches=6)
            .to_job(title="spec service")
        )
        payload = job_from_dict(job.to_dict()).execute(workbench)
        outcomes = payload["report"]["attacks"]["speculative"]["outcomes"]
        assert outcomes.get("transient-leak", 0) >= 1
        assert outcomes.get("wrong-result", 0) == 0

    def test_status_reports_speculation(self):
        from repro.service.http import BackgroundService

        with BackgroundService(runners=1) as svc, svc.client() as client:
            status = client.service_status()
        assert status["speculation"]["suite"] == "speculative"
        assert "gshare" in status["speculation"]["predictors"]
        assert status["speculation"]["defaults"]["window"] == 8

    def test_served_map_and_diff_surface_the_leak(self):
        # Acceptance criterion end-to-end over HTTP: a served speculative
        # campaign whose architectural verdict is protected still shows
        # the transient leak in the served vulnerability map and in the
        # scheme diff between two schemes on the same workload.
        from repro.service.http import BackgroundService
        from repro.service.jobs import AttackSpec, CampaignJob

        def job(scheme):
            return CampaignJob(
                source=load_source("integer_compare"),
                function="integer_compare",
                args=(7, 7),
                config=CompileConfig(scheme=scheme),
                attacks=(
                    AttackSpec.make("speculative", window=6, max_branches=6),
                ),
            )

        with BackgroundService(runners=1) as svc, svc.client() as client:
            ids = {}
            for scheme in ("ancode", "none"):
                submitted = client.submit(job(scheme))
                client.results(submitted["job_id"], wait=True)
                ids[scheme] = submitted["job_id"]
            vmap = client.map(ids["ancode"])["map"]
            diff = client.diff(ids["ancode"], ids["none"])["diff"]
        leaked = sum(
            cell["outcomes"].get("transient-leak", 0) for cell in vmap["cells"]
        )
        assert leaked >= 1
        speculative = next(
            d for d in diff["attacks"] if d["attack"] == "speculative"
        )
        assert speculative["outcomes_a"].get("transient-leak", 0) >= 1
        assert speculative["outcomes_b"].get("transient-leak", 0) >= 1

    def test_vulnerability_map_and_diff_carry_the_leak(self):
        from repro.analysis import OUTCOME_ORDER, VulnerabilityMap
        from repro.faults.isa_campaign import CampaignReport

        assert Outcome.TRANSIENT_LEAK.value in OUTCOME_ORDER
        program = _program()
        result = speculative_sweep(
            program, "integer_compare", [7, 7], max_branches=8, record_trials=True
        )
        report = CampaignReport(scheme=program.scheme)
        report.attacks[result.attack] = result
        vmap = VulnerabilityMap.build(program, "integer_compare", [7, 7], report)
        assert vmap.totals().get(Outcome.TRANSIENT_LEAK.value, 0) >= 1
        assert Outcome.TRANSIENT_LEAK.value in vmap.render()
