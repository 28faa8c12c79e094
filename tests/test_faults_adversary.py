"""Multi-fault adversary layer: composition semantics, pruning soundness.

Three contracts:

* **degenerate composition** — a :class:`CompositeFault` of exactly one
  fault is byte-identical (per trial and per campaign report, cycles
  included) to the plain single-fault engine, for every device program
  and registered scheme;
* **k=2 equivalence** — composite trials produce identical results on
  the fork and reference engines, against fresh full replays, and across
  the parallel executor, including composites whose *second* fault counts branch
  occurrences after the first fault has diverged the control flow (the
  ``resumed_hook`` prefix-charging path);
* **pruning soundness** — on an unprotected ``integer_compare`` the
  pruned double-fault space misses no successful attack: every pair the
  equivalence layer drops is proven byte-identical to its first fault's
  single-fault trial.
"""

import pytest

from repro.faults.adversary import (
    CompositeFault,
    adversary_sweep,
    compose_space,
    first_fault_space,
)
from repro.faults.classify import Outcome, classify
from repro.faults.isa_campaign import run_attack
from repro.faults.models import (
    BranchDirectionFlip,
    FlagFlip,
    FlagFlipAt,
    InstructionSkip,
    MemoryBitFlip,
    RegisterBitFlip,
    RepeatedFlagFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.toolchain import CompileConfig, list_schemes, table3_schemes

ALL_SCHEMES = list_schemes()
TABLE3 = table3_schemes()


def _compile(name, scheme):
    return compile_source(load_source(name), config=CompileConfig(scheme=scheme))


def _tally(result):
    return (result.outcomes, result.trials, result.wrong_codes, result.simulated_cycles)


def _single_zoo(program, function, args):
    total = program.trial_scheduler(function, args).golden.instructions
    return [
        InstructionSkip(1),
        InstructionSkip(max(1, total // 2)),
        InstructionSkip(total + 10),  # can never fire
        BranchDirectionFlip(1),
        BranchDirectionFlip(2),
        FlagFlip("z", 1),
        FlagFlipAt("z", max(1, total - 2)),
        RegisterBitFlip(0, 0, max(1, total // 3)),
        RepeatedFlagFlip("c"),
    ]


# ---------------------------------------------------------------------------
# Degenerate composition: CompositeFault((m,)) == m
# ---------------------------------------------------------------------------
class TestCompositeOfOne:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize(
        "name,function,args",
        [
            ("integer_compare", "integer_compare", [7, 7]),
            ("integer_compare", "integer_compare", [7, 8]),
            ("memcmp", "run_memcmp", [8]),
        ],
    )
    def test_micros_report_identical(self, scheme, name, function, args):
        program = _compile(name, scheme)
        models = _single_zoo(program, function, args)
        plain = run_attack(program, function, args, models, "single")
        composed = run_attack(
            program,
            function,
            args,
            [CompositeFault((model,)) for model in models],
            "single",
        )
        assert _tally(plain)[:3] == _tally(composed)[:3]
        # A plain fault may rejoin the golden run at its probe and stop
        # simulating; a composite resumes counting hooks without a fire
        # window, which never probe, so it simulates at least as much.
        assert plain.simulated_cycles <= composed.simulated_cycles

    @pytest.mark.parametrize("scheme", TABLE3)
    def test_sha256_trials_identical(self, scheme):
        from repro.backend import compile_ir
        from repro.minic import parse_to_ir

        driver = """
u8 msg[256];
u32 msg_len = 0;
u32 digest[8];
u32 run_sha(u32 word_index) {
    sha256(&msg[0], msg_len, &digest[0]);
    return digest[word_index];
}
"""
        module = parse_to_ir(load_source("sha256") + driver, "sha")
        module.globals["msg"].initializer = b"abc"
        module.globals["msg_len"].initializer = (3).to_bytes(4, "little")
        program = compile_ir(module, config=CompileConfig(scheme=scheme))
        scheduler = TrialScheduler.for_program(program, "run_sha", [0])
        total = scheduler.golden.instructions
        for model in (
            InstructionSkip(total // 2),
            BranchDirectionFlip(3),
            FlagFlip("z", 2),
        ):
            single = scheduler.run_trial(model)
            composite = scheduler.run_trial(CompositeFault((model,)))
            assert single == composite, (scheme, model)


# ---------------------------------------------------------------------------
# k=2 equivalence across engines and the executor
# ---------------------------------------------------------------------------
def _composite_zoo(program, function, args):
    """Double faults stressing every resumption path, including
    occurrence-counting second faults after a control-flow divergence."""
    total = program.trial_scheduler(function, args).golden.instructions
    mid = max(2, total // 2)
    return [
        CompositeFault((BranchDirectionFlip(1), InstructionSkip(mid))),
        CompositeFault((InstructionSkip(1), FlagFlip("z", 2))),
        CompositeFault((InstructionSkip(2), BranchDirectionFlip(2))),
        CompositeFault((BranchDirectionFlip(1), FlagFlipAt("z", mid))),
        CompositeFault((FlagFlip("z", 1), FlagFlip("z", 2))),
        CompositeFault((RegisterBitFlip(0, 0, 1), BranchDirectionFlip(1))),
        CompositeFault((InstructionSkip(total + 5), FlagFlipAt("z", total + 9))),
        CompositeFault(
            (BranchDirectionFlip(1), InstructionSkip(mid), FlagFlip("z", 3))
        ),
    ]


class TestCompositeEquivalence:
    @pytest.mark.parametrize("scheme", TABLE3)
    @pytest.mark.parametrize(
        "name,function,args",
        [
            ("integer_compare", "integer_compare", [7, 8]),
            ("memcmp", "run_memcmp", [8]),
        ],
    )
    def test_fork_equals_replay_per_trial(self, scheme, name, function, args):
        program = _compile(name, scheme)
        scheduler = TrialScheduler.for_program(program, function, args)
        for composite in _composite_zoo(program, function, args):
            forked = scheduler.run_trial(composite)
            cpu = program.prepare_cpu(
                function, args, pre_hooks=[composite.hook()], dispatch="reference"
            )
            replayed = cpu.run(2_000_000)
            assert forked == replayed, (name, scheme, composite)

    def test_all_engines_agree_on_pruned_space(self):
        program = _compile("integer_compare", "duplication")
        space = compose_space(program, "integer_compare", [7, 7], window=12)
        tallies = {
            engine: _tally(
                run_attack(
                    program,
                    "integer_compare",
                    [7, 7],
                    space.trials,
                    "adv",
                    engine=engine,
                )
            )
            for engine in ("fork", "reference")
        }
        assert tallies["fork"] == tallies["reference"]

    def test_executor_shards_composites_unchanged(self):
        from repro.toolchain import CampaignExecutor

        program = _compile("memcmp", "ancode")
        space = compose_space(
            program, "run_memcmp", [8], window=6, max_first=20
        )
        serial = run_attack(program, "run_memcmp", [8], space.trials, "adv")
        with CampaignExecutor(max_workers=2) as executor:
            parallel = run_attack(
                program, "run_memcmp", [8], space.trials, "adv", executor=executor
            )
        assert _tally(serial) == _tally(parallel)

    def test_composite_validates(self):
        with pytest.raises(ValueError):
            CompositeFault(())


# ---------------------------------------------------------------------------
# Space generation and pruning
# ---------------------------------------------------------------------------
class TestSpaceGeneration:
    def test_window_bounds_and_naive_arithmetic(self):
        program = _compile("integer_compare", "ancode")
        space = compose_space(program, "integer_compare", [7, 7], window=5)
        stats = space.stats
        trace = TrialScheduler.for_program(program, "integer_compare", [7, 7]).trace
        assert stats.naive == stats.first_count * (
            stats.second_per_index * stats.golden_instructions
        )
        for composite in space.trials:
            first, second = composite.faults
            fire = first.first_fire_index(trace)
            assert fire < second.occurrence <= fire + 5
        assert stats.generated == len(space.trials)
        assert stats.generated <= stats.after_window

    def test_rejects_bad_parameters(self):
        program = _compile("integer_compare", "ancode")
        with pytest.raises(ValueError):
            compose_space(program, "integer_compare", [7, 7], k=1)
        with pytest.raises(ValueError):
            compose_space(program, "integer_compare", [7, 7], window=0)
        with pytest.raises(ValueError):
            compose_space(
                program, "integer_compare", [7, 7], second_kinds=("nope",)
            )
        with pytest.raises(ValueError):
            first_fault_space(program, "integer_compare", [7, 7], kinds=("nope",))

    def test_focus_and_max_first(self):
        program = _compile("memcmp", "duplication")
        everything = first_fault_space(
            program, "run_memcmp", [8], kinds=("branch-flip",)
        )
        focused = first_fault_space(
            program, "run_memcmp", [8], kinds=("branch-flip",), focus="secure_memcmp"
        )
        driver_only = first_fault_space(
            program, "run_memcmp", [8], kinds=("branch-flip",), focus="run_memcmp"
        )
        # Every dynamic branch of this workload retires inside the
        # protected comparison; the driver contributes none.
        assert 0 < len(focused) == len(everything)
        assert len(driver_only) == 0
        capped = first_fault_space(
            program, "run_memcmp", [8], kinds=("branch-flip",), max_first=3
        )
        assert len(capped) == 3
        fires = [fire for _, fire in capped]
        assert fires == sorted(fires)

    def test_dedup_guards_duplicate_first_models(self):
        # Generated spaces are duplicate-free by construction; the
        # commuting-pair layer guards duplicated caller input.
        program = _compile("integer_compare", "ancode")
        clean = compose_space(
            program,
            "integer_compare",
            [7, 7],
            window=4,
            first_models=[BranchDirectionFlip(1)],
        )
        doubled = compose_space(
            program,
            "integer_compare",
            [7, 7],
            window=4,
            first_models=[BranchDirectionFlip(1), BranchDirectionFlip(1)],
        )
        assert clean.stats.deduped == 0
        assert doubled.stats.deduped == clean.stats.generated
        assert doubled.stats.generated == clean.stats.generated

    def test_explicit_first_models(self):
        program = _compile("integer_compare", "ancode")
        space = compose_space(
            program,
            "integer_compare",
            [7, 7],
            window=4,
            first_models=[BranchDirectionFlip(1)],
        )
        assert space.stats.first_count == 1
        assert all(
            composite.faults[0] == BranchDirectionFlip(1)
            for composite in space.trials
        )

    def test_pruning_soundness_unprotected(self):
        """The pruned space misses no successful double-fault attack.

        On a fully unprotected integer_compare, every pair dropped by the
        equivalence layer must be byte-identical to its first fault's
        single-fault trial (the pair's second fault provably never
        fires) — so the pruned space finds exactly the successful
        attacks the unpruned window space finds.
        """
        program = compile_source(
            load_source("integer_compare"),
            config=CompileConfig(scheme="none", cfi=False),
        )
        kwargs = dict(
            window=8, first_kinds=("branch-flip", "skip"), max_cycles=200_000
        )
        full = compose_space(
            program, "integer_compare", [7, 8], prune_terminal=False, **kwargs
        )
        pruned = compose_space(
            program, "integer_compare", [7, 8], prune_terminal=True, **kwargs
        )
        assert len(pruned.trials) < len(full.trials)
        pruned_keys = {frozenset(trial.faults) for trial in pruned.trials}
        scheduler = TrialScheduler.for_program(program, "integer_compare", [7, 8])
        full_successes = set()
        for trial in full.trials:
            result = scheduler.run_trial(trial, 200_000)
            outcome = classify(scheduler.golden, result)
            if frozenset(trial.faults) not in pruned_keys:
                # Dropped pair: must equal the first fault acting alone.
                single = scheduler.run_trial(trial.faults[0], 200_000)
                assert result == single, trial
            elif outcome is Outcome.WRONG_RESULT:
                full_successes.add(frozenset(trial.faults))
        # Every successful attack of the unpruned space survived pruning.
        assert full_successes and full_successes <= pruned_keys

    def test_prepass_reuses_scheduler_and_counts(self):
        program = _compile("integer_compare", "ancode")
        space = compose_space(program, "integer_compare", [7, 7], window=6)
        assert space.stats.prepass_trials == space.stats.first_count
        assert set(space.first_results) == {
            model for model, _ in first_fault_space(program, "integer_compare", [7, 7])
        }


# ---------------------------------------------------------------------------
# End-to-end: builder sugar and the service wire format
# ---------------------------------------------------------------------------
class TestAdversaryIntegration:
    def test_builder_adversary_runs(self):
        from repro.toolchain import Workbench

        workbench = Workbench()
        report = (
            workbench.campaign(
                load_source("integer_compare"),
                "integer_compare",
                [7, 8],
                CompileConfig(scheme="ancode"),
            )
            .adversary(k=2, window=16)
            .run()
        )
        result = report.attacks["k-fault-adversary"]
        assert result.trials > 0
        # The headline: the prototype detects every single fault but a
        # pruned double fault forges the acceptance.
        assert result.outcomes.get(Outcome.WRONG_RESULT, 0) >= 1
        assert 1 in result.wrong_codes

    def test_adversary_job_roundtrip_and_identity(self):
        import json

        from repro.service.jobs import job_from_dict, report_to_dict
        from repro.toolchain import Workbench

        workbench = Workbench()
        builder = workbench.campaign(
            load_source("integer_compare"),
            "integer_compare",
            [7, 8],
            CompileConfig(scheme="ancode"),
        ).adversary(k=2, window=16)
        direct = builder.run(engine="fork")
        job = builder.to_job(title="adversary")
        decoded = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert decoded == job and decoded.job_id() == job.job_id()
        payload = decoded.execute(workbench)
        assert payload["report"] == report_to_dict(direct)

    def test_adversary_spec_validates_kwargs(self):
        from repro.service.jobs import AttackSpec, JobError

        spec = AttackSpec.make("adversary", k=2, window=8, focus="integer_compare")
        assert spec.kwargs == {"k": 2, "window": 8, "focus": "integer_compare"}
        with pytest.raises(JobError):
            AttackSpec.make("adversary", engine="reference")
        with pytest.raises(JobError):
            AttackSpec.make("adversary", nonsense=1)

    def test_sweep_rejects_unknown_engine(self):
        program = _compile("integer_compare", "ancode")
        with pytest.raises(ValueError):
            adversary_sweep(program, "integer_compare", [7, 7], engine="warp")
