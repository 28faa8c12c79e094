"""Differential proof that the fast campaign engines are trace-equivalent
to the reference one.

Three layers of equivalence, per the PR contract:

* **golden runs** — every device program, compiled under every registered
  scheme, executes identically (full ``ExecutionResult`` equality: status,
  exit code, cycles, retired instructions, console) on the reference
  interpreter and the superblock trace compiler;
* **campaign tallies** — the stock attack suites produce identical
  ``AttackResult`` outcome tallies (and ``wrong_codes``, in order) on the
  default ``fork`` engine (checkpoint-forked, trace-compiled trials) and
  the ``reference`` oracle, and on the parallel
  :class:`~repro.toolchain.executor.CampaignExecutor`;
* **individual trials** — checkpoint-forked trials return the *same
  ExecutionResult* (cycles included) as full replays, for every bundled
  fault-model family.
"""

import inspect

import pytest

import repro.faults.scheduler as scheduler_module
from repro.backend import compile_ir
from repro.crypto import build_signed_image
from repro.crypto.image import BOOT_OK, bootloader_params, prepare_bootloader_module
from repro.faults.isa_campaign import (
    branch_flip_sweep,
    encoded_window,
    operand_corruption_sweep,
    repeated_branch_flip,
    run_attack,
    skip_sweep,
)
from repro.faults.models import (
    BranchDirectionFlip,
    FlagFlip,
    InstructionSkip,
    MemoryBitFlip,
    RegisterBitFlip,
    RepeatedFlagFlip,
    RepeatedInstructionSkip,
)
from repro.faults.scheduler import TrialScheduler
from repro.isa.cpu import PAGE_SIZE
from repro.minic import parse_to_ir
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.toolchain import (
    CampaignExecutor,
    CompileConfig,
    list_schemes,
    table3_schemes,
)

ALL_SCHEMES = list_schemes()
TABLE3 = table3_schemes()

SHA_DRIVER = """
u8 msg[256];
u32 msg_len = 0;
u32 digest[8];
u32 run_sha(u32 word_index) {
    sha256(&msg[0], msg_len, &digest[0]);
    return digest[word_index];
}
"""

EC_DRIVER = """
u32 run_modmul(u32 a, u32 b) { return modmul(a, b, CURVE_P); }
u32 run_modinv(u32 a) { return modinv(a, CURVE_P); }
"""


def _sha_module():
    message = b"abc"
    module = parse_to_ir(load_source("sha256") + SHA_DRIVER, "sha")
    module.globals["msg"].initializer = message
    module.globals["msg_len"].initializer = len(message).to_bytes(4, "little")
    return module


def assert_same_result(a, b, context=""):
    assert a == b, f"{context}: {a} != {b}"


#: every execution tier, slowest first: the reference interpreter and the
#: superblock trace compiler.
DISPATCHES = ("reference", "superblock")


def both_dispatches(program, function, args, max_cycles=10_000_000):
    """One golden run per dispatch tier; callers assert all are equal."""
    return [
        program.run(function, args, max_cycles=max_cycles, dispatch=dispatch)
        for dispatch in DISPATCHES
    ]


# ---------------------------------------------------------------------------
# Golden-run equivalence: device programs x schemes x dispatch paths
# ---------------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize(
        "name,function,args",
        [
            ("integer_compare", "integer_compare", [7, 7]),
            ("integer_compare", "integer_compare", [7, 8]),
            ("memcmp", "run_memcmp", [128]),
        ],
    )
    def test_micros(self, scheme, name, function, args):
        program = compile_source(
            load_source(name), config=CompileConfig(scheme=scheme)
        )
        reference, superblock = both_dispatches(program, function, args)
        assert_same_result(reference, superblock, f"{name}/{scheme}{args}/superblock")
        assert reference.ok

    @pytest.mark.parametrize("scheme", TABLE3)
    def test_sha256(self, scheme):
        program = compile_ir(_sha_module(), config=CompileConfig(scheme=scheme))
        for word_index in (0, 7):
            reference, superblock = both_dispatches(
                program, "run_sha", [word_index]
            )
            assert_same_result(
                reference, superblock, f"sha256/{scheme}[{word_index}]/superblock"
            )
            assert reference.ok

    @pytest.mark.parametrize("scheme", TABLE3)
    def test_ecverify_helpers(self, scheme):
        module = parse_to_ir(load_source("ecverify") + EC_DRIVER, "ec")
        program = compile_ir(module, config=CompileConfig(scheme=scheme))
        for function, args in (
            ("run_modmul", [999999, 123456]),
            ("run_modinv", [12345]),
        ):
            reference, superblock = both_dispatches(program, function, args)
            assert_same_result(
                reference, superblock, f"ecverify/{scheme}/{function}/superblock"
            )
            assert reference.ok

    @pytest.mark.parametrize("scheme", ["none", "ancode"])
    def test_bootloader(self, scheme):
        image = build_signed_image(b"FW-EQUIV-TEST-01" * 4)  # 64 bytes
        program = compile_ir(
            prepare_bootloader_module(image),
            config=CompileConfig(scheme=scheme, params=bootloader_params()),
        )
        reference, superblock = both_dispatches(
            program, "bootloader_main", [], max_cycles=30_000_000
        )
        assert_same_result(reference, superblock, f"bootloader/{scheme}/superblock")
        assert reference.exit_code == BOOT_OK


# ---------------------------------------------------------------------------
# Campaign-tally equivalence: stock suites x schemes x engines
# ---------------------------------------------------------------------------
def _tally(result):
    return (result.attack, result.outcomes, result.trials, result.wrong_codes)


def _stock_suite(program, function, args, engine):
    results = [
        skip_sweep(program, function, args, engine=engine),
        branch_flip_sweep(program, function, args, max_branches=8, engine=engine),
        repeated_branch_flip(program, function, args, engine=engine),
        operand_corruption_sweep(program, function, args, engine=engine),
    ]
    return [_tally(r) for r in results]


class TestCampaignEquivalence:
    @pytest.mark.parametrize("scheme", TABLE3)
    @pytest.mark.parametrize(
        "name,function,args",
        [
            ("integer_compare", "integer_compare", [7, 7]),
            ("integer_compare", "integer_compare", [7, 8]),
            ("memcmp", "run_memcmp", [16]),
        ],
    )
    def test_stock_suites_all_engines(self, scheme, name, function, args):
        program = compile_source(
            load_source(name), config=CompileConfig(scheme=scheme)
        )
        reference = _stock_suite(program, function, args, "reference")
        fork = _stock_suite(program, function, args, "fork")
        assert reference == fork

    @pytest.mark.parametrize("engine", ["superblock", "replay"])
    def test_only_fork_and_reference_engines(self, engine):
        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="none")
        )
        with pytest.raises(ValueError, match=r"\('fork', 'reference'\)"):
            run_attack(
                program, "integer_compare", [7, 7], [InstructionSkip(1)],
                engine=engine,
            )

    @pytest.mark.parametrize(
        "owner,knob",
        [
            (TrialScheduler, "dispatch"),
            (TrialScheduler, "reuse_cpu"),
            (TrialScheduler, "golden_max_cycles"),
            (TrialScheduler, "record_addrs"),
            (TrialScheduler, "max_checkpoints"),
            (CampaignExecutor.run_attack, "engine"),
        ],
    )
    def test_no_engine_knob_above_the_cpu(self, owner, knob):
        # Trial CPUs always run trace-compiled; nothing above the CPU
        # selects how.
        assert knob not in inspect.signature(owner).parameters

    def test_the_cpu_has_two_dispatch_tiers(self):
        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="none")
        )
        with pytest.raises(ValueError, match="unknown dispatch mode 'cached'"):
            program.run("integer_compare", [7, 7], dispatch="cached")

    def test_windowed_operand_corruption(self):
        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="ancode")
        )
        args = [7, 8]
        window = encoded_window(program, "integer_compare", args)
        tallies = {
            engine: _tally(
                operand_corruption_sweep(
                    program, "integer_compare", args, window=window, engine=engine
                )
            )
            for engine in ("reference", "fork")
        }
        assert tallies["reference"] == tallies["fork"]

    @pytest.mark.parametrize("scheme", ["none", "ancode"])
    def test_sha256_strided_campaign_all_engines(self, scheme):
        # A large device program (tens of thousands of golden
        # instructions) keeps the engines honest on long straight-line
        # stretches; strided skips bound the reference-engine runtime.
        program = compile_ir(_sha_module(), config=CompileConfig(scheme=scheme))
        total = program.trial_scheduler("run_sha", [0]).golden.instructions
        models = [
            InstructionSkip(i)
            for i in range(1, total + 1, max(1, total // 40))
        ]
        tallies = {
            engine: _tally(
                run_attack(program, "run_sha", [0], models, "skip", engine=engine)
            )
            for engine in ("reference", "fork")
        }
        assert tallies["reference"] == tallies["fork"]

    def test_adversary_composites_all_engines(self):
        # Composite k=2 trials chain resumed hooks whose fire indices can
        # shift once the first fault diverges the run — exactly the case
        # that forces the trace-compiled trial CPU to deoptimise for the
        # whole trial.  The tallies must not move an outcome.
        from repro.faults.adversary import adversary_sweep

        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="ancode")
        )
        tallies = {
            engine: _tally(
                adversary_sweep(
                    program, "integer_compare", [7, 7], k=2, engine=engine
                )
            )
            for engine in ("reference", "fork")
        }
        assert tallies["reference"] == tallies["fork"]

    def test_parallel_executor_matches_serial(self):
        from repro.toolchain import CampaignExecutor

        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        total = program.trial_scheduler("run_memcmp", [16]).golden.instructions
        models = [InstructionSkip(i) for i in range(1, total + 1, 7)]
        serial = run_attack(program, "run_memcmp", [16], models, "skip")
        with CampaignExecutor(max_workers=2) as executor:
            parallel = run_attack(
                program, "run_memcmp", [16], models, "skip", executor=executor
            )
        assert _tally(serial) == _tally(parallel)


# ---------------------------------------------------------------------------
# Trial-level equivalence: forked ExecutionResult == full-replay result
# ---------------------------------------------------------------------------
def _model_zoo(program, function, args):
    total = program.trial_scheduler(function, args).golden.instructions
    data_addr = next(iter(program.image.data_addrs.values()), 0x2000)
    stride = max(1, total // 40)
    models = [InstructionSkip(i) for i in range(1, total + 1, stride)]
    models += [InstructionSkip(total + 5)]  # can never fire
    models += [BranchDirectionFlip(n) for n in range(1, 9)]
    models += [FlagFlip("z", n) for n in (1, 2, 3)]
    models += [FlagFlip("c", 1), RepeatedFlagFlip("z"), RepeatedFlagFlip("c")]
    models += [
        RegisterBitFlip(reg, bit, occ)
        for reg in (0, 1, 3)
        for bit in (0, 16, 31)
        for occ in (1, total // 2, total)
    ]
    models += [
        MemoryBitFlip(data_addr, 0, max(1, total // 3)),
        MemoryBitFlip(data_addr + 1, 7, max(1, 2 * total // 3)),
    ]
    models += [RepeatedInstructionSkip("mul"), RepeatedInstructionSkip("cmp")]
    return models


class TestTrialEquivalence:
    @pytest.mark.parametrize("scheme", TABLE3)
    @pytest.mark.parametrize(
        "name,function,args",
        [
            ("integer_compare", "integer_compare", [7, 7]),
            ("memcmp", "run_memcmp", [8]),
        ],
    )
    def test_fork_equals_replay_per_trial(self, scheme, name, function, args):
        # Each forked trial single-steps while its fault window is open
        # and chains compiled traces either side, yet must return the
        # identical ExecutionResult (cycles included) as a fresh
        # reference replay.
        program = compile_source(
            load_source(name), config=CompileConfig(scheme=scheme)
        )
        scheduler = TrialScheduler.for_program(program, function, args)
        for model in _model_zoo(program, function, args):
            forked = scheduler.run_trial(model)
            cpu = program.prepare_cpu(
                function, args, pre_hooks=[model.hook()], dispatch="reference"
            )
            replayed = cpu.run(2_000_000)
            assert_same_result(forked, replayed, f"{name}/{scheme}/{model}")

    def test_forced_small_interval_and_thinning(self, monkeypatch):
        # A tiny interval with a tight byte budget exercises the
        # ladder-thinning path; trials must stay exact.
        budget = 8 * PAGE_SIZE
        monkeypatch.setattr(scheduler_module, "LADDER_BYTES", budget)
        monkeypatch.setattr(scheduler_module, "DEFAULT_INTERVAL", 16)
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="duplication")
        )
        scheduler = TrialScheduler(program, "run_memcmp", [32])
        charged = sum((len(snap.pages) + 1) * PAGE_SIZE for snap in scheduler.checkpoints)
        assert charged <= budget
        assert scheduler.stats.interval > 16  # thinning doubled the spacing
        total = scheduler.golden.instructions
        for occurrence in (1, total // 3, total // 2, total - 1, total):
            model = InstructionSkip(occurrence)
            forked = scheduler.run_trial(model)
            cpu = program.prepare_cpu(
                "run_memcmp", [32], pre_hooks=[model.hook()], dispatch="reference"
            )
            assert_same_result(forked, cpu.run(2_000_000), f"skip@{occurrence}")

    def test_short_circuit_counts_never_firing_trials(self):
        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="ancode")
        )
        scheduler = TrialScheduler(program, "integer_compare", [5, 5])
        golden = scheduler.golden
        result = scheduler.run_trial(InstructionSkip(golden.instructions + 100))
        assert result == golden
        assert scheduler.stats.short_circuited == 1

    def test_snapshot_restore_roundtrip(self):
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        cpu = program.prepare_cpu("run_memcmp", [64])
        partial = cpu.run(10_000_000, stop_at_instruction=500)
        assert partial.instructions == 500
        snap = cpu.snapshot()
        final = cpu.run(10_000_000)
        clone = program.prepare_cpu("run_memcmp", [64])
        clone.restore(snap)
        assert clone.run(10_000_000) == final

    def test_superblock_mid_block_snapshot_roundtrip(self):
        # stop_at_instruction lands the CPU mid-superblock by trace
        # geometry, and the trace pauses there, so the snapshot is taken
        # at an exact architectural boundary.  The suffix must replay
        # identically whether the resumed CPU chains compiled traces or
        # steps the reference.
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        cpu = program.prepare_cpu("run_memcmp", [64], dispatch="superblock")
        partial = cpu.run(10_000_000, stop_at_instruction=500)
        assert partial.instructions == 500
        snap = cpu.snapshot()
        final = cpu.run(10_000_000)
        for dispatch in DISPATCHES:
            clone = program.prepare_cpu("run_memcmp", [64], dispatch=dispatch)
            clone.restore(snap)
            assert_same_result(
                clone.run(10_000_000), final, f"snapshot-resume/{dispatch}"
            )
        assert cpu._sb_blocks > 0  # the suffix re-entered compiled traces


# ---------------------------------------------------------------------------
# Speculative-execution equivalence: the adversary of repro.spec must not
# perturb any of the guarantees above — and must itself be engine- and
# dispatch-independent.
# ---------------------------------------------------------------------------
from repro.faults.models import PredictorFlip
from repro.isa.cpu import SNAPSHOT_VERSION
from repro.spec import PREDICTORS, SpecConfig
from repro.spec.campaign import speculative_sweep


class TestSpeculativeEquivalence:
    @pytest.mark.parametrize("scheme", TABLE3)
    @pytest.mark.parametrize(
        "name,function,args",
        [
            ("integer_compare", "integer_compare", [7, 7]),
            ("memcmp", "run_memcmp", [8]),
        ],
    )
    def test_sweep_all_engines(self, scheme, name, function, args):
        program = compile_source(
            load_source(name), config=CompileConfig(scheme=scheme)
        )
        tallies = {
            engine: _tally(
                speculative_sweep(
                    program, function, args, max_branches=8, engine=engine
                )
            )
            for engine in ("reference", "fork")
        }
        assert tallies["reference"] == tallies["fork"]

    @pytest.mark.parametrize("predictor", sorted(PREDICTORS))
    def test_golden_dispatch_parity_per_predictor(self, predictor):
        # Both dispatchers must retire branches through the same
        # speculative path: identical results *and* identical transient
        # digests, whatever the predictor.
        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="ancode")
        )
        spec = SpecConfig(window=8, predictor=predictor)
        for args in ([7, 7], [7, 8]):
            reference = program.run(
                "integer_compare", args, dispatch="reference", spec=spec
            )
            superblock = program.run(
                "integer_compare", args, dispatch="superblock", spec=spec
            )
            assert_same_result(reference, superblock, f"{predictor}{args}")
            assert reference.spec == superblock.spec

    @pytest.mark.parametrize("predictor", sorted(PREDICTORS))
    def test_fast_and_hooked_loops_share_the_retire_path(self, predictor):
        # A trace-compiled run steps every conditional branch, and a run
        # forced onto the reference step for its whole length by a no-op
        # retire hook steps every instruction; both retire branches
        # through SpecEngine.retire_bcc, so predictor training (and
        # therefore every transient digest) cannot drift between them:
        # the two must match bit for bit, spec summary included.
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        spec = SpecConfig(window=8, predictor=predictor)
        fast_cpu = program.prepare_cpu("run_memcmp", [8], spec=spec)
        fast = fast_cpu.run(2_000_000)
        hooked_cpu = program.prepare_cpu("run_memcmp", [8], spec=spec)
        hooked_cpu.retire_hooks.append(lambda cpu, instr, events: None)
        hooked = hooked_cpu.run(2_000_000)
        assert_same_result(fast, hooked, f"fast-vs-hooked/{predictor}")
        assert fast.spec == hooked.spec

    def test_parallel_executor_matches_serial(self):
        from repro.toolchain import CampaignExecutor

        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        serial = speculative_sweep(
            program, "run_memcmp", [8], max_branches=16, record_trials=True
        )
        with CampaignExecutor(max_workers=2) as executor:
            parallel = speculative_sweep(
                program,
                "run_memcmp",
                [8],
                max_branches=16,
                executor=executor,
                record_trials=True,
            )
        assert _tally(serial) == _tally(parallel)
        assert serial.records == parallel.records

    def test_window_zero_is_byte_identical(self):
        # W=0 never enters a transient frame and never trains the
        # predictor; a campaign run at W=0 must serialise to exactly the
        # bytes a speculation-free campaign produces.
        import json

        from repro.service.jobs import attack_result_to_dict

        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="ancode")
        )
        models = [BranchDirectionFlip(n) for n in range(1, 9)]
        baseline = run_attack(
            program, "integer_compare", [7, 8], models, "bf", record_trials=True
        )
        at_w0 = run_attack(
            program,
            "integer_compare",
            [7, 8],
            models,
            "bf",
            record_trials=True,
            spec=SpecConfig(window=0),
        )
        dump = lambda r: json.dumps(attack_result_to_dict(r), sort_keys=True)
        assert dump(baseline) == dump(at_w0)

    def test_snapshot_restore_carries_spec_state(self):
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        spec = SpecConfig(window=8)
        cpu = program.prepare_cpu("run_memcmp", [16], spec=spec)
        cpu.run(10_000_000, stop_at_instruction=200)
        snap = cpu.snapshot()
        assert snap.version == SNAPSHOT_VERSION
        assert snap.spec is not None
        final = cpu.run(10_000_000)
        clone = program.prepare_cpu("run_memcmp", [16], spec=spec)
        clone.restore(snap)
        resumed = clone.run(10_000_000)
        assert resumed == final
        assert resumed.spec == final.spec  # digest included

    def test_restore_rejects_foreign_snapshots(self):
        import dataclasses

        program = compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme="none")
        )
        spec_cpu = program.prepare_cpu("integer_compare", [1, 2], spec=SpecConfig())
        snap = spec_cpu.snapshot()
        plain_cpu = program.prepare_cpu("integer_compare", [1, 2])
        with pytest.raises(ValueError, match="speculative"):
            plain_cpu.restore(snap)
        with pytest.raises(ValueError, match="schema v1"):
            spec_cpu.restore(dataclasses.replace(snap, version=1))

    def test_forked_trials_equal_replay_with_speculation(self):
        # The trial-level guarantee of TestTrialEquivalence, under spec:
        # a checkpoint-forked PredictorFlip trial returns the same
        # ExecutionResult (and transient digest) as a fresh full replay.
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        spec = SpecConfig(window=8)
        scheduler = TrialScheduler.for_program(
            program, "run_memcmp", [8], spec=spec
        )
        for occurrence in (1, 3, 5, 9):
            model = PredictorFlip(occurrence)
            forked = scheduler.run_trial(model)
            cpu = program.prepare_cpu(
                "run_memcmp", [8], pre_hooks=[model.hook()], spec=spec,
                dispatch="reference",
            )
            replayed = cpu.run(2_000_000)
            assert_same_result(forked, replayed, f"predictor-flip@{occurrence}")
            assert forked.spec == replayed.spec


# ---------------------------------------------------------------------------
# Baseline byte-identity pin against pre-refactor fixtures
# ---------------------------------------------------------------------------
# The ``repro.target`` refactor must be invisible on the existing machine:
# golden runs and quick-suite campaign reports for every device program x
# Table III scheme are recomputed live and compared field-for-field
# against the JSON fixtures captured before the refactor landed
# (``tests/fixtures/``, regenerated only deliberately via
# ``tests/gen_baseline_fixtures.py``).


def _genfix():
    """The fixture generator module (pytest puts ``tests/`` on sys.path)."""
    import gen_baseline_fixtures

    return gen_baseline_fixtures


class TestBaselineByteIdentityPin:
    @pytest.fixture(scope="class")
    def programs_by_scheme(self):
        genfix = _genfix()
        return {scheme: genfix._programs(scheme) for scheme in table3_schemes()}

    @pytest.mark.parametrize(
        "workload",
        ["integer_compare", "memcmp", "sha256", "ecverify", "bootloader"],
    )
    def test_pre_refactor_fixture_identity(self, programs_by_scheme, workload):
        import json
        import os

        genfix = _genfix()
        name, function, args = next(
            w for w in genfix.WORKLOADS if w[0] == workload
        )
        path = os.path.join(genfix.FIXTURE_DIR, f"baseline_{name}.json")
        with open(path) as fh:
            pinned = json.load(fh)
        assert sorted(pinned) == sorted(table3_schemes())
        for scheme in table3_schemes():
            live = genfix.capture_workload(
                programs_by_scheme[scheme][name], function, args
            )
            live = json.loads(json.dumps(live, sort_keys=True))
            assert live == pinned[scheme], (
                f"{name}/{scheme}: baseline target drifted from the "
                f"pre-refactor capture in {path}"
            )
