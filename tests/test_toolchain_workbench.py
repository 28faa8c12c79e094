"""Workbench caching, compile argument checks, CampaignBuilder."""

import pytest

from repro.faults.classify import Outcome
from repro.faults.isa_campaign import branch_flip_sweep, repeated_branch_flip, skip_sweep
from repro.minic.driver import compile_source
from repro.toolchain import CompileConfig, Workbench

COMPARE_SRC = """
protect u32 cmp(u32 a, u32 b) {
    if (a == b) { return 100; }
    return 200;
}
"""

OTHER_SRC = """
protect u32 gate(u32 a) {
    if (a < 10) { return 1; }
    return 0;
}
"""


class TestCache:
    def test_identical_pair_compiles_once(self):
        wb = Workbench()
        first = wb.compile(COMPARE_SRC, CompileConfig.paper())
        again = wb.compile(COMPARE_SRC, CompileConfig.paper())
        assert first is again
        assert (wb.hits, wb.misses) == (1, 1)

    def test_repeats_in_a_loop_are_cache_hits(self):
        wb = Workbench()
        programs = [wb.compile(COMPARE_SRC, CompileConfig.paper()) for _ in range(5)]
        assert all(p is programs[0] for p in programs)
        assert wb.misses == 1  # exactly one real compilation
        assert wb.hits == 4

    def test_mixed_jobs_compile_each_distinct_pair_once(self):
        wb = Workbench()
        jobs = [
            (COMPARE_SRC, CompileConfig.paper()),
            (COMPARE_SRC, CompileConfig.baseline()),
            (OTHER_SRC, CompileConfig.paper()),
            (COMPARE_SRC, CompileConfig.paper()),
        ]
        programs = [wb.compile(source, config) for source, config in jobs]
        assert programs[0] is programs[3]
        assert programs[0] is not programs[1]
        assert wb.misses == 3 and wb.hits == 1
        schemes = [p.scheme for p in programs]
        assert schemes == ["ancode", "none", "ancode", "ancode"]
        assert programs[1].run("cmp", [7, 7]).exit_code == 100

    def test_lru_eviction(self):
        wb = Workbench(cache_size=1)
        wb.compile(COMPARE_SRC, CompileConfig.paper())
        wb.compile(OTHER_SRC, CompileConfig.paper())
        assert wb.cached_programs == 1
        wb.compile(COMPARE_SRC, CompileConfig.paper())  # evicted -> recompiles
        assert wb.misses == 3 and wb.hits == 0

    def test_distinct_configs_not_conflated(self):
        wb = Workbench()
        merge = wb.compile(COMPARE_SRC, CompileConfig(cfi_policy="merge"))
        edge = wb.compile(COMPARE_SRC, CompileConfig(cfi_policy="edge"))
        assert merge is not edge
        assert wb.misses == 2

    def test_default_config(self):
        wb = Workbench()
        program = wb.compile(COMPARE_SRC)
        assert program.config == CompileConfig()

    def test_bad_cache_size(self):
        with pytest.raises(ValueError):
            Workbench(cache_size=0)

    def test_replaced_scheme_is_not_served_stale(self):
        # register_scheme(replace=True) bumps the scheme's revision, which
        # is part of the cache key: the Workbench must recompile instead
        # of serving the program built by the superseded builder.
        from repro.toolchain import get_scheme, register_scheme, unregister_scheme

        @register_scheme("test-evolving")
        def build_v1(pipeline, config):
            pass

        try:
            wb = Workbench()
            v1 = wb.compile(COMPARE_SRC, CompileConfig(scheme="test-evolving"))

            from repro.passes.duplication import DuplicationPass

            @register_scheme("test-evolving", replace=True)
            def build_v2(pipeline, config):
                pipeline.add("duplication", DuplicationPass(config.duplication_order))

            v2 = wb.compile(COMPARE_SRC, CompileConfig(scheme="test-evolving"))
            assert v2 is not v1
            assert wb.misses == 2 and wb.hits == 0
            assert v2.code_size > v1.code_size  # the new builder's tree
        finally:
            unregister_scheme("test-evolving")


class TestCompileDrivers:
    def test_config_must_be_a_compile_config(self):
        with pytest.raises(TypeError, match="must be a CompileConfig"):
            compile_source(COMPARE_SRC, config={"scheme": "ancode"})

    def test_legacy_keywords_are_gone(self):
        with pytest.raises(TypeError):
            compile_source(COMPARE_SRC, scheme="ancode")

    def test_compile_minic_facade(self):
        import repro

        program = repro.compile_minic(COMPARE_SRC, config=CompileConfig.baseline())
        assert program.scheme == "none"
        assert program.run("cmp", [1, 2]).exit_code == 200


class TestCampaignBuilder:
    @pytest.fixture(scope="class")
    def workbench(self):
        return Workbench()

    def test_fluent_campaign(self, workbench):
        report = (
            workbench.campaign(COMPARE_SRC, "cmp", [7, 7], CompileConfig.paper())
            .attack(skip_sweep, last=40)
            .attack(branch_flip_sweep, max_branches=1)
            .run()
        )
        assert report.scheme == "ancode"
        assert set(report.attacks) == {"instruction-skip", "branch-flip"}
        flip = report.attacks["branch-flip"]
        assert flip.outcomes.get(Outcome.DETECTED_CFI, 0) == 1
        assert flip.undetected_wrong == 0

    def test_campaign_accepts_compiled_program(self, workbench):
        program = workbench.compile(COMPARE_SRC, CompileConfig.baseline())
        report = (
            workbench.campaign(program, "cmp", [7, 7])
            .attack(branch_flip_sweep, max_branches=1)
            .run()
        )
        # CFI-only: the single flipped decision goes undetected.
        assert report.attacks["branch-flip"].undetected_wrong == 1

    def test_attack_rename(self, workbench):
        report = (
            workbench.campaign(COMPARE_SRC, "cmp", [7, 7], CompileConfig.paper())
            .attack(branch_flip_sweep, name="flip-1", max_branches=1)
            .run()
        )
        assert set(report.attacks) == {"flip-1"}
        assert report.attacks["flip-1"].attack == "flip-1"

    def test_empty_campaign_rejected(self, workbench):
        with pytest.raises(ValueError, match="no attacks"):
            workbench.campaign(COMPARE_SRC, "cmp", [1, 1], CompileConfig.paper()).run()

    def test_duplicate_attack_label_rejected(self, workbench):
        builder = (
            workbench.campaign(COMPARE_SRC, "cmp", [7, 7], CompileConfig.paper())
            .attack(branch_flip_sweep, max_branches=1)
            .attack(branch_flip_sweep, max_branches=2)
        )
        with pytest.raises(ValueError, match="duplicate attack label"):
            builder.run()


class TestNewSchemeEndToEnd:
    """The registered-outside-passes variant works through the whole stack."""

    @pytest.mark.parametrize("scheme", ["duplication-hardened", "ancode-operand-checks"])
    def test_variant_compiles_and_runs(self, scheme):
        wb = Workbench()
        program = wb.compile(COMPARE_SRC, CompileConfig(scheme=scheme))
        assert program.scheme == scheme
        assert program.run("cmp", [7, 7]).exit_code == 100
        assert program.run("cmp", [7, 8]).exit_code == 200

    def test_hardened_duplication_fault_campaign(self):
        wb = Workbench()
        report = (
            wb.campaign(
                COMPARE_SRC, "cmp", [7, 7], CompileConfig(scheme="duplication-hardened")
            )
            .attack(branch_flip_sweep, max_branches=1)
            .attack(repeated_branch_flip)
            .run()
        )
        single = report.attacks["branch-flip"]
        assert single.outcomes.get(Outcome.DETECTED_TRAP, 0) == 1
        # Like plain duplication, repetition still defeats the tree — the
        # variant hardens the margin, not the principle.
        repeated = report.attacks["repeated-branch-flip"]
        assert repeated.trials == 1
