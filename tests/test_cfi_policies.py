"""Tests for the CFI state-justification policies and monitor internals."""

import gc
import weakref

import pytest

from repro.backend import compile_ir
from repro.cfi.gpsa import entry_state, merge, rotl, update
from repro.faults.models import InstructionSkip
from repro.faults.scheduler import TrialScheduler
from repro.isa import Status
from repro.minic import compile_source
from repro.programs import load_source
from repro.toolchain import CompileConfig

from tests.test_backend_compile import (
    build_call_module,
    build_compare_module,
    build_loop_sum_module,
    build_memcmp_module,
)

POLICIES = ("merge", "edge")


class TestGpsaMath:
    def test_rotl_wraps(self):
        assert rotl(0x80000000) == 1
        assert rotl(1, 31) == 0x80000000

    def test_update_order_sensitive(self):
        s1 = update(update(0, 0xAAAA), 0x5555)
        s2 = update(update(0, 0x5555), 0xAAAA)
        assert s1 != s2

    def test_merge_is_xor(self):
        assert merge(0xF0F0, 0x0F0F) == 0xFFFF

    def test_entry_states_distinct(self):
        assert entry_state("f") != entry_state("g")


class TestPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheme", ("none", "duplication", "ancode"))
    def test_loop_clean_run(self, policy, scheme):
        program = compile_ir(
            build_loop_sum_module(),
            config=CompileConfig(scheme=scheme, cfi_policy=policy),
        )
        result = program.run("sum", [10])
        assert result.status is Status.EXIT
        assert result.exit_code == 45

    @pytest.mark.parametrize("policy", POLICIES)
    def test_calls_clean_run(self, policy):
        program = compile_ir(
            build_call_module(),
            config=CompileConfig(scheme="none", cfi_policy=policy),
        )
        assert program.run("main", [2]).status is Status.EXIT

    @pytest.mark.parametrize("policy", POLICIES)
    def test_memcmp_clean_run(self, policy):
        program = compile_ir(
            build_memcmp_module(),
            config=CompileConfig(scheme="ancode", cfi_policy=policy),
        )
        assert program.run("memcmp32", [16]).exit_code == 1

    def test_edge_policy_costs_more(self):
        merge_p = compile_ir(
            build_loop_sum_module(),
            config=CompileConfig(scheme="ancode", cfi_policy="merge"),
        )
        edge_p = compile_ir(
            build_loop_sum_module(),
            config=CompileConfig(scheme="ancode", cfi_policy="edge"),
        )
        assert edge_p.code_size > merge_p.code_size
        assert edge_p.run("sum", [10]).cycles > merge_p.run("sum", [10]).cycles

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            compile_ir(build_compare_module(), config=CompileConfig(cfi_policy="bogus"))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_branch_flip_detected_under_both_policies(self, policy):
        from repro.faults.models import BranchDirectionFlip

        program = compile_ir(
            build_compare_module("eq"),
            config=CompileConfig(scheme="ancode", cfi_policy=policy),
        )
        cpu = program.prepare_cpu(
            "cmp", [5, 5], pre_hooks=[BranchDirectionFlip(1).hook()]
        )
        assert cpu.run().status is Status.CFI_VIOLATION

    def test_edge_policy_unprotected_flip_wins_silently(self):
        # Per-block state replacement means a flipped *unprotected* branch
        # lands in a self-consistent state: exactly the gap the paper's
        # protection closes.
        from repro.faults.models import BranchDirectionFlip

        module = build_compare_module("eq")
        module.get_function("cmp").attributes.discard("protect_branches")
        program = compile_ir(
            module,
            config=CompileConfig(scheme="none", cfi_policy="edge"),
        )
        cpu = program.prepare_cpu(
            "cmp", [5, 5], pre_hooks=[BranchDirectionFlip(1).hook()]
        )
        result = cpu.run()
        assert result.status is Status.EXIT
        assert result.exit_code == 200  # wrong branch, undetected


class TestMonitorInternals:
    def test_monitor_counts_checks(self):
        source = "protect u32 f(u32 a) { if (a > 1) { return 2; } return 3; }"
        program = compile_source(source, config=CompileConfig(scheme="ancode"))
        cpu = program.prepare_cpu("f", [5])
        result = cpu.run()
        monitor = cpu.retire_hooks[0].__self__
        assert result.status is Status.EXIT
        assert monitor.checks_passed == 1
        assert monitor.violations == 0

    def test_monitor_shadow_stack_depth(self):
        program = compile_ir(build_call_module(), config=CompileConfig(scheme="none"))
        cpu = program.prepare_cpu("main", [1])
        result = cpu.run()
        monitor = cpu.retire_hooks[0].__self__
        assert result.status is Status.EXIT
        assert monitor.call_stack == []

    def test_protected_cpus_die_by_refcount(self, monkeypatch):
        # The monitor keeps no reference back to its CPU, so a dropped
        # CFI-protected CPU and its 2 MiB memory are freed at once, not
        # whenever the cyclic GC next runs (buffers that size never
        # trigger it): a plain prepared CPU, and the trial CPU the
        # program lends its schedulers, once the program drops it.
        # Schedulers hold none: more workloads than the memo keeps
        # capture and run trials on that one CPU.
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        made = []
        prepare = program.prepare_cpu

        def spy(*args, **kwargs):
            cpu = prepare(*args, **kwargs)
            made.append(weakref.ref(cpu))
            return cpu

        monkeypatch.setattr(program, "prepare_cpu", spy)
        gc.disable()
        try:
            cpu = program.prepare_cpu("run_memcmp", [8])
            assert cpu.run().ok and cpu.monitor is not None
            del cpu
            assert made[0]() is None, "dropped CPU"
            for n in range(TrialScheduler.MEMO_SIZE + 1):
                scheduler = TrialScheduler.for_program(program, "run_memcmp", [8 + n])
                scheduler.run_trial(InstructionSkip(5))
            del scheduler
            assert len(made) == 2, "every workload borrowed one CPU"
            borrowed = made[1]
            assert borrowed() is not None
            program._trial_cpus.clear()
            assert borrowed() is None, "dropped trial CPU"
        finally:
            gc.enable()


class TestBenchHarness:
    def test_measure_reports_sizes(self):
        from repro.bench import measure, overhead_pct

        program = compile_ir(build_compare_module())
        m = measure(program, "cmp", [1, 1])
        assert m.exit_code == 100
        assert m.size_bytes == program.size_of("cmp")
        assert m.cycles > 0
        assert overhead_pct(150, 100) == 50.0

    def test_measure_rejects_bad_run(self):
        from repro.bench.harness import MeasurementError, measure

        source = "u32 f() { __trap(7); return 0; }"
        program = compile_source(source, config=CompileConfig(scheme="none"))
        with pytest.raises(MeasurementError):
            measure(program, "f", [])

    def test_format_table_alignment(self):
        from repro.bench import format_table

        text = format_table("T", ["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text
