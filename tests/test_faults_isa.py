"""ISA-level fault campaigns: the paper's security story end-to-end (E6).

The defining experiment: flipping the branch decision —

* CFI-only: the wrong path is a *legal* path; the fault wins silently.
* Duplication: a single flip disagrees with the re-checks -> trap; but
  repeating the flip at every comparison walks through the tree undetected.
* Prototype (AN + CFI linking): the merged condition symbol contradicts the
  taken path's expected symbol -> CFI violation, even for repeated flips.
"""

import pytest

from repro.backend import compile_ir
from repro.faults.classify import Outcome
from repro.faults.isa_campaign import (
    branch_flip_sweep,
    operand_corruption_sweep,
    repeated_branch_flip,
    run_attack,
    skip_sweep,
)
from repro.faults.models import BranchDirectionFlip, InstructionSkip, RegisterBitFlip
from repro.isa import Status
from repro.toolchain import CompileConfig

from tests.test_backend_compile import build_compare_module


def compile_scheme(scheme, pred="eq"):
    return compile_ir(build_compare_module(pred), config=CompileConfig(scheme=scheme))


ARGS_EQUAL = [7, 7]


class TestSingleBranchFlip:
    def test_cfi_only_is_defeated(self):
        # The gap the paper closes: plain CFI cannot see a flipped decision.
        program = compile_scheme("none")
        result = run_attack(
            program, "cmp", ARGS_EQUAL, [BranchDirectionFlip(1)], "flip"
        )
        assert result.outcomes.get(Outcome.WRONG_RESULT, 0) == 1

    def test_duplication_detects_single_flip(self):
        program = compile_scheme("duplication")
        result = run_attack(
            program, "cmp", ARGS_EQUAL, [BranchDirectionFlip(1)], "flip"
        )
        assert result.outcomes.get(Outcome.DETECTED_TRAP, 0) == 1

    def test_prototype_detects_single_flip(self):
        program = compile_scheme("ancode")
        result = run_attack(
            program, "cmp", ARGS_EQUAL, [BranchDirectionFlip(1)], "flip"
        )
        assert result.outcomes.get(Outcome.DETECTED_CFI, 0) == 1

    def test_prototype_detects_flip_both_directions(self):
        program = compile_scheme("ancode")
        for args in ([7, 7], [7, 8]):
            result = run_attack(program, "cmp", args, [BranchDirectionFlip(1)], "flip")
            assert result.outcomes.get(Outcome.DETECTED_CFI, 0) == 1, args


class TestRepeatedBranchFlip:
    """Repeating the same fault: duplication's documented weakness."""

    def test_duplication_is_defeated(self):
        program = compile_scheme("duplication")
        result = repeated_branch_flip(program, "cmp", ARGS_EQUAL)
        assert result.undetected_wrong == 1

    def test_prototype_survives(self):
        program = compile_scheme("ancode")
        result = repeated_branch_flip(program, "cmp", ARGS_EQUAL)
        assert result.outcomes.get(Outcome.DETECTED_CFI, 0) == 1
        assert result.undetected_wrong == 0


class TestInstructionSkips:
    @pytest.mark.parametrize("scheme", ["none", "duplication", "ancode"])
    def test_no_silent_wrong_results_with_cfi(self, scheme):
        # Instruction-granular CFI catches skips: a skipped instruction's
        # signature is missing from the state.  Whatever the scheme, a skip
        # must never yield a silently wrong result.
        program = compile_scheme(scheme)
        result = skip_sweep(program, "cmp", ARGS_EQUAL)
        assert result.undetected_wrong == 0
        assert result.outcomes.get(Outcome.DETECTED_CFI, 0) >= result.trials // 2

    def test_skips_without_cfi_can_win(self):
        # Sanity check of the threat model: without CFI some skip leads to
        # a wrong result or at least executes to completion un-flagged.
        program = compile_ir(
            build_compare_module("eq"),
            config=CompileConfig(scheme="none", cfi=False),
        )
        result = skip_sweep(program, "cmp", [7, 8])
        assert result.outcomes.get(Outcome.DETECTED_CFI, 0) == 0


class TestOperandCorruption:
    def test_paper_mode_has_operand_fault_window(self):
        # Faithful reproduction of the published Algorithm 2: a bit-16 flip
        # on an *encoded* operand (2^16 - A = 1659 < C) forges the EQUAL
        # symbol for adjacent inputs.  The paper's threat split delegates
        # operand integrity to the data-protection scheme; this measures
        # what happens without it.
        from repro.faults.isa_campaign import encoded_window

        program = compile_scheme("ancode")
        args = [7, 8]
        window = encoded_window(program, "cmp", args)
        result = operand_corruption_sweep(
            program, "cmp", args, bits=(0, 7, 16, 31), window=window
        )
        assert any(code == 100 for code in result.wrong_codes)

    def test_operand_checks_extension_closes_the_window(self):
        # With the operand residue-check extension, no register flip in the
        # comparison window forges the "equal" outcome.
        from repro.faults.isa_campaign import encoded_window

        program = compile_ir(
            build_compare_module("eq"),
            config=CompileConfig(scheme="ancode", operand_checks=True),
        )
        args = [7, 8]
        window = encoded_window(program, "cmp", args)
        result = operand_corruption_sweep(
            program, "cmp", args, bits=(0, 7, 16, 31), window=window
        )
        assert all(code != 100 for code in result.wrong_codes)
        assert result.outcomes.get(Outcome.DETECTED_CFI, 0) >= 1

    def test_operand_checks_preserve_semantics(self):
        program = compile_ir(
            build_compare_module("eq"),
            config=CompileConfig(scheme="ancode", operand_checks=True),
        )
        assert program.run("cmp", [5, 5]).exit_code == 100
        assert program.run("cmp", [5, 6]).exit_code == 200

    def test_prototype_equal_inputs_fail_safe(self):
        # Equal inputs: surviving wrong results may only be fail-safe
        # denials (exit 200), mirroring Algorithm 2's remainder-sum
        # structure; plenty of flips are flagged by the CFI monitor.
        from repro.faults.isa_campaign import encoded_window

        program = compile_scheme("ancode")
        window = encoded_window(program, "cmp", ARGS_EQUAL)
        result = operand_corruption_sweep(
            program, "cmp", ARGS_EQUAL, bits=(0, 7, 16, 31), window=window
        )
        assert all(code == 200 for code in result.wrong_codes)
        assert result.outcomes.get(Outcome.DETECTED_CFI, 0) >= 1

    def test_prototype_relational_post_encode_faults_all_detected(self):
        # Relational compare, strictly after the encodes: every register
        # flip that changes behaviour must be detected (no valid-but-wrong
        # symbol is reachable with one bit).
        from repro.faults.isa_campaign import encoded_window

        program = compile_scheme("ancode", pred="ult")
        args = [3, 9]
        window = encoded_window(program, "cmp", args, after_encodes=True)
        result = operand_corruption_sweep(
            program, "cmp", args, bits=(0, 7, 16, 31), window=window
        )
        assert result.undetected_wrong == 0

    def test_cfi_only_vulnerable_to_operand_faults(self):
        program = compile_scheme("none")
        result = operand_corruption_sweep(
            program, "cmp", ARGS_EQUAL, occurrence=3
        )
        # At least one register flip changes the comparison outcome without
        # any detection (the unprotected data path).
        assert result.undetected_wrong >= 1


class TestBranchFlipSweep:
    def test_prototype_never_loses_branch_flips(self):
        program = compile_scheme("ancode")
        result = branch_flip_sweep(program, "cmp", ARGS_EQUAL, max_branches=8)
        assert result.undetected_wrong == 0
