"""Tests for Lower Select/Switch, Loop Decoupler, AN Coder and Duplication.

The load-bearing invariant: protection passes must preserve program
semantics exactly (the interpreter is the oracle), while changing *how* the
decision is computed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtectionParams
from repro.core.an_coder import ANCoderPass
from repro.core.protect import protect_module
from repro.ir import (
    Constant,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    verify_function,
    verify_module,
)
from repro.ir.instructions import BinaryOp, CondBr, ICmp, Phi, Select, Switch
from repro.ir.interp import Interpreter, TrapError
from repro.passes import (
    DuplicationPass,
    lower_selects,
    lower_switches,
    promote_memory_to_registers,
)
from repro.passes.loop_decoupler import decouple_loops, find_natural_loops
from repro.toolchain import CompileConfig

SMALL = st.integers(min_value=0, max_value=1000)


def build_min_function(protected=True):
    module = Module("t")
    func = module.add_function("umin", FunctionType(I32, (I32, I32)), ["a", "b"])
    if protected:
        func.attributes.add("protect_branches")
    b = IRBuilder(func.add_block("entry"))
    a, bb = func.arguments
    cond = b.icmp("ult", a, bb)
    b.ret(b.select(cond, a, bb))
    return module, func


def build_compare_function(predicate, protected=True):
    """u32 f(a,b) { return a <pred> b ? 100 : 200; }"""
    module = Module("t")
    func = module.add_function("cmp", FunctionType(I32, (I32, I32)), ["a", "b"])
    if protected:
        func.attributes.add("protect_branches")
    entry = func.add_block("entry")
    then = func.add_block("then")
    els = func.add_block("else")
    b = IRBuilder(entry)
    cond = b.icmp(predicate, func.arguments[0], func.arguments[1])
    b.condbr(cond, then, els)
    b.position_at_end(then)
    b.ret(Constant(I32, 100))
    b.position_at_end(els)
    b.ret(Constant(I32, 200))
    return module, func


def build_loop_sum(protected=True):
    """sum over i in [0,n): arr-free loop with IV used in body arithmetic."""
    module = Module("t")
    func = module.add_function("sum", FunctionType(I32, (I32,)), ["n"])
    if protected:
        func.attributes.add("protect_branches")
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    exit_ = func.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    cond = b.icmp("ult", i, func.arguments[0])
    b.condbr(cond, body, exit_)
    b.position_at_end(body)
    acc2 = b.add(acc, i)  # body use of the IV (not just the comparison)
    i2 = b.add(i, Constant(I32, 1))
    b.br(header)
    b.position_at_end(exit_)
    b.ret(acc)
    i.add_incoming(Constant(I32, 0), entry)
    i.add_incoming(i2, body)
    acc.add_incoming(Constant(I32, 0), entry)
    acc.add_incoming(acc2, body)
    return module, func


PREDICATES = ["eq", "ne", "ult", "ule", "ugt", "uge"]
ORACLE = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}


class TestLowerSelect:
    def test_select_becomes_branch(self):
        module, func = build_min_function()
        lowered = lower_selects(module)
        assert lowered == 1
        verify_function(func)
        assert not any(isinstance(i, Select) for i in func.instructions())
        assert any(isinstance(i, CondBr) for i in func.instructions())

    def test_semantics_preserved(self):
        module, _ = build_min_function()
        lower_selects(module)
        interp = Interpreter(module)
        assert interp.run("umin", [3, 9]).value == 3
        assert interp.run("umin", [9, 3]).value == 3

    def test_unprotected_functions_skipped_by_default(self):
        module, func = build_min_function(protected=False)
        assert lower_selects(module) == 0
        assert lower_selects(module, only_protected=False) == 1


class TestLowerSwitch:
    def build_switch(self):
        module = Module("t")
        func = module.add_function("sw", FunctionType(I32, (I32,)), ["x"])
        func.attributes.add("protect_branches")
        entry = func.add_block("entry")
        blocks = {v: func.add_block(f"case{v}") for v in (1, 2, 5)}
        default = func.add_block("default")
        b = IRBuilder(entry)
        b.switch(
            func.arguments[0],
            default,
            [(Constant(I32, v), blk) for v, blk in blocks.items()],
        )
        for v, blk in blocks.items():
            b.position_at_end(blk)
            b.ret(Constant(I32, v * 10))
        b.position_at_end(default)
        b.ret(Constant(I32, 999))
        return module, func

    def test_switch_becomes_chain(self):
        module, func = self.build_switch()
        assert lower_switches(module) == 1
        verify_function(func)
        assert not any(isinstance(i, Switch) for i in func.instructions())
        cmps = [i for i in func.instructions() if isinstance(i, ICmp)]
        assert len(cmps) == 3

    @pytest.mark.parametrize("x,expected", [(1, 10), (2, 20), (5, 50), (7, 999)])
    def test_semantics(self, x, expected):
        module, _ = self.build_switch()
        lower_switches(module)
        assert Interpreter(module).run("sw", [x]).value == expected


class TestLoopDecoupler:
    def test_finds_natural_loop(self):
        _, func = build_loop_sum()
        loops = find_natural_loops(func)
        assert len(loops) == 1
        assert loops[0].header.name == "header"

    def test_decouples_shared_iv(self):
        module, func = build_loop_sum()
        assert decouple_loops(module) == 1
        verify_function(func)
        header = func.blocks[1]
        phis = [i for i in header.instructions if isinstance(i, Phi)]
        assert len(phis) == 3  # i, acc, and the comparison clone

    def test_comparison_now_uses_clone(self):
        module, func = build_loop_sum()
        decouple_loops(module)
        cmp = next(i for i in func.instructions() if isinstance(i, ICmp))
        assert isinstance(cmp.lhs, Phi)
        assert cmp.lhs.name.endswith(".cmp")

    def test_semantics_preserved(self):
        module, _ = build_loop_sum()
        decouple_loops(module)
        assert Interpreter(module).run("sum", [10]).value == 45

    def test_pure_comparison_iv_not_decoupled(self):
        # IV only used by the comparison and its own step: nothing to split.
        module = Module("t")
        func = module.add_function("spin", FunctionType(I32, (I32,)), ["n"])
        func.attributes.add("protect_branches")
        entry = func.add_block("entry")
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        i = b.phi(I32, "i")
        cond = b.icmp("ult", i, func.arguments[0])
        b.condbr(cond, body, exit_)
        b.position_at_end(body)
        i2 = b.add(i, Constant(I32, 1))
        b.br(header)
        b.position_at_end(exit_)
        b.ret(Constant(I32, 0))
        i.add_incoming(Constant(I32, 0), entry)
        i.add_incoming(i2, body)
        assert decouple_loops(module) == 0


class TestANCoder:
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_branch_protected(self, predicate):
        module, func = build_compare_function(predicate)
        coder = ANCoderPass()
        assert coder(module) == 1
        verify_function(func)
        branch = next(i for i in func.instructions() if isinstance(i, CondBr))
        assert branch.protected is not None
        assert branch.condition_symbol is not None

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (2, 1), (999, 999), (65535, 1)])
    def test_semantics_preserved(self, predicate, a, b):
        module, _ = build_compare_function(predicate)
        ANCoderPass()(module)
        expected = 100 if ORACLE[predicate](a, b) else 200
        assert Interpreter(module).run("cmp", [a, b]).value == expected

    @given(SMALL, SMALL, st.sampled_from(PREDICATES))
    @settings(max_examples=60, deadline=None)
    def test_semantics_random(self, a, b, predicate):
        module, _ = build_compare_function(predicate)
        ANCoderPass()(module)
        expected = 100 if ORACLE[predicate](a, b) else 200
        assert Interpreter(module).run("cmp", [a, b]).value == expected

    def test_relational_sequence_shape(self):
        # Algorithm 1 lowered to IR: exactly 1 sub, 1 add, 1 urem (Table II).
        module, func = build_compare_function("ult")
        ANCoderPass()(module)
        ops = [i.opcode for i in func.instructions() if isinstance(i, BinaryOp)]
        assert ops.count("sub") == 1
        assert ops.count("urem") == 1
        # adds: 1 for +C; encodes are muls
        assert ops.count("add") == 1
        assert ops.count("mul") == 2  # two operand encodes

    def test_equality_sequence_shape(self):
        # Algorithm 2: 2 subs, 3 adds, 2 urems.
        module, func = build_compare_function("eq")
        ANCoderPass()(module)
        ops = [i.opcode for i in func.instructions() if isinstance(i, BinaryOp)]
        assert ops.count("sub") == 2
        assert ops.count("urem") == 2
        assert ops.count("add") == 3

    def test_add_chain_stays_encoded(self):
        # if (a + b == 10) — the addition must happen in the AN domain.
        module = Module("t")
        func = module.add_function("f", FunctionType(I32, (I32, I32)), ["a", "b"])
        func.attributes.add("protect_branches")
        entry = func.add_block("entry")
        then = func.add_block("then")
        els = func.add_block("else")
        b = IRBuilder(entry)
        s = b.add(func.arguments[0], func.arguments[1])
        cond = b.icmp("eq", s, Constant(I32, 10))
        b.condbr(cond, then, els)
        b.position_at_end(then)
        b.ret(Constant(I32, 1))
        b.position_at_end(els)
        b.ret(Constant(I32, 0))
        ANCoderPass()(module)
        verify_function(func)
        interp = Interpreter(module)
        assert interp.run("f", [4, 6]).value == 1
        assert interp.run("f", [4, 7]).value == 0
        # The encoded add consumes encoded operands; the plain add feeds
        # nothing else and is DCE-able.
        adds = [
            i
            for i in func.instructions()
            if isinstance(i, BinaryOp) and i.opcode == "add" and i.name.endswith(".an")
        ]
        assert len(adds) == 1

    def test_constant_encoded_at_compile_time(self):
        module, func = build_compare_function("eq")
        ANCoderPass()(module)
        consts = [
            op.value
            for i in func.instructions()
            for op in i.operands
            if isinstance(op, Constant)
        ]
        assert 63877 in consts  # A materialised for urem and encodes

    def test_loop_protected_end_to_end(self):
        module, _ = build_loop_sum()
        protect_module(module, config=CompileConfig(scheme="ancode"))
        assert Interpreter(module).run("sum", [10]).value == 45

    def test_unprotected_function_untouched(self):
        module, func = build_compare_function("eq", protected=False)
        assert ANCoderPass()(module) == 0
        branch = next(i for i in func.instructions() if isinstance(i, CondBr))
        assert branch.protected is None

    def test_signed_predicates_skipped(self):
        module, func = build_compare_function("eq")
        # swap in a signed comparison
        cmp = next(i for i in func.instructions() if isinstance(i, ICmp))
        cmp.predicate = "slt"
        assert ANCoderPass()(module) == 0

    def test_custom_params(self):
        from repro.ancode import ANCode

        params = ProtectionParams.derive(ANCode(A=58659, functional_bits=8))
        module, _ = build_compare_function("ult")
        ANCoderPass(params)(module)
        interp = Interpreter(module)
        assert interp.run("cmp", [3, 5]).value == 100
        assert interp.run("cmp", [5, 3]).value == 200


class TestDuplication:
    def test_branch_duplicated(self):
        module, func = build_compare_function("eq")
        dup = DuplicationPass(order=6)
        assert dup(module) == 1
        verify_function(func)
        cmps = [i for i in func.instructions() if isinstance(i, ICmp)]
        # original + 5 rechecks per side = 11
        assert len(cmps) == 11

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2)])
    def test_semantics_preserved(self, a, b):
        module, _ = build_compare_function("eq")
        DuplicationPass(order=6)(module)
        expected = 100 if a == b else 200
        assert Interpreter(module).run("cmp", [a, b]).value == expected

    def test_loop_duplication_semantics(self):
        module, _ = build_loop_sum()
        protect_module(module, config=CompileConfig(scheme="duplication"))
        assert Interpreter(module).run("sum", [10]).value == 45

    def test_order_one_is_noop(self):
        module, func = build_compare_function("eq")
        DuplicationPass(order=1)(module)
        cmps = [i for i in func.instructions() if isinstance(i, ICmp)]
        assert len(cmps) == 1

    def test_fault_block_traps(self):
        # Manually corrupt one duplicated check: must trap, not mis-branch.
        module, func = build_compare_function("eq")
        DuplicationPass(order=3)(module)
        # Flip the predicate of one recheck so it disagrees.
        recheck = next(
            i for i in func.instructions()
            if isinstance(i, ICmp) and i.name.startswith("dupt")
        )
        recheck.predicate = "ne"
        with pytest.raises(TrapError):
            Interpreter(module).run("cmp", [5, 5])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            DuplicationPass(order=0)


class TestProtectFacade:
    @pytest.mark.parametrize("scheme", ["none", "duplication", "ancode"])
    def test_all_schemes_verify(self, scheme):
        module, _ = build_loop_sum()
        stats = protect_module(module, config=CompileConfig(scheme=scheme))
        verify_module(module)
        assert Interpreter(module).run("sum", [5]).value == 10

    def test_unknown_scheme_rejected(self):
        module, _ = build_loop_sum()
        with pytest.raises(ValueError):
            protect_module(module, config=CompileConfig(scheme="tmr"))

    def test_stats_reported(self):
        module, _ = build_compare_function("eq")
        stats = protect_module(module, config=CompileConfig(scheme="ancode"))
        assert stats["an-coder"] == 1
