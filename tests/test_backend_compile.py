"""End-to-end back-end tests: IR -> machine code -> simulator.

The oracle is the IR interpreter: every program is compiled under all three
schemes (CFI-only, duplication, prototype) and must produce identical
results on the CPU.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import compile_ir
from repro.ir import (
    Constant,
    FunctionType,
    GlobalVariable,
    I8,
    I32,
    IRBuilder,
    Module,
)
from repro.ir.interp import Interpreter
from repro.isa import Status
from repro.toolchain import CompileConfig

SMALL = st.integers(min_value=0, max_value=60000)
SCHEMES = ["none", "duplication", "ancode"]


def build_compare_module(predicate="eq"):
    module = Module("t")
    func = module.add_function("cmp", FunctionType(I32, (I32, I32)), ["a", "b"])
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
    return module


def build_loop_sum_module():
    module = Module("t")
    func = module.add_function("sum", FunctionType(I32, (I32,)), ["n"])
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
    acc2 = b.add(acc, i)
    i2 = b.add(i, Constant(I32, 1))
    b.br(header)
    b.position_at_end(exit_)
    b.ret(acc)
    i.add_incoming(Constant(I32, 0), entry)
    i.add_incoming(i2, body)
    acc.add_incoming(Constant(I32, 0), entry)
    acc.add_incoming(acc2, body)
    return module


def build_memcmp_module(n=16):
    """Secure memory compare of two global arrays (the paper's benchmark)."""
    module = Module("t")
    a = module.add_global(GlobalVariable.from_words("arr_a", list(range(n))))
    bg = module.add_global(GlobalVariable.from_words("arr_b", list(range(n))))
    func = module.add_function("memcmp32", FunctionType(I32, (I32,)), ["len"])
    func.attributes.add("protect_branches")
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    differ = func.add_block("differ")
    cont = func.add_block("cont")
    exit_eq = func.add_block("exit_eq")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I32, "i")
    in_range = b.icmp("ult", i, func.arguments[0])
    b.condbr(in_range, body, exit_eq)
    b.position_at_end(body)
    off = b.mul(i, Constant(I32, 4))
    va = b.load(I32, b.ptradd(a, off))
    vb = b.load(I32, b.ptradd(bg, off))
    same = b.icmp("eq", va, vb)
    b.condbr(same, cont, differ)
    b.position_at_end(cont)
    i2 = b.add(i, Constant(I32, 1))
    b.br(header)
    b.position_at_end(differ)
    b.ret(Constant(I32, 0))
    b.position_at_end(exit_eq)
    b.ret(Constant(I32, 1))
    i.add_incoming(Constant(I32, 0), entry)
    i.add_incoming(i2, cont)
    return module


def build_call_module():
    module = Module("t")
    callee = module.add_function("addmul", FunctionType(I32, (I32, I32)), ["x", "y"])
    b = IRBuilder(callee.add_block("entry"))
    s = b.add(callee.arguments[0], callee.arguments[1])
    b.ret(b.mul(s, Constant(I32, 3)))
    caller = module.add_function("main", FunctionType(I32, (I32,)), ["n"])
    b = IRBuilder(caller.add_block("entry"))
    r1 = b.call(callee, [caller.arguments[0], Constant(I32, 5)])
    r2 = b.call(callee, [r1, Constant(I32, 1)])
    b.ret(r2)
    return module


class TestBasicCompilation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (500, 499)])
    def test_compare_matches_interpreter(self, scheme, a, b):
        module = build_compare_module("eq")
        expected = Interpreter(module).run("cmp", [a, b]).value
        program = compile_ir(
            build_compare_module("eq"),
            config=CompileConfig(scheme=scheme),
        )
        result = program.run("cmp", [a, b])
        assert result.status is Status.EXIT
        assert result.exit_code == expected

    @pytest.mark.parametrize("pred", ["eq", "ne", "ult", "ule", "ugt", "uge"])
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (2, 1)])
    def test_all_predicates_protected(self, pred, a, b):
        program = compile_ir(
            build_compare_module(pred),
            config=CompileConfig(scheme="ancode"),
        )
        oracle = {"eq": a == b, "ne": a != b, "ult": a < b,
                  "ule": a <= b, "ugt": a > b, "uge": a >= b}[pred]
        assert program.run("cmp", [a, b]).exit_code == (100 if oracle else 200)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_loop_sum(self, scheme):
        program = compile_ir(
            build_loop_sum_module(),
            config=CompileConfig(scheme=scheme),
        )
        result = program.run("sum", [10])
        assert result.status is Status.EXIT
        assert result.exit_code == 45

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_memcmp_equal(self, scheme):
        program = compile_ir(build_memcmp_module(), config=CompileConfig(scheme=scheme))
        assert program.run("memcmp32", [16]).exit_code == 1

    def test_memcmp_differs(self):
        module = build_memcmp_module()
        # poke a difference into arr_b
        module.globals["arr_b"].initializer = (
            module.globals["arr_b"].initializer[:4]
            + b"\xff"
            + module.globals["arr_b"].initializer[5:]
        )
        program = compile_ir(module, config=CompileConfig(scheme="ancode"))
        assert program.run("memcmp32", [16]).exit_code == 0

    @pytest.mark.parametrize("cfi", [True, False])
    def test_calls(self, cfi):
        program = compile_ir(
            build_call_module(),
            config=CompileConfig(scheme="none", cfi=cfi),
        )
        assert program.run("main", [2]).exit_code == ((2 + 5) * 3 + 1) * 3

    def test_cfi_disabled_compiles_protected(self):
        program = compile_ir(
            build_compare_module(),
            config=CompileConfig(scheme="ancode", cfi=False),
        )
        assert program.run("cmp", [3, 3]).exit_code == 100

    @given(SMALL, SMALL)
    @settings(max_examples=25, deadline=None)
    def test_random_compares_prototype(self, a, b):
        program = compile_ir(
            build_compare_module("ule"),
            config=CompileConfig(scheme="ancode"),
        )
        assert program.run("cmp", [a, b]).exit_code == (100 if a <= b else 200)


class TestCodeShape:
    def test_protected_relational_uses_udiv_mls(self):
        from repro.isa.disasm import instruction_histogram

        program = compile_ir(
            build_compare_module("ult"),
            config=CompileConfig(scheme="ancode"),
        )
        hist = instruction_histogram(program.image, "cmp")
        assert hist.get("udiv", 0) == 1
        assert hist.get("mls", 0) == 1

    def test_protected_equality_uses_two_udiv(self):
        from repro.isa.disasm import instruction_histogram

        program = compile_ir(
            build_compare_module("eq"),
            config=CompileConfig(scheme="ancode"),
        )
        hist = instruction_histogram(program.image, "cmp")
        assert hist.get("udiv", 0) == 2
        assert hist.get("mls", 0) == 2

    def test_duplication_replicates_compares(self):
        from repro.isa.disasm import instruction_histogram

        base = instruction_histogram(
            compile_ir(
                build_compare_module(),
                config=CompileConfig(scheme="none"),
            ).image, "cmp"
        )
        dup = instruction_histogram(
            compile_ir(
                build_compare_module(),
                config=CompileConfig(scheme="duplication"),
            ).image, "cmp"
        )
        assert dup.get("cmp", 0) >= base.get("cmp", 0) + 10

    def test_scheme_size_ordering(self):
        # CFI-only must be smallest; duplication and prototype larger.
        sizes = {
            scheme: compile_ir(
                build_compare_module(),
                config=CompileConfig(scheme=scheme),
            ).size_of("cmp")
            for scheme in SCHEMES
        }
        assert sizes["none"] < sizes["duplication"]
        assert sizes["none"] < sizes["ancode"]

    def test_hw_modulo_shrinks_prototype(self):
        normal = compile_ir(
            build_compare_module("ult"),
            config=CompileConfig(scheme="ancode"),
        )
        hw = compile_ir(
            build_compare_module("ult"),
            config=CompileConfig(scheme="ancode", hw_modulo=True),
        )
        assert hw.size_of("cmp") < normal.size_of("cmp")
        from repro.isa.disasm import instruction_histogram

        hist = instruction_histogram(hw.image, "cmp")
        assert hist.get("umod", 0) == 1
        assert hist.get("udiv", 0) == 0


class TestCFIRuntime:
    def test_clean_run_passes_checks(self):
        program = compile_ir(
            build_loop_sum_module(),
            config=CompileConfig(scheme="ancode"),
        )
        cpu = program.prepare_cpu("sum", [5])
        result = cpu.run()
        assert result.status is Status.EXIT
        monitor = cpu.retire_hooks[0].__self__
        assert monitor.violations == 0
        assert monitor.checks_passed >= 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_checks_pass_all_schemes(self, scheme, n):
        program = compile_ir(
            build_loop_sum_module(),
            config=CompileConfig(scheme=scheme),
        )
        result = program.run("sum", [n])
        assert result.status is Status.EXIT
        assert result.exit_code == n * (n - 1) // 2

    def test_memcmp_many_iterations_checks_pass(self):
        program = compile_ir(
            build_memcmp_module(),
            config=CompileConfig(scheme="ancode"),
        )
        cpu = program.prepare_cpu("memcmp32", [16])
        result = cpu.run()
        assert result.status is Status.EXIT

    def test_calls_with_cfi(self):
        program = compile_ir(
            build_call_module(),
            config=CompileConfig(scheme="none", cfi=True),
        )
        cpu = program.prepare_cpu("main", [2])
        result = cpu.run()
        assert result.status is Status.EXIT
        monitor = cpu.retire_hooks[0].__self__
        assert monitor.violations == 0
