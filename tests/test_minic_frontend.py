"""MiniC front-end tests: lexer, parser, lowering, and compiled semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.interp import Interpreter, TrapError
from repro.isa import Status
from repro.minic import LexError, ParseError, SemanticError, compile_source, parse_to_ir
from repro.minic.lexer import tokenize
from repro.toolchain import CompileConfig


def interp(source, fn, args):
    return Interpreter(parse_to_ir(source)).run(fn, args).value


class TestLexer:
    def test_tokens(self):
        toks = tokenize("u32 f(u32 a) { return a + 0x10; } // c")
        kinds = [t.kind for t in toks]
        assert kinds[0] == "keyword"
        assert "number" in kinds
        assert kinds[-1] == "eof"

    def test_comments_stripped(self):
        toks = tokenize("/* block\ncomment */ u32 x; // line")
        assert [t.text for t in toks[:-1]] == ["u32", "x", ";"]

    def test_line_numbers(self):
        toks = tokenize("u32\nx\n;")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* nope")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("u32 $x;")


class TestParser:
    def test_rejects_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_to_ir("u32 f() { return 1 }")

    def test_rejects_protect_on_global(self):
        with pytest.raises(ParseError):
            parse_to_ir("protect u32 g;")

    def test_precedence(self):
        assert interp("u32 f() { return 2 + 3 * 4; }", "f", []) == 14
        assert interp("u32 f() { return (2 + 3) * 4; }", "f", []) == 20
        assert interp("u32 f() { return 1 << 2 | 1; }", "f", []) == 5

    def test_else_if_chain(self):
        src = """
        u32 f(u32 x) {
            if (x == 0) { return 10; }
            else if (x == 1) { return 20; }
            else { return 30; }
        }
        """
        assert interp(src, "f", [0]) == 10
        assert interp(src, "f", [1]) == 20
        assert interp(src, "f", [9]) == 30


class TestSemantics:
    def test_undefined_variable(self):
        with pytest.raises(SemanticError, match="undefined name"):
            parse_to_ir("u32 f() { return nope; }")

    def test_redefinition(self):
        with pytest.raises(SemanticError, match="redefinition"):
            parse_to_ir("u32 f() { u32 a; u32 a; }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError, match="break outside"):
            parse_to_ir("u32 f() { break; return 0; }")

    def test_too_many_params(self):
        with pytest.raises(SemanticError, match="more than 4"):
            parse_to_ir("u32 f(u32 a, u32 b, u32 c, u32 d, u32 e) { return 0; }")

    def test_assign_to_array_rejected(self):
        with pytest.raises(SemanticError, match="array"):
            parse_to_ir("u32 f() { u32 a[4]; a = 3; return 0; }")

    def test_index_non_pointer(self):
        with pytest.raises(SemanticError, match="non-pointer"):
            parse_to_ir("u32 f(u32 a) { return a[0]; }")


class TestLanguageFeatures:
    def test_locals_and_arithmetic(self):
        src = "u32 f(u32 a, u32 b) { u32 c = a * 2; c += b; return c - 1; }"
        assert interp(src, "f", [5, 3]) == 12

    def test_while_loop(self):
        src = """
        u32 sum(u32 n) {
            u32 total = 0; u32 i = 0;
            while (i < n) { total += i; i += 1; }
            return total;
        }
        """
        assert interp(src, "sum", [10]) == 45

    def test_for_loop_with_break_continue(self):
        src = """
        u32 f(u32 n) {
            u32 acc = 0;
            for (u32 i = 0; i < n; i += 1) {
                if (i == 3) { continue; }
                if (i == 7) { break; }
                acc += i;
            }
            return acc;
        }
        """
        assert interp(src, "f", [100]) == 0 + 1 + 2 + 4 + 5 + 6

    def test_arrays(self):
        src = """
        u32 f(u32 n) {
            u32 a[8];
            for (u32 i = 0; i < 8; i += 1) { a[i] = i * i; }
            return a[n];
        }
        """
        assert interp(src, "f", [5]) == 25

    def test_byte_arrays(self):
        src = """
        u8 table[4] = {10, 20, 250, 255};
        u32 f(u32 i) { return table[i] + 1; }
        """
        assert interp(src, "f", [2]) == 251
        assert interp(src, "f", [3]) == 256  # u8 load zero-extends

    def test_byte_store_truncates(self):
        src = """
        u32 f() {
            u8 b[4];
            b[0] = 0x1FF;
            return b[0];
        }
        """
        assert interp(src, "f", []) == 0xFF

    def test_global_scalar(self):
        src = """
        u32 counter = 5;
        u32 bump(u32 by) { counter += by; return counter; }
        """
        module = parse_to_ir(src)
        it = Interpreter(module)
        assert it.run("bump", [3]).value == 8
        assert it.run("bump", [1]).value == 9

    def test_pointers(self):
        src = """
        u32 sum(u32* data, u32 n) {
            u32 total = 0;
            for (u32 i = 0; i < n; i += 1) { total += data[i]; }
            return total;
        }
        u32 f() {
            u32 a[4];
            a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
            return sum(&a[0], 4);
        }
        """
        assert interp(src, "f", []) == 10

    def test_pointer_arithmetic(self):
        src = """
        u32 f() {
            u32 a[4];
            a[2] = 42;
            u32* p = &a[0];
            return *(p + 2);
        }
        """
        assert interp(src, "f", []) == 42

    def test_short_circuit_and(self):
        # RHS must not be evaluated when LHS is false (division by zero).
        src = "u32 f(u32 a, u32 b) { if (a != 0 && 10 / a > b) { return 1; } return 0; }"
        assert interp(src, "f", [0, 1]) == 0
        assert interp(src, "f", [2, 1]) == 1

    def test_short_circuit_value(self):
        src = "u32 f(u32 a, u32 b) { return a < 5 || b < 5; }"
        assert interp(src, "f", [1, 9]) == 1
        assert interp(src, "f", [9, 9]) == 0

    def test_ternary(self):
        src = "u32 f(u32 a, u32 b) { return a < b ? a : b; }"
        assert interp(src, "f", [3, 9]) == 3
        assert interp(src, "f", [9, 3]) == 3

    def test_unary_ops(self):
        assert interp("u32 f(u32 a) { return -a; }", "f", [1]) == 0xFFFFFFFF
        assert interp("u32 f(u32 a) { return ~a; }", "f", [0]) == 0xFFFFFFFF
        assert interp("u32 f(u32 a) { return !a; }", "f", [0]) == 1
        assert interp("u32 f(u32 a) { return !a; }", "f", [7]) == 0

    def test_recursion(self):
        src = """
        u32 fib(u32 n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        """
        assert interp(src, "fib", [10]) == 55

    def test_trap_builtin(self):
        src = "u32 f(u32 a) { if (a == 0) { __trap(9); } return a; }"
        module = parse_to_ir(src)
        with pytest.raises(TrapError):
            Interpreter(module).run("f", [0])
        assert Interpreter(module).run("f", [5]).value == 5

    def test_protect_attribute(self):
        module = parse_to_ir("protect u32 f(u32 a) { return a; }")
        assert module.get_function("f").is_protected


class TestCompiledEndToEnd:
    """MiniC -> full pipeline -> simulator, against the interpreter oracle."""

    GCD = """
    protect u32 gcd(u32 a, u32 b) {
        while (a != b) {
            if (a > b) { a -= b; } else { b -= a; }
        }
        return a;
    }
    """

    @pytest.mark.parametrize("scheme", ["none", "duplication", "ancode"])
    def test_gcd_all_schemes(self, scheme):
        program = compile_source(self.GCD, config=CompileConfig(scheme=scheme))
        result = program.run("gcd", [12, 18])
        assert result.status is Status.EXIT
        assert result.exit_code == 6

    @given(st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=15, deadline=None)
    def test_gcd_random(self, a, b):
        import math

        program = compile_source(self.GCD, config=CompileConfig(scheme="ancode"))
        assert program.run("gcd", [a, b]).exit_code == math.gcd(a, b)

    def test_compiled_matches_interpreter(self):
        src = """
        protect u32 clamp_sum(u32* data, u32 n, u32 limit) {
            u32 total = 0;
            for (u32 i = 0; i < n; i += 1) {
                total += data[i];
                if (total > limit) { return limit; }
            }
            return total;
        }
        u32 driver(u32 n, u32 limit) {
            u32 a[8];
            for (u32 i = 0; i < 8; i += 1) { a[i] = i + 1; }
            return clamp_sum(&a[0], n, limit);
        }
        """
        module = parse_to_ir(src)
        expected = Interpreter(module).run("driver", [8, 20]).value
        program = compile_source(src, config=CompileConfig(scheme="ancode"))
        assert program.run("driver", [8, 20]).exit_code == expected == 20
        program2 = compile_source(src, config=CompileConfig(scheme="duplication"))
        assert program2.run("driver", [4, 99]).exit_code == 10
