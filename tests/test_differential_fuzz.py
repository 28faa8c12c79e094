"""Differential fuzzing: random MiniC expressions vs a Python oracle.

Random arithmetic expression trees are rendered to MiniC, compiled through
the *full* pipeline (all three protection schemes), executed on the
simulator, and compared against direct Python evaluation with 32-bit
wrapping semantics.  This exercises ISel, register allocation, constant
hoisting, frame lowering and the CFI machinery across arbitrary shapes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic import compile_source
from repro.toolchain import CompileConfig

MASK = 0xFFFFFFFF

#: (MiniC operator, oracle) — division/remainder handled separately to
#: avoid division by zero.
OPS = [
    ("+", lambda a, b: (a + b) & MASK),
    ("-", lambda a, b: (a - b) & MASK),
    ("*", lambda a, b: (a * b) & MASK),
    ("&", lambda a, b: a & b),
    ("|", lambda a, b: a | b),
    ("^", lambda a, b: a ^ b),
    ("<<", lambda a, b: (a << (b & 31)) & MASK),
    (">>", lambda a, b: a >> (b & 31)),
]


@st.composite
def expr_trees(draw, depth=0):
    """Returns (minic_text, oracle_fn taking (a, b))."""
    if depth >= 3 or draw(st.booleans()) and depth > 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return "a", lambda a, b: a
        if choice == 1:
            return "b", lambda a, b: b
        value = draw(st.integers(0, 0xFFFF))
        return str(value), lambda a, b, v=value: v
    op_text, op_fn = draw(st.sampled_from(OPS))
    left_text, left_fn = draw(expr_trees(depth=depth + 1))
    right_text, right_fn = draw(expr_trees(depth=depth + 1))
    if op_text == "<<" or op_text == ">>":
        # Keep shifts in range the oracle models (MiniC masks to 5 bits).
        right_text, right_fn = str(draw(st.integers(0, 31))), None
        amount = int(right_text)
        return (
            f"({left_text} {op_text} {amount})",
            lambda a, b, f=left_fn, o=op_fn, amt=amount: o(f(a, b), amt),
        )
    return (
        f"({left_text} {op_text} {right_text})",
        lambda a, b, lf=left_fn, rf=right_fn, o=op_fn: o(lf(a, b), rf(a, b)),
    )


class TestExpressionFuzz:
    @given(expr_trees(), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=30, deadline=None)
    def test_compiled_expression_matches_oracle(self, tree, a, b):
        text, oracle = tree
        source = f"u32 f(u32 a, u32 b) {{ return {text}; }}"
        program = compile_source(source, config=CompileConfig(scheme="none"))
        expected = oracle(a, b) & MASK
        assert program.run("f", [a, b]).exit_code == expected

    @given(
        st.lists(st.sampled_from(["a", "b", "3", "17", "255"]), min_size=1, max_size=4),
        st.lists(st.sampled_from(["a", "b", "5", "40", "1000"]), min_size=1, max_size=4),
        st.integers(0, 1000),
        st.integers(0, 1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_protected_branch_on_fuzzed_condition(self, lterms, rterms, a, b):
        # Sums of small terms keep every value inside the AN functional
        # range (< 2^16), where the encoded and plain semantics coincide
        # (the paper: "AN-codes limit the functional value").
        left_text = " + ".join(lterms)
        right_text = " + ".join(rterms)
        source = (
            "protect u32 f(u32 a, u32 b) { "
            f"if ({left_text} < {right_text}) {{ return 1; }} return 0; }}"
        )
        program = compile_source(source, config=CompileConfig(scheme="ancode"))
        env = {"a": a, "b": b}
        lv = sum(env.get(t, 0) if t in env else int(t) for t in lterms)
        rv = sum(env.get(t, 0) if t in env else int(t) for t in rterms)
        expected = 1 if lv < rv else 0
        result = program.run("f", [a, b])
        assert result.status.value == "exit"
        assert result.exit_code == expected

    def test_signed_window_semantics_documented(self):
        # Inherent property of the encoded comparison: when an intermediate
        # of the protected slice goes negative (wraps), the AN domain keeps
        # the *signed* value (closure under subtraction), so the comparison
        # follows signed semantics while plain u32 code follows unsigned.
        # The paper's range restriction ("functional value less than A")
        # excludes such programs; the compiler keeps them semantically
        # signed rather than failing.
        source = (
            "protect u32 f(u32 a, u32 b) { "
            "if (a - b < 100) { return 1; } return 0; }"
        )
        protected = compile_source(source, config=CompileConfig(scheme="ancode"))
        plain = compile_source(source, config=CompileConfig(scheme="none"))
        # a - b = -5: unsigned 0xFFFFFFFB (not < 100); signed -5 (< 100).
        assert plain.run("f", [5, 10]).exit_code == 0
        assert protected.run("f", [5, 10]).exit_code == 1

    def test_out_of_range_values_trip_cfi_not_silence(self):
        # Values beyond the functional range overflow the encoding; the
        # resulting condition symbol is invalid and the CFI monitor flags
        # it — a loud failure, never a silent wrong branch.
        source = (
            "protect u32 f(u32 a, u32 b) { "
            "if (a < b) { return 1; } return 0; }"
        )
        program = compile_source(source, config=CompileConfig(scheme="ancode"))
        result = program.run("f", [70000, 0x40000000])
        assert result.status.value in ("cfi-violation", "exit")
        if result.status.value == "exit":
            assert result.exit_code == 1

    @given(st.integers(0, 500), st.integers(1, 500))
    @settings(max_examples=10, deadline=None)
    def test_division_chain(self, a, b):
        source = "u32 f(u32 a, u32 b) { return (a / b) * b + a % b; }"
        program = compile_source(source, config=CompileConfig(scheme="none"))
        assert program.run("f", [a, b]).exit_code == a

    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_array_sum_loop_all_schemes(self, values):
        decl = f"u32 data[{len(values)}];"
        stores = " ".join(f"data[{i}] = {v};" for i, v in enumerate(values))
        source = f"""
        protect u32 f() {{
            {decl}
            {stores}
            u32 total = 0;
            for (u32 i = 0; i < {len(values)}; i += 1) {{ total += data[i]; }}
            return total;
        }}
        """
        expected = sum(values) & MASK
        for scheme in ("none", "duplication", "ancode"):
            program = compile_source(source, config=CompileConfig(scheme=scheme))
            assert program.run("f", []).exit_code == expected, scheme


# ---------------------------------------------------------------------------
# Control-flow skeleton fuzz: dispatch-tier and engine differential oracle
# ---------------------------------------------------------------------------
# Random programs made of the shapes that stress the superblock trace
# compiler — nested ifs (side exits), bounded loops (back edges and trace
# re-entry), early returns (mid-trace exits) — are run on every dispatch
# tier and under a single-fault campaign on both engines (the
# trace-compiled fork engine and the reference oracle).  There is no
# Python oracle here: the engines *are* each other's oracle, and any
# mismatch is a reproducible seed.
#
# Every skeleton runs on both machine targets: per-target the engines
# are each other's oracle, and across targets the unprotected scheme is
# its own metamorphic oracle (functional semantics are target-invariant
# even though codegen, cycle counts and fault surfaces are not).
#
# Repro recipe for a failing seed N:
#
#     PYTHONPATH=src:. python -c \
#         "from tests.test_differential_fuzz import reproduce_cfg_seed; \
#          reproduce_cfg_seed(N, target='rv32')"
#
# which reprints the generated MiniC source and re-runs both comparisons.

import random

from repro.faults.isa_campaign import run_attack
from repro.faults.models import BranchDirectionFlip, InstructionSkip

CFG_SEEDS = range(10)
CFG_SCHEMES = ("none", "ancode")
FUZZ_TARGETS = ("baseline", "rv32")
_ENGINE_TIERS = ("reference", "superblock")
_CMPS = ("<", "<=", "==", "!=", ">", ">=")


def _rand_expr(rng, names):
    parts = [
        rng.choice(names) if rng.random() < 0.5 else str(rng.randint(0, 255))
        for _ in range(rng.randint(1, 3))
    ]
    return " + ".join(parts)


def _rand_cond(rng, names):
    return f"{_rand_expr(rng, names)} {rng.choice(_CMPS)} {_rand_expr(rng, names)}"


def _rand_block(rng, names, depth, budget, loop_id):
    stmts = []
    for _ in range(rng.randint(1, 3)):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        kind = rng.random()
        if kind < 0.40 or depth >= 3:
            op = rng.choice(("+=", "^=", "-=", "|="))
            stmts.append(f"acc {op} {_rand_expr(rng, names)};")
        elif kind < 0.62:
            then = _rand_block(rng, names, depth + 1, budget, loop_id)
            if rng.random() < 0.4:
                other = _rand_block(rng, names, depth + 1, budget, loop_id)
                stmts.append(
                    f"if ({_rand_cond(rng, names)}) {{ {then} }} "
                    f"else {{ {other} }}"
                )
            else:
                stmts.append(f"if ({_rand_cond(rng, names)}) {{ {then} }}")
        elif kind < 0.85:
            var = f"i{loop_id[0]}"
            loop_id[0] += 1
            bound = rng.randint(1, 6)
            body = _rand_block(rng, names + [var], depth + 1, budget, loop_id)
            stmts.append(
                f"for (u32 {var} = 0; {var} < {bound}; {var} += 1) "
                f"{{ {body} }}"
            )
        else:
            stmts.append(
                f"if ({_rand_cond(rng, names)}) "
                f"{{ return acc ^ {rng.randint(0, 0xFFFF)}; }}"
            )
    return " ".join(stmts) or "acc += 1;"


def cfg_source_for_seed(seed: int) -> str:
    """The deterministic random control-flow skeleton for one seed."""
    rng = random.Random(seed)
    body = _rand_block(rng, ["a", "b"], 0, [14], [0])
    return (
        "u32 f(u32 a, u32 b) { u32 acc = 0; "
        f"{body} return acc; }}"
    )


def _cfg_args_for_seed(seed: int):
    rng = random.Random(seed ^ 0x5EED)
    return [rng.randint(0, 300), rng.randint(0, 300)]


def _cfg_compile(source: str, scheme: str, target: str):
    return compile_source(
        source, config=CompileConfig(scheme=scheme, target=target)
    )


def _golden_mismatch(program, args):
    runs = {
        dispatch: program.run("f", args, dispatch=dispatch)
        for dispatch in _ENGINE_TIERS
    }
    baseline = runs["reference"]
    return {d: r for d, r in runs.items() if r != baseline}


def _campaign_tallies(program, args):
    golden = program.trial_scheduler("f", args).golden
    stride = max(1, golden.instructions // 25)
    models = [
        InstructionSkip(i) for i in range(1, golden.instructions + 1, stride)
    ]
    models += [BranchDirectionFlip(n) for n in range(1, 5)]
    tallies = {}
    for engine in ("reference", "fork"):
        result = run_attack(program, "f", args, models, "fuzz", engine=engine)
        tallies[engine] = (result.outcomes, result.trials, result.wrong_codes)
    return tallies


def reproduce_cfg_seed(seed: int, target: str = "baseline") -> None:
    """Reprint and re-check one seed outside pytest (see recipe above)."""
    source = cfg_source_for_seed(seed)
    args = _cfg_args_for_seed(seed)
    print(f"seed {seed}: target={target} args={args}\n{source}")
    for scheme in CFG_SCHEMES:
        program = _cfg_compile(source, scheme, target)
        mismatch = _golden_mismatch(program, args)
        print(f"  {scheme}: golden mismatches: {mismatch or 'none'}")
        tallies = _campaign_tallies(program, args)
        agree = len(set(map(repr, tallies.values()))) == 1
        print(f"  {scheme}: campaign tallies agree: {agree}")
        if not agree:
            for engine, tally in tallies.items():
                print(f"    {engine}: {tally}")


class TestControlFlowFuzz:
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    @pytest.mark.parametrize("seed", CFG_SEEDS)
    def test_three_engine_golden_equivalence(self, seed, target):
        source = cfg_source_for_seed(seed)
        args = _cfg_args_for_seed(seed)
        for scheme in CFG_SCHEMES:
            program = _cfg_compile(source, scheme, target)
            mismatch = _golden_mismatch(program, args)
            assert not mismatch, (
                f"seed {seed} scheme {scheme}: dispatch tiers diverge "
                f"{mismatch}; repro: reproduce_cfg_seed({seed}, "
                f"target={target!r})\n{source}"
            )

    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    @pytest.mark.parametrize("seed", CFG_SEEDS)
    def test_single_fault_campaign_equivalence(self, seed, target):
        source = cfg_source_for_seed(seed)
        args = _cfg_args_for_seed(seed)
        for scheme in CFG_SCHEMES:
            program = _cfg_compile(source, scheme, target)
            tallies = _campaign_tallies(program, args)
            assert tallies["reference"] == tallies["fork"], (
                f"seed {seed} scheme {scheme}: campaign tallies diverge "
                f"{tallies}; repro: reproduce_cfg_seed({seed}, "
                f"target={target!r})\n{source}"
            )

    @pytest.mark.parametrize("seed", CFG_SEEDS)
    def test_cross_target_metamorphic_outcomes(self, seed):
        # Metamorphic relation: the unprotected scheme computes the same
        # function on every target, so (status, exit_code) of the golden
        # run is target-invariant; and because each source-level decision
        # lowers to exactly one conditional branch on both targets
        # (cmp+bcc on baseline, a fused compare-branch on rv32), the
        # branch-indexed fault surface corresponds trial-for-trial — the
        # *outcome class* of flipping the n-th branch decision must agree
        # even though addresses, cycle counts and fire indices all differ.
        source = cfg_source_for_seed(seed)
        args = _cfg_args_for_seed(seed)
        programs = {t: _cfg_compile(source, "none", t) for t in FUZZ_TARGETS}
        goldens = {t: p.run("f", args) for t, p in programs.items()}
        assert (
            len({(g.status.value, g.exit_code) for g in goldens.values()}) == 1
        ), (
            f"seed {seed}: golden outcome differs across targets "
            f"{goldens}; repro: reproduce_cfg_seed({seed}, "
            f"target='rv32')\n{source}"
        )
        models = [BranchDirectionFlip(n) for n in range(1, 5)]
        outcome_rows = {}
        for target, program in programs.items():
            result = run_attack(
                program, "f", args, models, "xtarget", record_trials=True
            )
            outcome_rows[target] = [
                (outcome, exit_code) for _, outcome, exit_code in result.records
            ]
        rows = list(outcome_rows.values())
        assert all(row == rows[0] for row in rows), (
            f"seed {seed}: branch-flip outcome classes diverge across "
            f"targets {outcome_rows}; repro: reproduce_cfg_seed({seed}, "
            f"target='rv32')\n{source}"
        )
