"""Evaluator, size counter, and the two renderers."""

import gc
import re
import time
import tracemalloc
from statistics import median

import pytest

from exprdag.dag import build_dag
from exprdag.generators import mul, mul_shared
from exprdag.interp import (
    Evaluator,
    LetPrinter,
    SizeBuilder,
    UnboundVariableError,
    evaluate,
    print_flat,
    print_let,
    size,
)
from exprdag.parser import parse

import helpers


class CountingEnv(dict):
    lookups = 0

    def __getitem__(self, name):
        self.lookups += 1
        return super().__getitem__(name)


def exp_a(b):
    return b.add(b.constant(10), b.variable("i1"))


def exp_mul4(b):
    return mul(b, 4, b.variable("i1"))


def exp_mul4_shared(b):
    return b.let_(b.variable("i1"), lambda x: b.let_(b.add(x, x), lambda y: b.add(y, y)))


class TestEvaluate:
    def test_constant(self):
        assert evaluate(lambda b: b.constant(7), {}) == 7

    def test_variable_lookup(self):
        assert evaluate(lambda b: b.variable("i1"), {"i1": 5}) == 5

    def test_unbound_variable_is_named_in_the_error(self):
        with pytest.raises(UnboundVariableError) as err:
            evaluate(lambda b: b.variable("x"), {})
        assert err.value.name == "x"
        assert "x" in str(err.value)

    @pytest.mark.parametrize("value", [1.5, "1", True, None])
    def test_a_non_int_value_is_a_type_error_naming_the_variable(self, value):
        program = lambda b: b.add(b.variable("x"), b.constant(1))
        with pytest.raises(TypeError, match=f"value of x must be an int, not {type(value).__name__}"):
            evaluate(program, {"x": value})

    def test_mul4(self):
        assert evaluate(exp_mul4, {"i1": 5}) == 20

    def test_mul4_with_explicit_sharing(self):
        assert evaluate(exp_mul4_shared, {"i1": 5}) == 20

    def test_two_level_add(self):
        program = lambda b: b.add(exp_a(b), b.variable("i2"))
        assert evaluate(program, {"i1": 2, "i2": 3}) == 15

    def test_sub_of_equal_terms(self):
        assert evaluate(lambda b: b.sub(b.constant(5), b.constant(5)), {}) == 0

    def test_neg(self):
        assert evaluate(lambda b: b.neg(b.variable("x")), {"x": 9}) == -9

    def test_let_is_flipped_application(self):
        program = lambda b: b.let_(
            b.add(b.variable("i1"), b.variable("i1")), lambda y: b.add(y, y)
        )
        assert evaluate(program, {"i1": 5}) == 20

    def test_let_identity_body(self):
        program = lambda b: b.let_(b.constant(42), lambda y: y)
        assert evaluate(program, {}) == 42

    def test_let_unused_binding(self):
        program = lambda b: b.let_(b.variable("x"), lambda _y: b.constant(3))
        assert evaluate(program, {"x": 1}) == 3

    def test_let_evaluates_its_bound_term_once(self):
        def doublings(b, term, depth):
            if depth == 0:
                return term
            return b.let_(b.add(term, term), lambda t: doublings(b, t, depth - 1))

        env = CountingEnv(x=3)
        program = lambda b: b.let_(b.variable("x"), lambda t: doublings(b, t, 20))
        assert evaluate(program, env) == 3 * 2**20
        assert env.lookups == 1

    def test_an_aliased_unshared_term_is_computed_once(self):
        # A host alias shares the value: the 2**16 leaves of the expanded
        # tree are one variable term, looked up once.
        env = CountingEnv(x=3)
        assert evaluate(lambda b: mul(b, 2**16, b.variable("x")), env) == 3 * 2**16
        assert env.lookups == 1

    def test_a_term_built_but_not_returned_is_still_evaluated(self):
        with pytest.raises(UnboundVariableError) as err:
            evaluate(lambda b: [b.variable("z"), b.constant(1)][1], {})
        assert err.value.name == "z"

    @pytest.mark.parametrize("result", [(), 1.5, True, None])
    def test_a_result_that_is_not_an_int_is_refused(self, result):
        message = f"^not an expression tree: {re.escape(repr(result))}$"
        with pytest.raises(TypeError, match=message):
            evaluate(lambda b: result, {})

    def test_values_wrap_at_64_bits(self):
        # Each step wraps to signed 64 bits, in a host program and through
        # the fused walk of a parsed one.
        top, low = (1 << 63) - 1, -(1 << 63)
        cases = [
            ("x + 1", lambda b: b.add(b.variable("x"), b.constant(1)), {"x": top}, low),
            ("-x", lambda b: b.neg(b.variable("x")), {"x": low}, low),
            ("x - 1", lambda b: b.sub(b.variable("x"), b.constant(1)), {"x": low}, top),
            ("x", lambda b: b.variable("x"), {"x": 3 * (1 << 64) + top}, top),
            ("x - y", lambda b: b.sub(b.variable("x"), b.variable("y")), {"x": 1, "y": 1 << 65}, 1),
        ]
        for text, host, env, value in cases:
            assert evaluate(host, env) == value, text
            assert evaluate(helpers.program_of(parse(text)), env) == value, text


class TestSize:
    def test_single_constant(self):
        assert size(lambda b: b.constant(0)) == 1
        assert size(lambda b: b.constant(1)) == 1

    def test_mul4_counts_the_whole_tree(self):
        assert size(exp_mul4) == 7

    def test_shared_subterms_count_once(self):
        assert size(exp_mul4_shared) == 3

    def test_neg_sub(self):
        assert size(lambda b: b.neg(b.sub(b.variable("x"), b.constant(1)))) == 4

    @pytest.mark.parametrize("result", [(), 1.5, True, None])
    def test_a_result_that_is_not_an_int_is_refused(self, result):
        with pytest.raises(TypeError, match="not an expression tree"):
            size(lambda b: result)


class TestPrintFlat:
    def test_mul4(self):
        assert print_flat(exp_mul4) == "i1 + i1 + i1 + i1"

    def test_constant(self):
        assert print_flat(lambda b: b.constant(10)) == "10"

    def test_two_leaf_add(self):
        assert print_flat(exp_a) == "10 + i1"

    @pytest.mark.parametrize(
        "program, text",
        [
            (lambda b: b.sub(b.neg(b.variable("x")), b.add(b.variable("y"), b.constant(1))), "-x - y + 1"),
            (
                lambda b: b.sub(
                    b.neg(b.add(b.variable("x"), b.constant(1))),
                    b.sub(b.variable("y"), b.neg(b.variable("z"))),
                ),
                "-x + 1 - y - -z",
            ),
        ],
        ids=["neg-leaf", "neg-sum"],
    )
    def test_neg_and_sub_have_no_parens(self, program, text):
        assert print_flat(program) == print_let(program).replace("(", "").replace(")", "") == text

    def test_shared_subterms_print_again_at_every_use(self):
        assert print_flat(lambda b: mul_shared(b, 4, b.variable("i1"))) == "i1 + i1 + i1 + i1"


class TestPrintLet:
    def test_let_free_program_prints_flat(self):
        assert print_let(exp_mul4) == "i1 + i1 + i1 + i1"

    def test_nested_sharing(self):
        assert print_let(exp_mul4_shared) == "let v0 = i1 in let v1 = v0 + v0 in v1 + v1"

    def test_mul_shared_15(self):
        expected = (
            "i + let v0 = i in v0 + v0 + "
            "let v1 = v0 + v0 in v1 + v1 + let v2 = v1 + v1 in v2 + v2"
        )
        assert print_let(lambda b: mul_shared(b, 15, b.variable("i"))) == expected

    def test_sibling_lets_get_distinct_names(self):
        def program(b):
            first = b.let_(b.constant(1), lambda t: b.add(t, t))
            second = b.let_(b.constant(2), lambda t: b.add(t, t))
            return b.add(first, second)

        assert print_let(program) == "let v0 = 1 in v0 + v0 + let v1 = 2 in v1 + v1"

    def test_let_bound_to_a_let_is_bracketed_and_numbered_inside_out(self):
        def program(b):
            inner = b.let_(b.variable("x"), lambda t: b.add(t, t))
            return b.let_(inner, lambda u: b.add(u, u))

        assert print_let(program) == "let v1 = (let v0 = x in v0 + v0) in v1 + v1"

    def test_neg_of_a_compound_is_bracketed(self):
        program = lambda b: b.neg(b.add(b.variable("x"), b.variable("y")))
        assert print_let(program) == "-(x + y)"
        program = lambda b: b.neg(b.let_(b.variable("y"), lambda t: b.add(t, t)))
        assert print_let(program) == "-(let v0 = y in v0 + v0)"

    def test_neg_of_an_atom_is_bare(self):
        assert print_let(lambda b: b.neg(b.variable("x"))) == "-x"

    def test_sub_right_compound_is_bracketed(self):
        program = lambda b: b.sub(b.variable("x"), b.sub(b.variable("y"), b.variable("z")))
        assert print_let(program) == "x - (y - z)"
        program = lambda b: b.sub(
            b.variable("x"), b.let_(b.variable("y"), lambda t: b.add(t, t))
        )
        assert print_let(program) == "x - (let v0 = y in v0 + v0)"

    def test_sub_left_stays_bare(self):
        program = lambda b: b.sub(b.add(b.variable("x"), b.variable("y")), b.variable("z"))
        assert print_let(program) == "x + y - z"

    def test_binders_skip_free_variable_names(self):
        program = lambda b: b.let_(b.variable("y"), lambda a: b.add(a, b.variable("v0")))
        assert print_let(program) == "let v1 = y in v1 + v0"

    def test_rendering_twice_restarts_the_numbering(self):
        program = exp_mul4_shared
        assert print_let(program) == print_let(program)

    def test_a_let_term_aliased_twice_draws_two_binder_names(self):
        def program(b):
            shared = b.let_(b.variable("x"), lambda v: b.add(v, v))
            return b.add(shared, shared)

        assert print_let(program) == "let v0 = x in v0 + v0 + let v1 = x in v1 + v1"

    @pytest.mark.parametrize(
        "free, text, runs",
        [("v0", "let v1 = x in v1 + v0", 2), ("y", "let v0 = x in v0 + y", 1)],
        ids=["binder-meets-v0", "no-clash"],
    )
    def test_a_host_let_body_runs_once_per_rendering(self, free, text, runs):
        # v0 is found only when the body runs, after v0 was drawn as the
        # binder, so print_let renders a second time with v0 known.
        calls = []

        def program(b):
            def body(v):
                calls.append(v)
                return b.add(v, b.variable(free))

            return b.let_(b.variable("x"), body)

        assert print_let(program) == text
        assert len(calls) == runs

    def test_a_second_rendering_is_the_last(self):
        # The body names a free variable after how often it has run, so every
        # rendering's binder meets a name found later in it, and the second
        # rendering's text would let binder v1 capture the free v1.
        calls = []

        def program(b):
            def body(v):
                calls.append(v)
                if len(calls) > 3:
                    raise AssertionError("print_let rendered a third time")
                return b.add(v, b.variable(f"v{len(calls) - 1}"))

            return b.let_(b.variable("x"), body)

        with pytest.raises(ValueError, match="^binder v1 would capture a free variable"):
            print_let(program)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "node",
        [
            ("var", "y"),
            ("let", "a", ("var", "y"), ("var", "a")),
            ("const", 3),
            ("neg", ("const", 3)),
        ],
        ids=["var", "let", "const", "neg-const"],
    )
    def test_a_tree_node_in_a_host_term_is_refused(self, node):
        # As evaluate, size and build_dag refuse it: a host program's terms
        # come from the builder, and a tree's names need elaborate's scope.
        program = lambda b: b.add(b.variable("x"), node)  # noqa: E731
        runs = (print_let, print_flat, size, build_dag, lambda p: evaluate(p, {"x": 3, "y": 5}))
        for run in runs:
            with pytest.raises(TypeError):
                run(program)
        for run in (print_let, print_flat, size):  # the node as the whole program
            with pytest.raises(TypeError, match="not an expression tree"):
                run(lambda b: node)

    @pytest.mark.parametrize(
        "program",
        [
            lambda b: (),
            lambda b: b.add(b.variable("x"), ()),
            lambda b: b.add((), b.variable("x")),
            lambda b: b.neg(()),
            lambda b: b.sub(b.variable("x"), ()),
            lambda b: b.sub((), b.variable("x")),
            lambda b: b.let_((), lambda v: v),
            lambda b: b.let_(b.variable("x"), lambda v: ()),
        ],
        ids=["program", "add-right", "add-left", "neg", "sub-right", "sub-left", "let-bound", "let-body"],
    )
    def test_an_empty_tuple_is_refused(self, program):
        # As evaluate, size and build_dag refuse it, with a TypeError.
        for run in (print_let, print_flat):
            with pytest.raises(TypeError, match=r"^not an expression tree: \(\)$"):
                run(program)

    def test_a_free_name_in_a_let_free_sibling_moves_the_binder(self):
        program = lambda b: b.sub(
            b.let_(b.variable("z"), lambda v: b.add(v, v)),
            b.add(b.variable("v0"), b.variable("y")),
        )
        assert print_let(program) == "let v1 = z in v1 + v1 - (v0 + y)"


def host_let_chain(k):
    """let v0 = x + 1 in let v1 = v0 + 1 in ... in v{k-1}, built in host code."""

    def program(b):
        body = lambda v: v  # noqa: E731
        for _ in range(k):
            body = (lambda inner: lambda v: b.let_(b.add(v, b.constant(1)), inner))(body)
        return body(b.variable("x"))

    return program


def let_free_sum(k):
    """x + x1 + x2 + ... + x{k-1}, left-nested and built in host code."""

    def program(b):
        total = b.variable("x")
        for index in range(1, k):
            total = b.add(total, b.variable(f"x{index}"))
        return total

    return program


class TestPrintLetCost:
    def test_an_aliased_let_free_term_is_rendered_once(self):
        n = 2**16 - 1
        program = lambda b: mul(b, n, b.variable("x"))
        text, calls = helpers.python_calls(lambda: print_let(program))
        # Rendering each node of the expanded tree would be ~2n calls.
        assert calls < 1_000
        assert text == " + ".join(["x"] * n)

    def test_a_let_free_operator_runs_no_helper_frame(self):
        # All 600 operators are let-free when built, so each renders inline
        # into a text term. This pins "a let-free operator runs no helper
        # frame" on the builder's terms, which elaborate's fused walk for an
        # exact LetPrinter makes none of: measured 3,410 frames, and leaving
        # the operators as tree nodes for _show enters 4,809.
        tree = parse(helpers.LETS_200)
        out, calls = helpers.python_calls(lambda: print_let(helpers.generic_program_of(tree)))
        assert out.endswith("let v199 = v198 + v198 - (y - 199) in -v199 + x")
        assert calls <= 3_408 + 16

    def test_a_long_let_chain_prints_at_the_default_recursion_limit(self):
        text = print_let(host_let_chain(800))
        assert text.startswith("let v0 = x + 1 in let v1 = v0 + 1 in ")
        assert text.endswith("let v799 = v798 + 1 in v799")

    def test_a_host_let_chain_prints_in_time_linear_in_its_depth(self):
        # Every let appends to one list of parts. A let that copied its
        # body's text would make the 4x longer chain about 16x slower. The
        # sizes alternate, so a swing in host speed lands on both sides of a
        # pair rather than on one size.
        def seconds(k):
            program = host_let_chain(k)
            start = time.perf_counter()
            print_let(program)
            return time.perf_counter() - start

        ratios = helpers.run_deep(lambda: [seconds(20_000) / seconds(5_000) for _ in range(7)])
        assert median(ratios) <= 7, ratios

    @pytest.mark.parametrize("printer", [print_let, print_flat])
    def test_a_long_let_free_sum_prints_at_any_length(self, printer):
        text = " + ".join(["x"] + [f"x{i}" for i in range(1, 20_000)])
        assert printer(let_free_sum(20_000)) == text


@pytest.mark.parametrize("printer", [print_let, print_flat])
class TestLetFreeTextCost:
    @pytest.mark.parametrize("n", [2**16 - 1, 2**20 - 1])
    def test_a_long_let_free_text_is_copied_once(self, printer, n):
        # Operands of 4 KiB or more join by reference, and their pieces are
        # copied once, into the output. An operator that copied its operands'
        # text would peak at about twice the output's size.
        program = lambda b: mul(b, n, b.variable("x"))  # noqa: E731
        gc.collect()
        tracemalloc.start()
        try:
            text = printer(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == " + ".join(["x"] * n)
        assert peak <= 1.25 * len(text), (peak, len(text))

    def test_a_let_free_sum_prints_in_time_linear_in_its_length(self, printer):
        # An operator that copied its operands' text would make the 4x longer
        # sum about 12x slower. The sizes alternate, as in the let chain's gate.
        def seconds(k):
            program = let_free_sum(k)
            start = time.perf_counter()
            printer(program)
            return time.perf_counter() - start

        ratios = [seconds(40_000) / seconds(10_000) for _ in range(7)]
        assert median(ratios) <= 7, ratios


class TestFusedWalkFreeNames:
    """elaborate's walks on an exact Evaluator, SizeBuilder or LetPrinter ask
    the builder about a free name at its first use in the walk only."""

    @pytest.mark.parametrize(
        "builder, run, result",
        [
            (Evaluator, lambda program: evaluate(program, {"x": 3}), 1_500),
            (SizeBuilder, size, 999),
            (LetPrinter, print_let, " + ".join(["x"] * 500)),
        ],
        ids=["evaluate", "size", "print_let"],
    )
    def test_a_walk_asks_the_builder_once_per_free_name(self, monkeypatch, builder, run, result):
        asked = []
        variable = builder.variable

        def counted(self, name):
            asked.append(name)
            return variable(self, name)

        monkeypatch.setattr(builder, "variable", counted)
        tree = parse(" + ".join(["x"] * 500))
        assert run(helpers.program_of(tree)) == result
        assert asked == ["x"]
        asked.clear()  # the builder's terms ask at every use
        assert run(helpers.generic_program_of(tree)) == result
        assert asked == ["x"] * 500

    def test_evaluate_reads_each_free_name_from_the_env_once(self):
        # 199 uses of y and 2 of x, among 200 lets
        tree, env = parse(helpers.LETS_200), CountingEnv(x=3, y=5)
        assert evaluate(helpers.program_of(tree), env) == helpers.surface_eval(tree, dict(env))
        assert env.lookups == 2

    @pytest.mark.parametrize(
        "text, value, nodes, shown",
        [
            # x is asked before the let that shadows it, and keeps its answer after
            ("x + (let x = 2 in x) + x", 2, 5, "x + let v0 = 2 in v0 + x"),
            # a let-bound value and size of 0 are answers, not misses
            ("(let x = 0 in x) + x", 0, 3, "let v0 = 0 in v0 + x"),
        ],
        ids=["asked-before-the-let", "first-asked-after-the-let"],
    )
    def test_a_let_shadowing_a_free_name_walks_as_the_builder_terms_do(
        self, text, value, nodes, shown
    ):
        tree = parse(text)
        assert helpers.fused_outcomes(tree, {"x": 0}) == (value, nodes)
        helpers.fused_outcomes(tree, {"x": 5})  # a let-bound 0 is then not the env's value
        assert helpers.shown_outcome(tree) == shown
