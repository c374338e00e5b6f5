"""Surface syntax: scanning, parsing, and elaboration into terms."""

import ast
import gc
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprdag.builders import FullBuilder, lower_to_tree
from exprdag.dag import DagBuilder, NAdd, NConst, NNeg, NSub, NVar, build_dag
from exprdag.interp import evaluate, print_let, size
from exprdag.parser import ParseError, elaborate, parse

import helpers


class TestParse:
    def test_let_form(self):
        got = parse("let y = i1 + i1 in y + y")
        bound = NAdd(NVar("i1"), NVar("i1"))
        assert got == ("let", "y", bound, NAdd(NVar("y"), NVar("y")))

    def test_two_leaf_add(self):
        assert parse("10 + i1") == NAdd(NConst(10), NVar("i1"))

    def test_plus_minus_are_left_associative(self):
        assert parse("a - b + c") == NAdd(NSub(NVar("a"), NVar("b")), NVar("c"))
        # the parser and TreeBuilder build one tree shape
        built = lambda b: b.add(b.sub(b.variable("a"), b.variable("b")), b.variable("c"))
        assert parse("a - b + c") == lower_to_tree(built)

    def test_parens_override_grouping(self):
        assert parse("a - (b + c)") == NSub(NVar("a"), NAdd(NVar("b"), NVar("c")))

    def test_unary_minus_binds_to_the_next_term(self):
        assert parse("-x + y") == NAdd(NNeg(NVar("x")), NVar("y"))
        assert parse("x - -y") == NSub(NVar("x"), NNeg(NVar("y")))

    def test_let_body_extends_as_far_right_as_possible(self):
        got = parse("let t = 1 in t + t + 2")
        body = NAdd(NAdd(NVar("t"), NVar("t")), NConst(2))
        assert got == ("let", "t", NConst(1), body)

    def test_let_missing_name_is_a_syntax_error(self):
        with pytest.raises(ParseError):
            parse("let in x")
        with pytest.raises(ParseError) as err:
            parse("let 3 = 4 in 5")
        assert (err.value.line, err.value.col) == (1, 5)
        assert "expected a name to bind, found '3'" in str(err.value)

    def test_reserved_words_cannot_be_names(self):
        with pytest.raises(ParseError) as err:
            parse("let let = 1 in 2")
        assert "reserved" in str(err.value)
        with pytest.raises(ParseError):
            parse("in")

    def test_errors_carry_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse("1 +\n+ 2")
        assert err.value.line == 2
        assert err.value.col == 1

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 $ 2")
        assert err.value.col == 3

    def test_scan_errors_come_before_grammar_errors(self):
        # '2' is already a grammar error, but the whole text is scanned first
        with pytest.raises(ParseError) as err:
            parse("1 2 $")
        assert (err.value.line, err.value.col) == (1, 5)
        assert "unexpected character '$'" in str(err.value)

    @pytest.mark.parametrize(
        "text, char, col", [("x + \u0663", "\u0663", 5), ("caf\u00e9", "\u00e9", 4)]
    )
    def test_non_ascii_digits_and_letters_are_unexpected(self, text, char, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert f"unexpected character {char!r}" in str(err.value)

    @pytest.mark.parametrize(
        "text, line, col", [("1 +\t)", 1, 5), ("x\t$", 1, 3), ("1 +\r\n  )", 2, 3)]
    )
    def test_a_tab_or_carriage_return_is_one_column(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_overlong_integer_literal_is_a_syntax_error(self):
        # 5,000 digits is past CPython's default int-to-string limit of 4,300
        with pytest.raises(ParseError) as err:
            parse("x +\n  " + "1" * 5000 + " + x")
        assert (err.value.line, err.value.col) == (2, 3)
        assert "too long" in str(err.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            parse("(1 + 2")
        assert (err.value.line, err.value.col) == (1, 7)
        assert "found end of input" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_whitespace_and_newlines_are_insignificant(self):
        assert parse("let y = 1\n  in y") == parse("let y = 1 in y")


# Text near the grammar, with characters the scanner rejects.
GRAMMAR_LIKE = st.lists(
    st.sampled_from(
        ["let", "in", "=", "+", "-", "(", ")", " ", "\t", "\n", "\r\n", "x", "t1", "0", "42"]
        + ["$", "\u00e9"]
    ),
    max_size=25,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(GRAMMAR_LIKE)
def test_an_error_points_at_the_token_it_names(text):
    try:
        parse(text)
    except ParseError as err:
        lines = text.split("\n")
        offset = sum(len(line) + 1 for line in lines[: err.line - 1]) + err.col - 1
        assert 0 <= err.col - 1 <= len(lines[err.line - 1])
        named = re.search(r"(?:found|character|word) ('.+?'|end of input)", str(err)).group(1)
        if named == "end of input":
            assert offset == len(text)
        else:
            token = ast.literal_eval(named)
            assert text[offset : offset + len(token)] == token


class TestElaborate:
    def test_let_elaborates_to_the_shared_dag(self):
        ast = parse("let y = i1 + i1 in y + y")
        root, dag = build_dag(helpers.program_of(ast))
        assert root == 2
        assert dag.items() == [(0, NVar("i1")), (1, NAdd(0, 0)), (2, NAdd(1, 1))]

    def test_free_names_become_variables(self):
        ast = parse("10 + i1")
        assert evaluate(helpers.program_of(ast), {"i1": 2}) == 12

    def test_inner_let_shadows_outer(self):
        ast = parse("let x = 1 in let x = 2 in x")
        assert evaluate(helpers.program_of(ast), {}) == 2

    def test_negated_literal_folds_to_a_negative_constant(self):
        ast = parse("-5")
        assert lower_to_tree(helpers.program_of(ast)) == NConst(-5)

    def test_double_negation_still_negates(self):
        ast = parse("--5")
        assert evaluate(helpers.program_of(ast), {}) == 5

    def test_let_bound_name_is_scoped_to_the_body(self):
        # the same name outside the body is a free variable again
        ast = parse("(let q = 1 in q) + q")
        assert evaluate(helpers.program_of(ast), {"q": 10}) == 11

    def test_a_let_body_run_late_twice_and_out_of_order_sees_its_own_term(self):
        # Each body run resolves `a` and `b` to the terms of that run, after
        # elaborate has returned.
        forced = elaborate(parse("let a = x in let b = a + 1 in b - a"), DeferredTwice())()

        def inner(a):
            b = NAdd(a, NConst(1))
            return NAdd(NSub(b, a), NSub(NNeg(b), a))

        assert forced == NAdd(inner(NVar("x")), inner(NNeg(NVar("x"))))

    def test_a_let_bound_reads_the_free_name_it_binds(self):
        ast = parse("let x = x + 1 in x")
        assert lower_to_tree(helpers.program_of(ast)) == NAdd(NVar("x"), NConst(1))
        assert evaluate(helpers.program_of(ast), {"x": 5}) == 6

    def test_a_use_walks_past_frames_of_other_names(self):
        ast = parse("let t = 1 in let u = 2 in let t = 3 in t + u")
        assert evaluate(helpers.program_of(ast), {}) == 5

    @pytest.mark.parametrize(
        "ast",
        ["oops", 5, None, object(), ("mul", NConst(1), NConst(2))],
        ids=["str", "int", "None", "object", "unknown-tag"],
    )
    def test_a_non_tree_is_a_type_error(self, ast):
        with pytest.raises(TypeError, match="not an expression tree"):
            elaborate(ast, DagBuilder())

    def test_a_non_tree_node_in_a_let_body_fails_when_the_body_runs(self):
        ast = ("let", "t", NConst(1), NAdd(NVar("t"), "oops"))
        deferred = elaborate(ast, DeferredTwice())
        with pytest.raises(TypeError, match="not an expression tree: 'oops'"):
            deferred()
        with pytest.raises(TypeError, match="not an expression tree"):
            build_dag(helpers.program_of(ast))


class DeferredTwice(FullBuilder):
    """Terms are thunks of trees. A forced let_ runs its body twice, once on
    the bound term and once on its negation, and forces the second run first."""

    def constant(self, value):
        return lambda: NConst(value)

    def variable(self, name):
        return lambda: NVar(name)

    def add(self, left, right):
        return lambda: NAdd(left(), right())

    def neg(self, operand):
        return lambda: NNeg(operand())

    def sub(self, left, right):
        return lambda: NSub(left(), right())

    def let_(self, bound, body):
        def force():
            second = body(lambda: NNeg(bound()))()
            return NAdd(body(bound)(), second)

        return force


def let_chain(k):
    """let a0 = x in let a1 = a0 + 1 in ... in a{k-1}, built bottom-up."""
    tree = NVar(f"a{k - 1}")
    for i in range(k - 1, 0, -1):
        tree = ("let", f"a{i}", NAdd(NVar(f"a{i - 1}"), NConst(1)), tree)
    return ("let", "a0", NVar("x"), tree)


def run_deep(fn):
    """Run fn on a worker thread with a big stack and a raised recursion
    limit, restoring both; return its result or raise its exception."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # re-raised below, on the calling thread
            result["error"] = exc

    old_limit, old_stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(100_000)
    try:
        threading.stack_size(256 * 1024 * 1024)
        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=120)
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    assert not worker.is_alive(), "deep run did not finish"
    if "error" in result:
        raise result["error"]
    return result["value"]


@pytest.mark.parametrize(
    "interpret",
    [build_dag, lambda program: evaluate(program, {"x": 1}), size],
    ids=["build_dag", "evaluate", "size"],
)
def test_elaboration_memory_is_linear_in_let_depth(interpret):
    # Peak traced memory, not time: doubling the chain about doubles a linear
    # run and quadruples one that copies the scope at every let. A pending
    # garbage collection landing inside the traced run would skew the ratio.
    def peak(k):
        chain = let_chain(k)
        gc.collect()
        tracemalloc.start()
        try:
            interpret(lambda builder: elaborate(chain, builder))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = run_deep(lambda: (peak(500), peak(1000)))
    assert large / small < 2.6, (small, large)


class TestRoundTrip:
    def cases(self):
        return [
            "let y = i1 + i1 in y + y",
            "10 + i1",
            "-x + y",
            "x - (y + z)",
            "x - (y - z)",
            "let t0 = x + x in let t1 = t0 + t0 in t1 - x",
            "let t0 = (let t1 = x in t1 + t1) in t0 + t0",
            "-(x + y) - -z",
        ]

    def test_print_let_output_reparses_to_the_same_value(self):
        env = {"x": 11, "y": -7, "z": 3, "i1": 5, "i2": 2}
        for text in self.cases():
            program = helpers.program_of(parse(text))
            expected = evaluate(program, env)
            reparsed = helpers.program_of(parse(print_let(program)))
            assert evaluate(reparsed, env) == expected, text

    def test_round_trip_preserves_the_dag_as_well(self):
        for text in self.cases():
            program = helpers.program_of(parse(text))
            reparsed = helpers.program_of(parse(print_let(program)))
            assert build_dag(reparsed) == build_dag(program), text
