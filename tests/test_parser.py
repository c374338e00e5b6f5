"""Surface syntax: scanning, parsing, and elaboration into terms."""

import ast
import gc
import re
import time
import tracemalloc
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprdag.builders import FullBuilder, lower_to_tree
from exprdag.dag import DagBuilder, build_dag, build_forest
from exprdag.interp import UnboundVariableError, evaluate, print_flat, print_let, size
from exprdag.parser import ParseError, elaborate, parse

import helpers


class TestParse:
    def test_let_form(self):
        got = parse("let y = i1 + i1 in y + y")
        bound = ("add", ("var", "i1"), ("var", "i1"))
        assert got == ("let", "y", bound, ("add", ("var", "y"), ("var", "y")))

    def test_two_leaf_add(self):
        assert parse("10 + i1") == ("add", ("const", 10), ("var", "i1"))

    def test_plus_minus_are_left_associative(self):
        assert parse("a - b + c") == ("add", ("sub", ("var", "a"), ("var", "b")), ("var", "c"))
        # the parser and TreeBuilder build one tree shape
        built = lambda b: b.add(b.sub(b.variable("a"), b.variable("b")), b.variable("c"))
        assert parse("a - b + c") == lower_to_tree(built)

    def test_parens_override_grouping(self):
        assert parse("a - (b + c)") == ("sub", ("var", "a"), ("add", ("var", "b"), ("var", "c")))

    def test_unary_minus_binds_to_the_next_term(self):
        assert parse("-x + y") == ("add", ("neg", ("var", "x")), ("var", "y"))
        assert parse("x - -y") == ("sub", ("var", "x"), ("neg", ("var", "y")))

    def test_let_body_extends_as_far_right_as_possible(self):
        got = parse("let t = 1 in t + t + 2")
        body = ("add", ("add", ("var", "t"), ("var", "t")), ("const", 2))
        assert got == ("let", "t", ("const", 1), body)

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

    def test_a_digit_led_word_is_a_literal_then_a_word(self):
        expected = ("let", "a", ("const", 1), ("add", ("var", "a"), ("var", "a")))
        assert parse("let a = 1in a + a") == expected
        assert parse("let a = let b = 1 in 2in a + a") == parse("let a = let b = 1 in 2 in a + a")

    def test_a_digit_led_word_is_read_in_the_same_descent(self):
        """The switch to _TOKEN's tokens costs no frame and no second parse."""
        _, spaced = helpers.python_calls(lambda: parse("let a = 1 in a + a"))
        _, joined = helpers.python_calls(lambda: parse("let a = 1in a + a"))
        assert joined == spaced

    # One case per place parse reads a token: each names only the
    # digits of a digit-led word, or the word after them once a term has
    # read the digits.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x 1in", "1:3: expected end of input, found '1'"),
            ("let 1x = 2 in x", "1:5: expected a name to bind, found '1'"),
            ("let a 1in", "1:7: expected '=', found '1'"),
            ("let a = 1 1in", "1:11: expected 'in', found '1'"),
            ("(1 2in)", "1:4: expected ')', found '2'"),
            ("x + 1in", "1:6: expected end of input, found 'in'"),
        ],
    )
    def test_an_error_at_a_digit_led_word_names_its_digits(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_an_overlong_literal_before_a_digit_led_word_is_named(self):
        with pytest.raises(ParseError) as err:
            parse("x +\n  " + "1" * 5000 + " + 0x")
        assert str(err.value) == "2:3: integer literal of 5000 digits is too long"


# Text near the grammar, with characters the scanner rejects.
GRAMMAR_LIKE = st.lists(st.sampled_from(helpers.GRAMMAR_ATOMS), max_size=25).map("".join)


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


def parse_outcome(parser, text):
    """parser's tree for text, or the text, line and column of its ParseError."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.line, err.col


# The text of random programs, in both printers' forms: it parses, and its
# nesting stays within the recursive descent's reach.
PRINTED = st.tuples(helpers.asts(), st.sampled_from((print_let, print_flat))).map(
    lambda pair: pair[1](helpers.program_of(pair[0]))
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(GRAMMAR_LIKE, PRINTED))
def test_parse_agrees_with_the_recursive_descent(text):
    assert parse_outcome(parse, text) == parse_outcome(helpers.descent_parse, text)


def unnest(tree, kind, child):
    """How many ``kind`` nodes lie on the path from ``tree`` down through each
    one's item ``child``, the set of their other items, and the node below."""
    depth, others = 0, set()
    while tree[0] == kind:
        others.add(tree[1:child] + tree[child + 1 :])
        tree = tree[child]
        depth += 1
    return depth, others, tree


#: Text n levels deep; the kind of node and the item each level nests in;
#: the other items of those nodes, and the node below them. Parentheses leave
#: no node behind.
DEEP = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, "add", 2, set(), ("var", "x")),
    "minuses": (lambda n: "-" * n + "x", "neg", 1, {()}, ("var", "x")),
    "let-chain": (
        lambda n: "let a = x in " + "let a = a + 1 in " * (n - 1) + "a",
        "let",
        3,
        {("a", ("var", "x")), ("a", ("add", ("var", "a"), ("const", 1)))},
        ("var", "a"),
    ),
    "sums": (lambda n: "(x + " * n + "y" + ")" * n, "add", 2, {(("var", "x"),)}, ("var", "y")),
}


class TestDepth:
    """parse keeps the levels it is inside on a list, not on Python's stack,
    so these run on the calling thread at the default recursion limit."""

    @pytest.mark.parametrize("make, kind, child, others, bottom", DEEP.values(), ids=DEEP.keys())
    def test_parse_takes_100_000_levels(self, make, kind, child, others, bottom):
        depth, seen, below = unnest(parse(make(100_000)), kind, child)
        assert depth == (100_000 if others else 0)
        assert (seen, below) == (others, bottom)

    @pytest.mark.parametrize("make", [make for make, *_ in DEEP.values()], ids=DEEP.keys())
    def test_parse_time_is_linear_in_depth(self, make):
        # A parse that copied its levels would make the 4x deeper text about
        # 16x slower. The sizes alternate, so a swing in host speed lands on
        # both sides of a pair rather than on one size. The collector is off
        # while parse runs: a full collection, which one size may trigger and
        # the other not, scans the heap of every test run so far.
        def seconds(n):
            text = make(n)
            gc.disable()
            try:
                start = time.perf_counter()
                parse(text)
                return time.perf_counter() - start
            finally:
                gc.enable()

        ratios = [seconds(100_000) / seconds(25_000) for _ in range(5)]
        assert median(ratios) <= 7, ratios

    def test_parse_enters_no_frame_per_token_or_level(self):
        # 2,598 tokens, 200 lets deep: the frames are python_calls' lambda
        # and parse's own.
        tree, calls = helpers.python_calls(lambda: parse(helpers.LETS_200))
        assert tree == helpers.descent_parse(helpers.LETS_200)
        assert calls <= 2


class TestElaborate:
    def test_let_elaborates_to_the_shared_dag(self):
        ast = parse("let y = i1 + i1 in y + y")
        root, dag = build_dag(helpers.program_of(ast))
        assert root == 2
        assert dag.items() == [(0, ("var", "i1")), (1, ("add", 0, 0)), (2, ("add", 1, 1))]

    def test_free_names_become_variables(self):
        ast = parse("10 + i1")
        assert evaluate(helpers.program_of(ast), {"i1": 2}) == 12

    def test_inner_let_shadows_outer(self):
        ast = parse("let x = 1 in let x = 2 in x")
        assert evaluate(helpers.program_of(ast), {}) == 2

    def test_negated_literal_folds_to_a_negative_constant(self):
        ast = parse("-5")
        assert lower_to_tree(helpers.program_of(ast)) == ("const", -5)

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
            b = ("add", a, ("const", 1))
            return ("add", ("sub", b, a), ("sub", ("neg", b), a))

        assert forced == ("add", inner(("var", "x")), inner(("neg", ("var", "x"))))

    def test_a_let_bound_reads_the_free_name_it_binds(self):
        ast = parse("let x = x + 1 in x")
        assert lower_to_tree(helpers.program_of(ast)) == ("add", ("var", "x"), ("const", 1))
        assert evaluate(helpers.program_of(ast), {"x": 5}) == 6

    def test_a_use_walks_past_frames_of_other_names(self):
        ast = parse("let t = 1 in let u = 2 in let t = 3 in t + u")
        assert evaluate(helpers.program_of(ast), {}) == 5

    @pytest.mark.parametrize(
        "ast",
        ["oops", 5, None, object(), ("mul", ("const", 1), ("const", 2))],
        ids=["str", "int", "None", "object", "unknown-tag"],
    )
    def test_a_non_tree_is_a_type_error(self, ast):
        with pytest.raises(TypeError, match="not an expression tree"):
            elaborate(ast, DagBuilder())

    @pytest.mark.parametrize("value", [True, "x", 1.5], ids=["bool", "str", "float"])
    @pytest.mark.parametrize(
        "run",
        [build_dag, lambda program: evaluate(program, {})],
        ids=["build_dag", "evaluate"],
    )
    def test_a_negated_non_int_constant_is_not_folded(self, run, value):
        ast = ("neg", ("const", value))
        with pytest.raises(TypeError, match=f"constant must be an int, not {type(value).__name__}"):
            run(helpers.program_of(ast))

    def test_a_non_tree_node_in_a_let_body_fails_when_the_body_runs(self):
        ast = ("let", "t", ("const", 1), ("add", ("var", "t"), "oops"))
        deferred = elaborate(ast, DeferredTwice())
        with pytest.raises(TypeError, match="not an expression tree: 'oops'"):
            deferred()
        with pytest.raises(TypeError, match="not an expression tree"):
            build_dag(helpers.program_of(ast))


class DeferredTwice(FullBuilder):
    """Terms are thunks of trees. A forced let_ runs its body twice, once on
    the bound term and once on its negation, and forces the second run first."""

    def constant(self, value):
        return lambda: ("const", value)

    def variable(self, name):
        return lambda: ("var", name)

    def add(self, left, right):
        return lambda: ("add", left(), right())

    def neg(self, operand):
        return lambda: ("neg", operand())

    def sub(self, left, right):
        return lambda: ("sub", left(), right())

    def let_(self, bound, body):
        def force():
            second = body(lambda: ("neg", bound()))()
            return ("add", body(bound)(), second)

        return force


def let_chain(k):
    """let a0 = x in let a1 = a0 + 1 in ... in a{k-1}, built bottom-up."""
    tree = ("var", f"a{k - 1}")
    for i in range(k - 1, 0, -1):
        tree = ("let", f"a{i}", ("add", ("var", f"a{i - 1}"), ("const", 1)), tree)
    return ("let", "a0", ("var", "x"), tree)


def sum_chain(k):
    """x0 + x1 + ... + x{k-1}, nested to the left as parse nests it."""
    tree = ("var", "x0")
    for i in range(1, k):
        tree = ("add", tree, ("var", f"x{i}"))
    return tree


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

    small, large = helpers.run_deep(lambda: (peak(500), peak(1000)))
    assert large / small < 2.6, (small, large)


#: Programs whose value depends on where each let's scope ends.
SCOPING = [
    "(let q = 1 in q) + q",  # the name is free again after the body
    "let x = 1 in (let x = 2 in x) + x",  # the shadowed binding comes back
    "let t = 1 in let u = 2 in let t = 3 in t + u",
    "let x = x + 1 in x",  # the bound reads the free name
]


class TestDirectWalk:
    """elaborate on an exact DagBuilder: one term that conses the tree."""

    def test_a_build_enters_a_frame_per_tree_node(self):
        tree = parse(helpers.LETS_200)
        (_, dag), calls = helpers.python_calls(lambda: build_dag(lambda b: elaborate(tree, b)))
        # 1,600 tree nodes (200 lets, 600 operators and 800 leaves) and 801
        # new nodes, each stored with no frame: the walk enters 1,611 frames,
        # the builder's terms 4,211.
        assert len(dag) == 801
        assert calls <= 1_600 + 16

    @pytest.mark.parametrize(
        "tree, nodes", [(let_chain(950), 951), (sum_chain(950), 1_899)], ids=["let-chain", "sum"]
    )
    def test_build_dag_takes_950_levels_at_the_default_recursion_limit(self, tree, nodes):
        # one frame per tree level, as for the builder's terms
        build = lambda: build_dag(lambda b: elaborate(tree, b))  # noqa: E731
        _, dag = helpers.run_deep(build, limit=1_000, stack=0)
        assert len(dag) == nodes

    def test_a_bad_node_below_the_root_fails_when_the_term_runs(self):
        ast = ("add", ("var", "x"), "oops")
        term = elaborate(ast, DagBuilder())
        with pytest.raises(TypeError, match="not an expression tree: 'oops'"):
            build_dag(lambda b: term)
        with pytest.raises(TypeError, match="not an expression tree: 'oops'"):
            elaborate(ast, helpers.ClosureDagBuilder())

    @pytest.mark.parametrize("text", SCOPING)
    def test_a_let_scopes_its_name_as_the_builder_terms_do(self, text):
        tree = parse(text)
        direct_root, direct = build_dag(lambda b: elaborate(tree, b))
        root, dag = build_dag(lambda b: elaborate(tree, helpers.ClosureDagBuilder()))
        assert direct_root == root
        assert direct.items() == dag.items()

    def test_a_term_run_twice_starts_from_an_empty_scope(self):
        tree = parse("(let q = x in q + 1) + q")
        term = elaborate(tree, DagBuilder())
        roots, dag = build_forest(lambda b: [term, term])
        closure = elaborate(tree, helpers.ClosureDagBuilder())
        assert (roots, dag) == build_forest(lambda b: [closure, closure])
        assert roots == [4, 4] and dag.items()[3] == (3, ("var", "q"))

    def test_a_failed_walk_leaves_no_binding_behind(self):
        bad = elaborate(("let", "q", ("const", 1), ("add", ("var", "q"), "oops")), DagBuilder())
        with pytest.raises(TypeError, match="not an expression tree: 'oops'"):
            build_dag(lambda b: bad)
        root, dag = build_dag(lambda b: elaborate(parse("q + 1"), b))
        assert dag.items() == [(0, ("var", "q")), (1, ("const", 1)), (2, ("add", 0, 1))]
        assert root == 2

    def test_a_dag_builder_subclass_gets_the_builder_terms(self):
        builder = helpers.CountingBuilder()
        build_dag(lambda b: elaborate(parse("let t = x + 1 in t + t"), builder))
        assert builder.lets == builder.let_runs == 1


#: Malformed trees and envs, each with the error evaluate raises and the
#: error or the result of size, which looks up no variable.
MALFORMED = {
    "non-tuple": (("add", ("var", "x"), "oops"), {"x": 1}, TypeError, TypeError),
    "unknown-tag": (("sub", ("const", 1), ("mul", 2, 3)), {}, TypeError, TypeError),
    "empty-tuple": (("neg", ()), {}, IndexError, IndexError),
    "empty-tuple-operand": (("add", ("var", "x"), ()), {"x": 1}, IndexError, IndexError),
    "short-add": (("add", ("const", 1)), {}, IndexError, IndexError),
    "short-let": (("let", "a", ("const", 1)), {}, IndexError, IndexError),
    "short-var": (("let", "a", ("var",), ("var", "a")), {}, IndexError, IndexError),
    "non-str-name": (("add", ("const", 1), ("var", 5)), {}, TypeError, TypeError),
    "empty-name": (("var", ""), {}, ValueError, ValueError),
    "bool-constant": (("const", True), {}, TypeError, TypeError),
    "negated-bool-constant": (("neg", ("const", True)), {}, TypeError, TypeError),
    "unhashable-binder": (("let", ["a"], ("const", 1), ("var", "a")), {}, TypeError, TypeError),
    "first-error-wins": (
        ("add", ("var", "x"), ("const", 0.5)), {}, UnboundVariableError, TypeError
    ),
    "non-int-env-value": (("add", ("var", "x"), ("const", 1)), {"x": "1"}, TypeError, 3),
    "free-again-after-body": (parse("(let y = 2 in y) + y"), {"x": 1}, UnboundVariableError, 3),
    # a (level, text) pair, which no LetPrinter term is, and a let whose
    # bound is not a tuple: print_let's walk rejects both as the terms do
    "level-and-text-pair": (("add", (2, "x"), ("var", "y")), {}, TypeError, TypeError),
    "non-tuple-let-bound": (("let", "a", 5, ("var", "a")), {}, TypeError, TypeError),
}


class TestFusedWalks:
    """elaborate on an exact Evaluator, SizeBuilder or LetPrinter: the tree is
    walked once into the value, the size or the text, with the outcome of the
    builder's terms."""

    @pytest.mark.parametrize("tree, env, error, sized", MALFORMED.values(), ids=MALFORMED.keys())
    def test_a_malformed_tree_fails_as_the_builder_terms_fail(self, tree, env, error, sized):
        value, nodes = helpers.fused_outcomes(tree, env)
        assert value[0] is error
        assert nodes == sized if type(sized) is int else nodes[0] is sized
        helpers.shown_outcome(tree)

    @pytest.mark.parametrize("text", SCOPING)
    @pytest.mark.parametrize("env", [{"x": 5}, {"x": 5, "q": 7}], ids=["q-unbound", "q-bound"])
    def test_a_let_scopes_its_name_as_the_builder_terms_do(self, text, env):
        helpers.fused_outcomes(parse(text), env)
        helpers.shown_outcome(parse(text))

    def test_print_let_reports_the_first_bad_node_in_rendering_order(self):
        # The builder's terms defer a let body until rendering, so they meet
        # the var 5 first; the fused walk renders the body first.
        tree = ("add", ("let", "a", ("const", 1), ("const", 0.5)), ("var", 5))
        with pytest.raises(TypeError, match="^constant must be an int, not float$"):
            print_let(helpers.program_of(tree))
        with pytest.raises(TypeError, match="^variable name must be a str, not int$"):
            print_let(helpers.generic_program_of(tree))

    @pytest.mark.parametrize(
        "compose, text",
        [
            (lambda b, t: b.sub(b.variable("x"), b.neg(t(("const", 3)))), "x - (-3)"),
            (lambda b, t: b.neg(t(("const", -3))), "--3"),
            (lambda b, t: b.sub(b.variable("x"), b.neg(t(("neg", ("const", 3))))), "x - (--3)"),
            (lambda b, t: b.let_(t(("var", "v0")), b.neg), "let v1 = v0 in -v1"),
        ],
        ids=["sub-neg-const", "neg-negative-const", "sub-neg-neg-const", "let-bound-free-v0"],
    )
    def test_host_code_over_an_elaborated_tree_prints_as_the_builder_terms_do(
        self, compose, text
    ):
        # A host neg negates an elaborated tree's text at operator level; it
        # does not fold the tree's literal as a neg node in the tree does.
        assert print_let(lambda b: compose(b, lambda tree: elaborate(tree, b))) == text
        generic = helpers.generic_program_of
        assert print_let(lambda b: compose(b, lambda tree: generic(tree)(b))) == text

    def test_a_walk_enters_a_frame_per_tree_node_and_per_leaf_method_call(self):
        # 1,600 tree nodes, 401 of them leaves. 202 call the builder, one
        # frame deep (the method), in each walk: the 200 constants and the
        # first use of each free name, x and y; the other 199 uses read the
        # walk's scope. print_let also draws 200 binder names from a
        # generator. Measured: evaluate enters 1,808 frames, size 1,807 and
        # print_let 2,010; the builder's terms 3,008, 3,007 and 3,409.
        tree = parse(helpers.LETS_200)
        env = {"x": 3, "y": 5}
        value, calls = helpers.python_calls(lambda: evaluate(lambda b: elaborate(tree, b), env))
        assert value == helpers.surface_eval(tree, env)
        assert calls <= 1_600 + 202 + 16
        nodes, calls = helpers.python_calls(lambda: size(lambda b: elaborate(tree, b)))
        assert nodes == size(lambda b: elaborate(tree, helpers.GenericSizeBuilder()))
        assert calls <= 1_600 + 202 + 16
        text, calls = helpers.python_calls(lambda: print_let(lambda b: elaborate(tree, b)))
        assert text == print_let(helpers.generic_program_of(tree))
        assert calls <= 1_600 + 202 + 200 + 16

    @pytest.mark.parametrize(
        "tree, value, nodes, text",
        [
            (
                let_chain(950),
                950,
                1_899,
                "let v0 = x in "
                + "".join(f"let v{i} = v{i - 1} + 1 in " for i in range(1, 950))
                + "v949",
            ),
            (sum_chain(950), 450_775, 1_899, " + ".join(f"x{i}" for i in range(950))),
        ],
        ids=["let-chain", "sum"],
    )
    def test_a_walk_takes_950_levels_at_the_default_recursion_limit(self, tree, value, nodes, text):
        # one frame per tree level; the builder's terms take three per let
        env = {"x": 1, **{f"x{i}": i for i in range(950)}}
        program = lambda b: elaborate(tree, b)  # noqa: E731
        assert helpers.run_deep(lambda: evaluate(program, env), limit=1_000, stack=0) == value
        assert helpers.run_deep(lambda: size(program), limit=1_000, stack=0) == nodes
        assert helpers.run_deep(lambda: print_let(program), limit=1_000, stack=0) == text

    # A builder's own term where a tree node belongs, in each place a node can
    # sit, and the four kinds of term a program can put there.
    PLACES = {
        "left": lambda term: ("add", term, ("var", "y")),
        "right": lambda term: ("sub", ("var", "y"), term),
        "neg": lambda term: ("neg", term),
        "let-bound": lambda term: ("let", "a", term, ("var", "a")),
        "let-body": lambda term: ("let", "a", ("var", "y"), term),
    }
    TERMS = {
        "variable": lambda b: b.variable("x"),
        "constant": lambda b: b.constant(3),
        "let": lambda b: b.let_(b.variable("x"), lambda v: b.add(v, v)),
        "elaborated": lambda b: elaborate(("var", "x"), b),
    }

    @pytest.mark.parametrize("place", PLACES.values(), ids=PLACES.keys())
    @pytest.mark.parametrize("term", TERMS.values(), ids=TERMS.keys())
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "generic"])
    def test_a_builder_term_inside_a_tree_is_refused(self, place, term, fused):
        # Types only: the message shows the term, whose repr holds an address.
        def program(b):
            tree = place(term(b))
            return elaborate(tree, b) if fused else helpers.generic_program_of(tree)(b)

        for run in (print_let, size, build_dag, lambda p: evaluate(p, {"x": 3, "y": 5})):
            with pytest.raises(TypeError):
                run(program)

    def test_a_subclass_gets_the_builder_terms(self):
        calls = []

        class Recording(helpers.GenericSizeBuilder):
            def let_(self, bound, body):
                calls.append(bound)
                return super().let_(bound, body)

        assert elaborate(parse("let t = x + 1 in t + t"), Recording()) == 4
        assert calls == [3]


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
