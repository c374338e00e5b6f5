"""Tree construction and the builder interface contracts."""

import re

import pytest

from exprdag.builders import FullBuilder, TreeBuilder, lower_to_tree
from exprdag.dag import DagBuilder
from exprdag.generators import mul, mul_shared
from exprdag.interp import Evaluator, FlatPrinter, LetPrinter, SizeBuilder

import helpers


def test_constant_builds_leaf():
    assert TreeBuilder().constant(10) == ("const", 10)


def test_variable_builds_leaf():
    assert TreeBuilder().variable("i1") == ("var", "i1")


@pytest.mark.parametrize(
    "make",
    [TreeBuilder, DagBuilder, lambda: Evaluator({}), SizeBuilder, FlatPrinter, LetPrinter],
    ids=["TreeBuilder", "DagBuilder", "Evaluator", "SizeBuilder", "FlatPrinter", "LetPrinter"],
)
@pytest.mark.parametrize(
    "leaf, payload, error",
    [
        ("variable", "", ValueError),
        ("variable", 3, TypeError),
        ("variable", None, TypeError),
        ("constant", 1.5, TypeError),
        ("constant", True, TypeError),
        ("constant", "x", TypeError),
    ],
    ids=["empty-name", "int-name", "no-name", "float", "bool", "str"],
)
def test_empty_variable_name_rejected(make, leaf, payload, error):
    """Every builder rejects a bad leaf payload as the leaf is built."""
    with pytest.raises(error):
        getattr(make(), leaf)(payload)


def test_add_builds_pair():
    b = TreeBuilder()
    assert b.add(b.constant(10), b.variable("i1")) == ("add", ("const", 10), ("var", "i1"))


def test_adds_nest():
    b = TreeBuilder()
    exp_a = b.add(b.constant(10), b.variable("i1"))
    exp_b = b.add(exp_a, b.variable("i2"))
    assert exp_b == ("add", ("add", ("const", 10), ("var", "i1")), ("var", "i2"))


def test_neg_and_sub_nodes():
    b = TreeBuilder()
    assert b.neg(b.variable("x")) == ("neg", ("var", "x"))
    assert b.sub(b.constant(5), b.constant(5)) == ("sub", ("const", 5), ("const", 5))


def test_let_substitutes_bound_tree_into_body():
    def program(b):
        return b.let_(b.add(b.variable("i1"), b.variable("i1")), lambda y: b.add(y, y))

    doubled = ("add", ("var", "i1"), ("var", "i1"))
    assert lower_to_tree(program) == ("add", doubled, doubled)


def test_let_identity_body_is_the_bound_tree():
    def program(b):
        return b.let_(b.add(b.constant(1), b.constant(2)), lambda y: y)

    assert lower_to_tree(program) == ("add", ("const", 1), ("const", 2))


def test_let_with_constant_body_drops_the_binding():
    def program(b):
        return b.let_(b.variable("x"), lambda _y: b.constant(3))

    assert lower_to_tree(program) == ("const", 3)


@pytest.mark.parametrize("result", [(), 5, None, 1.5], ids=["empty-tuple", "int", "none", "float"])
def test_lower_to_tree_refuses_a_result_that_is_no_tree(result):
    with pytest.raises(TypeError, match=f"^not an expression tree: {re.escape(repr(result))}$"):
        lower_to_tree(lambda b: result)


def test_trees_compare_structurally_and_hash():
    one = ("add", ("const", 1), ("var", "v"))
    two = ("add", ("const", 1), ("var", "v"))
    assert one == two and hash(one) == hash(two)
    assert one != ("add", ("var", "v"), ("const", 1))
    assert ("sub", ("const", 1), ("const", 2)) != ("add", ("const", 1), ("const", 2))


def test_trees_are_immutable():
    with pytest.raises(TypeError):
        TreeBuilder().constant(1)[1] = 2


def test_partial_builder_cannot_be_instantiated():
    class OnlyAdd(FullBuilder):
        def add(self, left, right):
            return (left, right)

    with pytest.raises(TypeError):
        OnlyAdd()


def test_let_defaults_to_substitution():
    class Ints(FullBuilder):
        """Only the five constructors; let_ is inherited."""

        def constant(self, value):
            return value

        def variable(self, name):
            return 7

        def add(self, left, right):
            return left + right

        def neg(self, operand):
            return -operand

        def sub(self, left, right):
            return left - right

    b = Ints()
    t = b.variable("x")
    assert b.let_(t, lambda u: u) is t
    assert mul_shared(b, 15, t) == mul(b, 15, t) == 105


def test_tree_oracle_agrees_on_a_known_tree():
    b = TreeBuilder()
    exp_b = b.add(b.add(b.constant(10), b.variable("i1")), b.variable("i2"))
    assert helpers.surface_eval(exp_b, {"i1": 2, "i2": 3}) == 15
    assert helpers.tree_node_count(exp_b) == 5
