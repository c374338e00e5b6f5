"""Tree construction and the builder interface contracts."""

import pytest

from exprdag.builders import (
    Add,
    Constant,
    FullBuilder,
    Neg,
    Sub,
    TreeBuilder,
    Variable,
    lower_to_tree,
)
from exprdag.dag import DagBuilder
from exprdag.interp import Evaluator, FlatPrinter, LetPrinter, SizeBuilder

import helpers


def test_constant_builds_leaf():
    assert TreeBuilder().constant(10) == Constant(10)


def test_variable_builds_leaf():
    assert TreeBuilder().variable("i1") == Variable("i1")


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
    assert b.add(b.constant(10), b.variable("i1")) == Add(Constant(10), Variable("i1"))


def test_adds_nest():
    b = TreeBuilder()
    exp_a = b.add(b.constant(10), b.variable("i1"))
    exp_b = b.add(exp_a, b.variable("i2"))
    assert exp_b == Add(Add(Constant(10), Variable("i1")), Variable("i2"))


def test_neg_and_sub_nodes():
    b = TreeBuilder()
    assert b.neg(b.variable("x")) == Neg(Variable("x"))
    assert b.sub(b.constant(5), b.constant(5)) == Sub(Constant(5), Constant(5))


def test_let_substitutes_bound_tree_into_body():
    def program(b):
        return b.let_(b.add(b.variable("i1"), b.variable("i1")), lambda y: b.add(y, y))

    doubled = Add(Variable("i1"), Variable("i1"))
    assert lower_to_tree(program) == Add(doubled, doubled)


def test_let_identity_body_is_the_bound_tree():
    def program(b):
        return b.let_(b.add(b.constant(1), b.constant(2)), lambda y: y)

    assert lower_to_tree(program) == Add(Constant(1), Constant(2))


def test_let_with_constant_body_drops_the_binding():
    def program(b):
        return b.let_(b.variable("x"), lambda _y: b.constant(3))

    assert lower_to_tree(program) == Constant(3)


def test_trees_compare_structurally_and_hash():
    one = Add(Constant(1), Variable("v"))
    two = Add(Constant(1), Variable("v"))
    assert one == two and hash(one) == hash(two)
    assert one != Add(Variable("v"), Constant(1))
    assert Sub(Constant(1), Constant(2)) != Add(Constant(1), Constant(2))


def test_trees_are_immutable():
    with pytest.raises(AttributeError):
        Constant(1).value = 2


def test_partial_builder_cannot_be_instantiated():
    class OnlyAdd(FullBuilder):
        def add(self, left, right):
            return (left, right)

    with pytest.raises(TypeError):
        OnlyAdd()


def test_tree_oracle_agrees_on_a_known_tree():
    b = TreeBuilder()
    exp_b = b.add(b.add(b.constant(10), b.variable("i1")), b.variable("i2"))
    assert helpers.eval_tree(exp_b, {"i1": 2, "i2": 3}) == 15
    assert helpers.tree_node_count(exp_b) == 5
