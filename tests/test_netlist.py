"""DAG evaluation and the two text backends."""

import pytest

from exprdag.dag import Dag, NConst, build_dag, build_forest
from exprdag.generators import mul, sklansky
from exprdag.interp import UnboundVariableError
from exprdag.netlist import emit_netlist, emit_threeaddr, eval_dag

import helpers


def exp_mul4(b):
    return mul(b, 4, b.variable("i1"))


def sklansky4(b):
    return sklansky(b.add, [b.variable(str(i)) for i in range(1, 5)])


def const_dag(value):
    dag = Dag()
    root = dag.hashcons(NConst(value))
    return root, dag.freeze()


class TestEvalDag:
    def test_mul4(self):
        root, dag = build_dag(exp_mul4)
        assert eval_dag(dag, root, {"i1": 5}) == 20

    def test_single_constant(self):
        root, dag = const_dag(7)
        assert eval_dag(dag, root, {}) == 7

    def test_forest_root(self):
        roots, dag = build_forest(sklansky4)
        assert eval_dag(dag, roots[-1], {"1": 1, "2": 2, "3": 3, "4": 4}) == 10

    def test_neg_sub(self):
        program = lambda b: b.sub(b.neg(b.variable("a")), b.variable("b"))
        root, dag = build_dag(program)
        assert eval_dag(dag, root, {"a": 3, "b": 4}) == -7

    def test_unbound_variable(self):
        root, dag = build_dag(exp_mul4)
        with pytest.raises(UnboundVariableError) as err:
            eval_dag(dag, root, {})
        assert err.value.name == "i1"

    def test_out_of_range_root(self):
        root, dag = build_dag(exp_mul4)
        with pytest.raises(KeyError):
            eval_dag(dag, root + 1, {"i1": 5})


class TestEmitNetlist:
    def test_mul4(self):
        root, dag = build_dag(exp_mul4)
        assert emit_netlist(dag, [root]) == (
            "n0 = input i1\nn1 = add n0 n0\nn2 = add n1 n1\nout n2\n"
        )

    def test_empty(self):
        assert emit_netlist(Dag(), []) == ""

    def test_forest_has_one_line_per_node_plus_outs(self):
        roots, dag = build_forest(sklansky4)
        lines = emit_netlist(dag, roots).splitlines()
        assert len(lines) == 8 + 4
        assert lines[-4:] == ["out n0", "out n2", "out n4", "out n7"]

    def test_const_neg_sub_lines(self):
        program = lambda b: b.sub(b.neg(b.constant(5)), b.variable("a"))
        root, dag = build_dag(program)
        assert emit_netlist(dag, [root]) == (
            "n0 = const 5\nn1 = neg n0\nn2 = input a\nn3 = sub n1 n2\nout n3\n"
        )

    def test_references_only_point_backward(self):
        roots, dag = build_forest(sklansky4)
        assert helpers.netlist_refs_are_backward(emit_netlist(dag, roots))

    def test_invalid_root_rejected(self):
        root, dag = build_dag(exp_mul4)
        with pytest.raises(KeyError):
            emit_netlist(dag, [root + 1])


class TestEmitThreeAddr:
    def test_single_constant(self):
        root, dag = const_dag(5)
        assert emit_threeaddr(dag, root) == "LOADI r0, 5\nRET r0\n"

    def test_mul4(self):
        root, dag = build_dag(exp_mul4)
        assert emit_threeaddr(dag, root) == (
            "LOADV r0, i1\nADD r1, r0, r0\nADD r2, r1, r1\nRET r2\n"
        )

    def test_neg_sub_opcodes(self):
        program = lambda b: b.sub(b.neg(b.constant(5)), b.variable("a"))
        root, dag = build_dag(program)
        assert emit_threeaddr(dag, root) == (
            "LOADI r0, 5\nNEG r1, r0\nLOADV r2, a\nSUB r3, r1, r2\nRET r3\n"
        )

    def test_instruction_count_is_node_count_plus_one(self):
        import random

        rng = random.Random(3)
        for _ in range(25):
            ast = helpers.random_ast(rng, rng.randint(0, 8))
            root, dag = build_dag(helpers.program_of(ast))
            text = emit_threeaddr(dag, root)
            assert len(text.splitlines()) == len(dag) + 1


def test_a_bool_root_is_a_key_error():
    """True equals the id 1 but is not an id."""
    _, dag = build_dag(lambda b: b.add(b.variable("x"), b.constant(1)))
    with pytest.raises(KeyError):
        eval_dag(dag, True, {"x": 1})
    with pytest.raises(KeyError):
        emit_netlist(dag, [True])
    with pytest.raises(KeyError):
        emit_threeaddr(dag, True)
