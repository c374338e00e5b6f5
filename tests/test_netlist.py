"""DAG evaluation and the two text backends."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import exprdag.dag
from exprdag import netlist
from exprdag.dag import Dag, DagBuilder, build_dag, build_forest, format_dag
from exprdag.generators import sklansky, sklansky_shared
from exprdag.interp import UnboundVariableError, evaluate
from exprdag.netlist import emit_netlist, emit_threeaddr, eval_dag
from exprdag.parser import elaborate

import helpers
from helpers import netlist_oracle, threeaddr_oracle


def sklansky4(b):
    return sklansky(b.add, [b.variable(str(i)) for i in range(1, 5)])


def const_dag(value):
    dag = Dag()
    root = dag.hashcons(("const", value))
    return root, dag.freeze()


class TestEvalDag:
    def test_mul4(self):
        root, dag = build_dag(helpers.exp_mul4)
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
        root, dag = build_dag(helpers.exp_mul4)
        with pytest.raises(UnboundVariableError) as err:
            eval_dag(dag, root, {})
        assert err.value.name == "i1"

    @pytest.mark.parametrize("value", [1.5, "1", True, None])
    def test_a_non_int_value_is_a_type_error_naming_the_variable(self, value):
        root, dag = build_dag(lambda b: b.add(b.variable("x"), b.constant(1)))
        with pytest.raises(TypeError, match=f"value of x must be an int, not {type(value).__name__}"):
            eval_dag(dag, root, {"x": value})

    @pytest.mark.parametrize(
        "program, env, expected",
        [
            (lambda b: b.neg(b.variable("x")), {"x": -(2**63)}, -(2**63)),
            (lambda b: b.add(b.variable("x"), b.constant(1)), {"x": 2**63 - 1}, -(2**63)),
            (lambda b: b.sub(b.variable("x"), b.constant(1)), {"x": -(2**63)}, 2**63 - 1),
            (lambda b: b.constant(2**64 + 5), {}, 5),
            (lambda b: b.add(b.constant(-(2**200)), b.constant(-1)), {}, -1),
            (lambda b: b.neg(b.variable("x")), {"x": 2**70 + 3}, -3),
        ],
    )
    def test_values_wrap_at_64_bits_like_evaluate(self, program, env, expected):
        root, dag = build_dag(program)
        assert eval_dag(dag, root, env) == evaluate(program, env) == expected

    def test_out_of_range_root(self):
        root, dag = build_dag(helpers.exp_mul4)
        with pytest.raises(KeyError):
            eval_dag(dag, root + 1, {"i1": 5})


class TestEvalDagMemo:
    """eval_dag walks a Dag once per binding of its inputs: a later call whose
    env holds the same int objects answers from the stored values."""

    def test_every_forest_root_is_its_prefix_sum_from_one_walk(self):
        roots, dag = build_forest(lambda b: sklansky_shared(b, [b.variable(f"x{i}") for i in range(256)]))
        env = {f"x{i}": 1000 + i for i in range(256)}
        assert eval_dag(dag, roots[0], env) == 1000
        values = dag._memo[2]
        assert len(values) == len(dag)
        for k, root in enumerate(roots):
            assert eval_dag(dag, root, env) == sum(range(1000, 1001 + k))
            assert dag._memo[2] is values

    def test_an_env_changed_in_place_gives_the_new_value(self):
        root, dag = build_dag(helpers.exp_mul4)
        env = {"i1": 5}
        assert eval_dag(dag, root, env) == 20
        env["i1"] = 2**70 + 6
        assert eval_dag(dag, root, env) == 24
        assert eval_dag(dag, root, env) == 24

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_an_equal_non_int_after_a_hit_is_a_type_error(self, value):
        root, dag = build_dag(lambda b: b.add(b.variable("x"), b.constant(1)))
        env = {"x": 1}
        assert eval_dag(dag, root, env) == eval_dag(dag, root, env) == 2
        env["x"] = value
        with pytest.raises(TypeError, match=f"value of x must be an int, not {type(value).__name__}"):
            eval_dag(dag, root, env)

    def test_a_dag_that_gains_nodes_is_walked_again(self):
        dag = Dag()
        x = dag.hashcons(("var", "x"))
        root = dag.hashcons(("add", x, x))
        env = {"x": 3}
        assert eval_dag(dag, root, env) == 6
        root = dag.hashcons(("neg", root))
        assert eval_dag(dag, root, env) == -6
        assert len(dag._memo[2]) == len(dag)
        dag.hashcons(("var", "y"))
        with pytest.raises(UnboundVariableError) as err:
            eval_dag(dag, root, env)
        assert err.value.name == "y"

    def test_a_forest_root_needs_every_input_of_its_dag(self):
        # The netlist's rule: another root's input is an input all the same.
        roots, dag = build_forest(lambda b: [b.variable("y"), b.add(b.variable("x"), b.constant(1))])
        with pytest.raises(UnboundVariableError) as err:
            eval_dag(dag, roots[1], {"x": 1})
        assert err.value.name == "y"
        assert eval_dag(dag, roots[1], {"x": 1, "y": 2}) == 2
        with pytest.raises(UnboundVariableError) as err:
            eval_dag(dag, roots[0], {"y": 2})
        assert err.value.name == "x"


class TestEmitNetlist:
    def test_mul4(self):
        root, dag = build_dag(helpers.exp_mul4)
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
        root, dag = build_dag(helpers.exp_mul4)
        with pytest.raises(KeyError):
            emit_netlist(dag, [root + 1])


class TestEmitThreeAddr:
    def test_single_constant(self):
        root, dag = const_dag(5)
        assert emit_threeaddr(dag, root) == "LOADI r0, 5\nRET r0\n"

    def test_mul4(self):
        root, dag = build_dag(helpers.exp_mul4)
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


class TestBackendCost:
    """Each node costs an index, an if-chain of string compares and an
    append, not a Python call."""

    @pytest.fixture(scope="class")
    def forest(self):
        return build_forest(lambda b: sklansky_shared(b, [b.variable(f"x{i}") for i in range(256)]))

    def test_eval_dag_calls_nothing_per_node(self, forest):
        roots, dag = forest
        # New int objects, so the first call walks; the second reuses it.
        env = {f"x{i}": 2**64 + i for i in range(256)}
        before = dag._memo
        value, calls = helpers.python_calls(lambda: eval_dag(dag, roots[-1], env))
        assert value == sum(range(256))
        assert calls <= 3
        assert dag._memo is not before
        memo = dag._memo
        value, calls = helpers.python_calls(lambda: eval_dag(dag, roots[-2], env))
        assert value == sum(range(255))
        assert calls <= 3
        assert dag._memo is memo

    def test_emit_threeaddr_calls_nothing_per_node(self, forest):
        roots, dag = forest
        text, calls = helpers.python_calls(lambda: emit_threeaddr(dag, roots[-1]))
        assert len(text.splitlines()) == len(dag) + 1
        assert calls <= 3

    def test_emit_netlist_calls_only_one_root_check_per_root(self, forest):
        roots, dag = forest
        text, calls = helpers.python_calls(lambda: emit_netlist(dag, roots))
        assert len(text.splitlines()) == len(dag) + len(roots)
        assert calls <= len(roots) + 3

    def test_growing_the_id_table_calls_nothing_per_node(self, forest, monkeypatch):
        roots, dag = forest
        monkeypatch.setattr(netlist, "_DECIMAL", [])
        text, calls = helpers.python_calls(lambda: emit_threeaddr(dag, roots[-1]))
        assert text == threeaddr_oracle(dag, roots[-1])
        assert calls <= 3
        monkeypatch.setattr(netlist, "_DECIMAL", [])
        text, calls = helpers.python_calls(lambda: emit_netlist(dag, roots))
        assert text == netlist_oracle(dag, roots)
        assert calls <= len(roots) + 3


def test_a_bool_root_is_a_key_error():
    """True equals the id 1 but is not an id."""
    _, dag = build_dag(lambda b: b.add(b.variable("x"), b.constant(1)))
    with pytest.raises(KeyError):
        eval_dag(dag, True, {"x": 1})
    with pytest.raises(KeyError):
        emit_netlist(dag, [True])
    with pytest.raises(KeyError):
        emit_threeaddr(dag, True)


def sklansky_forest(width, frozen):
    """The roots and Dag of a sklansky_shared forest, built on a Dag that is
    frozen only if asked: build_forest always freezes its own."""
    builder = DagBuilder()
    terms = sklansky_shared(builder, [builder.variable(f"x{i}") for i in range(width)])
    dag = Dag()
    roots = [term(dag._ids) for term in terms]
    return roots, dag.freeze() if frozen else dag


def reader_outputs(roots, dag):
    """What format_dag, emit_netlist, emit_threeaddr and eval_dag give for a forest."""
    env = {f"x{i}": i for i in range(len(roots))}
    return (
        format_dag(roots, dag),
        emit_netlist(dag, roots),
        [emit_threeaddr(dag, root) for root in roots[::64]],
        [eval_dag(dag, root, env) for root in roots],
    )


class TestUnfrozenDag:
    """The readers check a root without reading its node, so an unfrozen Dag,
    whose table's keys cannot be indexed, serves them as a frozen one does."""

    def test_the_readers_give_the_frozen_output_reading_no_node(self, monkeypatch):
        frozen = reader_outputs(*sklansky_forest(256, frozen=True))

        def refuse(*args):
            raise AssertionError("a root check read a node")

        monkeypatch.setattr(exprdag.dag, "islice", refuse)
        assert reader_outputs(*sklansky_forest(256, frozen=False)) == frozen

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("root", [9, -1, True, 1.0])
    def test_a_root_not_in_the_dag_is_a_key_error(self, root, frozen):
        roots, dag = sklansky_forest(2, frozen)
        with pytest.raises(KeyError):
            format_dag(root, dag)
        with pytest.raises(KeyError):
            format_dag([roots[0], root], dag)
        with pytest.raises(KeyError):
            emit_netlist(dag, [root])
        with pytest.raises(KeyError):
            emit_threeaddr(dag, root)
        with pytest.raises(KeyError):
            eval_dag(dag, root, {"x0": 1, "x1": 2})


def forest_of(asts):
    return build_forest(lambda b: [elaborate(ast, b) for ast in asts])


class TestIdTable:
    """Both emitters read id text from one table, netlist._DECIMAL, that
    grows to the largest Dag emitted and is only ever replaced."""

    @given(st.randoms(use_true_random=False))
    def test_large_small_larger_from_an_empty_table(self, rng):
        asts = [helpers.random_ast(rng, rng.randint(0, 7)) for _ in range(rng.randint(1, 12))]
        # A fresh input makes the last forest larger than the first.
        forests = [forest_of(asts), forest_of(asts[:1]), forest_of(asts + [("var", "fresh")])]
        assert len(forests[1][1]) <= len(forests[0][1]) < len(forests[2][1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netlist, "_DECIMAL", [])
            for roots, dag in forests:
                assert emit_netlist(dag, roots) == netlist_oracle(dag, roots)
                for root in roots:
                    assert emit_threeaddr(dag, root) == threeaddr_oracle(dag, root)

    def test_a_table_held_before_growth_is_left_as_it_was(self, monkeypatch):
        monkeypatch.setattr(netlist, "_DECIMAL", [])
        root, dag = build_dag(helpers.exp_mul4)
        emit_threeaddr(dag, root)
        held = netlist._DECIMAL
        assert held == ["0", "1", "2"]
        roots, dag = sklansky_forest(64, frozen=True)
        assert emit_netlist(dag, roots) == netlist_oracle(dag, roots)
        assert held == ["0", "1", "2"]
        assert netlist._DECIMAL == [str(i) for i in range(len(dag))]

    def test_two_threads_growing_the_table_emit_correct_text(self, monkeypatch):
        monkeypatch.setattr(netlist, "_DECIMAL", [])
        work = [sklansky_forest(width, frozen=True) for width in (16, 64)]
        wrong = []

        def emit(roots, dag):
            netlist_text, threeaddr_text = netlist_oracle(dag, roots), threeaddr_oracle(dag, roots[-1])
            for _ in range(300):
                # Back to empty each time, so every call grows the table.
                netlist._DECIMAL = []
                try:
                    texts = emit_netlist(dag, roots), emit_threeaddr(dag, roots[-1])
                except IndexError as err:
                    texts = err
                if texts != (netlist_text, threeaddr_text):
                    wrong.append(len(dag))

        threads = [threading.Thread(target=emit, args=forest) for forest in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
