"""The multiplication and running-sum workload generators."""

import gc
import operator
import weakref

import pytest

from exprdag.builders import TreeBuilder, lower_to_tree
from exprdag.dag import build_dag, build_forest
from exprdag.generators import mul, mul_shared, sklansky, sklansky_shared
from exprdag.interp import evaluate, print_let, size

import helpers


class TestMul:
    def test_mul4_duplicates_the_doubled_operand(self):
        tree = lower_to_tree(lambda b: mul(b, 4, b.variable("i1")))
        doubled = ("add", ("var", "i1"), ("var", "i1"))
        assert tree == ("add", doubled, doubled)

    def test_zero_is_the_zero_constant(self):
        assert lower_to_tree(lambda b: mul(b, 0, b.variable("x"))) == ("const", 0)

    def test_one_is_the_operand_itself(self):
        assert lower_to_tree(lambda b: mul(b, 1, b.variable("x"))) == ("var", "x")

    def test_negative_multiplier_negates(self):
        tree = lower_to_tree(lambda b: mul(b, -3, b.variable("x")))
        assert tree[0] == "neg"
        assert evaluate(lambda b: mul(b, -3, b.variable("x")), {"x": 4}) == -12

    def test_values_match_plain_multiplication(self):
        for n in (0, 1, 2, 3, 7, 12, 100, 255, 1000):
            assert evaluate(lambda b, n=n: mul(b, n, b.variable("i")), {"i": 13}) == n * 13
            assert evaluate(lambda b, n=n: mul_shared(b, n, b.variable("i")), {"i": 13}) == n * 13

    def test_tree_size_is_exponential_in_the_doubling_count(self):
        for k in (0, 1, 4, 10, 16):
            assert size(lambda b, k=k: mul(b, 2**k, b.variable("v"))) == 2 ** (k + 1) - 1


@pytest.mark.parametrize("generator", [mul, mul_shared])
@pytest.mark.parametrize("n", [0.5, 2.5, True, 3.0, "4"])
def test_a_multiplier_that_is_not_an_int_is_a_type_error(generator, n):
    expected = f"multiplier must be an int, not {type(n).__name__}"
    with pytest.raises(TypeError, match=expected):
        evaluate(lambda b: generator(b, n, b.variable("x")), {"x": 5})


class TestMulShared:
    def test_eval_matches_the_unshared_version(self):
        assert evaluate(lambda b: mul_shared(b, 4, b.variable("i1")), {"i1": 5}) == 20

    def test_printout_shows_the_declared_sharing(self):
        expected = (
            "i + let v0 = i in v0 + v0 + "
            "let v1 = v0 + v0 in v1 + v1 + let v2 = v1 + v1 in v2 + v2"
        )
        assert print_let(lambda b: mul_shared(b, 15, b.variable("i"))) == expected

    def test_huge_multiplier_builds_a_tiny_dag(self):
        program = lambda b: mul_shared(b, 2**30 - 1, b.variable("i"))
        root, dag = build_dag(program)
        assert len(dag) == 59
        assert root == 58
        # independent count of structurally distinct subtrees
        assert helpers.distinct_subtree_count(lower_to_tree(program)) == 59

    def test_same_dag_as_mul_for_sampled_multipliers(self):
        for n in (0, 1, 2, 3, 6, 12, 15, 64, 100, 255, 1000):
            unshared = build_dag(lambda b, n=n: mul(b, n, b.variable("i")))
            shared = build_dag(lambda b, n=n: mul_shared(b, n, b.variable("i")))
            assert unshared == shared

    def test_dag_node_count_is_logarithmic(self):
        for k in (0, 1, 5, 12, 20, 30):
            _, dag = build_dag(lambda b, k=k: mul_shared(b, 2**k, b.variable("v")))
            assert len(dag) == k + 1


class TestSklansky:
    def test_bracketed_rendering_of_four_inputs(self):
        v1, v2, v3, v4 = (("var", f"v{i}") for i in range(1, 5))
        rendered = sklansky(TreeBuilder().add, [v1, v2, v3, v4])
        v12 = ("add", v1, v2)
        expected = [v1, v12, ("add", v12, v3), ("add", v12, ("add", v3, v4))]
        assert rendered == expected

    def test_empty_input(self):
        assert sklansky(lambda a, b: a + b, []) == []

    def test_singleton_input(self):
        assert sklansky(lambda a, b: a + b, ["x"]) == ["x"]

    def test_prefix_sums_over_plain_integers(self):
        values = [5, -2, 7, 1, 0, 3, 9]
        result = sklansky(lambda a, b: a + b, values)
        assert result == [sum(values[: i + 1]) for i in range(len(values))]

    def test_element_i_evaluates_to_the_sum_of_inputs_up_to_i(self):
        import random

        rng = random.Random(7)
        values = [rng.randint(-100, 100) for _ in range(11)]
        env = {f"x{i}": v for i, v in enumerate(values)}

        def programs(b):
            return sklansky(b.add, [b.variable(f"x{i}") for i in range(len(values))])

        for i in range(len(values)):
            got = evaluate(lambda b, i=i: programs(b)[i], env)
            assert got == sum(values[: i + 1])

    def test_same_results_and_combine_calls_as_the_slicing_reference(self):
        def logging(calls):
            def combine(a, b):
                calls.append((a, b))
                return (a, b)

            return combine

        for n in range(71):
            inputs = list(range(n))
            got_calls, want_calls = [], []
            got = sklansky(logging(got_calls), inputs)
            want = helpers.reference_sklansky(logging(want_calls), inputs)
            assert got == want
            assert got_calls == want_calls
            assert inputs == list(range(n))

    def test_frames_entered_are_linear_in_the_input_count(self):
        # one frame per span of the subdivision (2 * 256 - 1), plus sklansky
        # and the lambda; operator.add is a builtin and enters none
        result, calls = helpers.python_calls(lambda: sklansky(operator.add, range(256)))
        assert result[-1] == sum(range(256))
        assert calls <= 2 * 256 + 1

    def test_inputs_are_freed_without_the_cyclic_collector(self):
        class Item:
            pass

        items = [Item() for _ in range(256)]
        refs = [weakref.ref(item) for item in items]
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = sklansky(lambda a, b: b, items)
            del items, result
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()


class TestSklanskyShared:
    def test_four_inputs_build_the_same_forest_as_unshared(self):
        unshared = build_forest(lambda b: sklansky(b.add, [b.variable(str(i)) for i in range(1, 5)]))
        shared = build_forest(lambda b: sklansky_shared(b, [b.variable(str(i)) for i in range(1, 5)]))
        assert shared == unshared
        assert shared[0] == [0, 2, 4, 7]
        assert len(shared[1]) == 8

    def test_empty_input(self):
        assert sklansky_shared(None, []) == []

    def test_two_inputs(self):
        roots, dag = build_forest(lambda b: sklansky_shared(b, [b.variable("v1"), b.variable("v2")]))
        assert roots == [0, 2]
        assert dag.items() == [(0, ("var", "v1")), (1, ("var", "v2")), (2, ("add", 0, 1))]

    def test_matches_unshared_forest_for_many_widths(self):
        for n in range(0, 18):
            unshared = build_forest(
                lambda b, n=n: sklansky(b.add, [b.variable(f"x{i}") for i in range(n)])
            )
            shared = build_forest(
                lambda b, n=n: sklansky_shared(b, [b.variable(f"x{i}") for i in range(n)])
            )
            assert shared == unshared

    def test_values_match_the_unshared_version(self):
        env = {f"x{i}": i * i - 3 for i in range(9)}

        def shared(b):
            return sklansky_shared(b, [b.variable(f"x{i}") for i in range(9)])

        for i in range(9):
            assert evaluate(lambda b, i=i: shared(b)[i], env) == sum(
                env[f"x{j}"] for j in range(i + 1)
            )
