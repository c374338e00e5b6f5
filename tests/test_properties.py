"""Property-based checks across the interpreters, the DAG builder, and the
parser round trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from exprdag.builders import lower_to_tree
from exprdag.dag import Dag, NAdd, NConst, NNeg, NSub, NVar, build_dag, build_forest
from exprdag.generators import mul, mul_shared, sklansky, sklansky_shared
from exprdag.interp import evaluate, print_flat, print_let, size
from exprdag.netlist import emit_netlist, emit_threeaddr, eval_dag
from exprdag.parser import parse

import helpers

# v0 and v1 are the names print_let gives its first binders, so the round
# trip also checks that no binder captures a free variable.
NAMES = helpers.FREE_NAMES + helpers.LET_NAMES + ("v0", "v1")


def leaves():
    return st.one_of(
        st.integers(-50, 50).map(NConst),
        st.sampled_from(NAMES).map(NVar),
    )


def asts(with_neg_sub=True, with_let=True):
    def extend(inner):
        options = [st.builds(NAdd, inner, inner)]
        if with_neg_sub:
            options.append(st.builds(NSub, inner, inner))
            options.append(st.builds(NNeg, inner))
        if with_let:
            let = st.tuples(st.just("let"), st.sampled_from(helpers.LET_NAMES), inner, inner)
            options.append(let)
        return st.one_of(options)

    return st.recursive(leaves(), extend, max_leaves=30)


envs = st.fixed_dictionaries({name: st.integers(-(10**12), 10**12) for name in NAMES})


@given(asts(), envs)
def test_evaluate_agrees_with_the_recursive_oracle(ast, env):
    assert evaluate(helpers.program_of(ast), env) == helpers.surface_eval(ast, env)


@given(asts(), envs)
def test_dag_evaluation_agrees_with_direct_evaluation(ast, env):
    program = helpers.program_of(ast)
    root, dag = build_dag(program)
    assert eval_dag(dag, root, env) == evaluate(program, env)


@given(asts(with_let=False), envs)
def test_let_free_programs_match_the_tree_evaluator(ast, env):
    program = helpers.program_of(ast)
    assert evaluate(program, env) == helpers.surface_eval(lower_to_tree(program), env)


@given(asts(with_let=False))
def test_size_counts_the_lowered_tree_when_nothing_is_shared(ast):
    program = helpers.program_of(ast)
    assert size(program) == helpers.tree_node_count(lower_to_tree(program))


@given(asts(with_neg_sub=False))
def test_flat_and_let_printers_agree_when_no_lets_occur(ast):
    # restricted to additions: those never need parentheses in either form
    program = helpers.program_of(ast)
    if _has_let(ast):
        return
    assert print_let(program) == print_flat(program)


def _has_let(ast):
    match ast:
        case ("let", _, _, _):
            return True
        case ("add" | "sub", left, right):
            return _has_let(left) or _has_let(right)
        case ("neg", operand):
            return _has_let(operand)
    return False


@given(asts())
def test_built_dags_are_topological_and_duplicate_free(ast):
    _root, dag = build_dag(helpers.program_of(ast))
    seen = set()
    for node_id, node in dag.items():
        assert node not in seen
        seen.add(node)
        for child in helpers.dag_children(node):
            assert 0 <= child < node_id


@given(asts())
def test_dag_node_count_matches_the_interning_oracle(ast):
    _root, dag = build_dag(helpers.program_of(ast))
    assert len(dag) == helpers.expected_dag_node_count(ast)


@given(asts(with_let=False))
def test_dag_node_count_equals_distinct_subtree_count(ast):
    # with no lets, every distinct subtree of the expanded tree is one node
    program = helpers.program_of(ast)
    _root, dag = build_dag(program)
    assert len(dag) == helpers.distinct_subtree_count(lower_to_tree(program))


@given(asts())
def test_building_twice_gives_the_same_dag(ast):
    program = helpers.program_of(ast)
    assert build_dag(program) == build_dag(program)


@given(asts())
def test_fully_annotated_variant_builds_the_identical_dag(ast):
    program = helpers.program_of(ast)
    annotated = lambda b: program(helpers.ShareEveryTerm(b))
    assert build_dag(annotated) == build_dag(program)


@given(asts())
def test_hashcons_replay_is_idempotent(ast):
    _root, dag = build_dag(helpers.program_of(ast))
    replay = Dag()
    for node_id, node in dag.items():
        assert replay.hashcons(node) == node_id
    for node_id, node in dag.items():
        assert replay.hashcons(node) == node_id
    assert len(replay.freeze()) == len(dag)


@given(asts(), envs)
def test_print_let_round_trip_preserves_evaluation(ast, env):
    program = helpers.program_of(ast)
    reparsed = helpers.program_of(parse(print_let(program)))
    assert evaluate(reparsed, env) == evaluate(program, env)


@given(asts())
def test_netlist_references_point_backward(ast):
    root, dag = build_dag(helpers.program_of(ast))
    assert helpers.netlist_refs_are_backward(emit_netlist(dag, [root]))


@given(asts())
def test_emission_sizes_follow_the_dag_not_the_tree(ast):
    root, dag = build_dag(helpers.program_of(ast))
    netlist_lines = emit_netlist(dag, [root]).splitlines()
    threeaddr_lines = emit_threeaddr(dag, root).splitlines()
    assert len(netlist_lines) == len(dag) + 1
    assert len(threeaddr_lines) == len(dag) + 1


@given(st.integers(0, 1000), st.integers(-(10**9), 10**9))
def test_mul_and_mul_shared_compute_multiplication(n, value):
    env = {"i": value}
    assert evaluate(lambda b: mul(b, n, b.variable("i")), env) == n * value
    assert evaluate(lambda b: mul_shared(b, n, b.variable("i")), env) == n * value


@settings(max_examples=50)
@given(st.integers(0, 300))
def test_mul_and_mul_shared_build_identical_dags(n):
    unshared = build_dag(lambda b: mul(b, n, b.variable("i")))
    shared = build_dag(lambda b: mul_shared(b, n, b.variable("i")))
    assert unshared == shared


@given(st.lists(st.integers(-(10**6), 10**6), max_size=40))
def test_sklansky_computes_running_sums(values):
    result = sklansky(lambda a, b: a + b, values)
    assert result == [sum(values[: i + 1]) for i in range(len(values))]


@settings(max_examples=30)
@given(st.integers(0, 24))
def test_sklansky_shared_forest_matches_unshared(n):
    unshared = build_forest(lambda b: sklansky(b.add, [b.variable(f"x{i}") for i in range(n)]))
    shared = build_forest(lambda b: sklansky_shared(b, [b.variable(f"x{i}") for i in range(n)]))
    assert shared == unshared
