"""Property-based checks across the interpreters, the DAG builder, and the
parser round trip."""

import importlib.util
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exprdag import interp
from exprdag.builders import lower_to_tree
from exprdag.dag import Dag, DagBuilder, build_dag, build_forest
from exprdag.generators import mul, mul_shared, sklansky, sklansky_shared
from exprdag.interp import UnboundVariableError, evaluate, print_flat, print_let, size
from exprdag.netlist import emit_netlist, emit_threeaddr, eval_dag
from exprdag.parser import elaborate, parse

import helpers
from helpers import NAMES, asts, wide_ints

# The benchmark's reference semantics, loaded by path: it imports nothing
# from exprdag, so it checks the library against arithmetic of its own.
_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).parent.parent / "compilebench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

envs = st.fixed_dictionaries({name: wide_ints for name in NAMES})
partial_envs = st.dictionaries(st.sampled_from(NAMES), wide_ints)

# let t0 = x in let t1 = y in t0 under {x: 1}: an unused let bound's input
# is an input all the same, so evaluate raises for y, and so must eval_dag,
# though the root is the node of x.
UNREACHED_INPUT = (
    ("let", "t0", ("var", "x"), ("let", "t1", ("var", "y"), ("var", "t0"))),
    {"x": 1},
)


@given(asts(), envs)
def test_evaluate_agrees_with_the_recursive_oracle(ast, env):
    assert evaluate(helpers.program_of(ast), env) == helpers.surface_eval(ast, env)


@given(asts(), partial_envs)
def test_the_fused_walks_agree_with_the_builder_terms(ast, env):
    # An outcome is a value, or the first error's type and text.
    helpers.fused_outcomes(ast, env)


@given(asts())
def test_the_fused_let_printer_agrees_with_the_builder_terms(ast):
    # NAMES holds v0 and v1, so some renderings clash and are done again.
    helpers.shown_outcome(ast)


@given(asts(siblings=True), partial_envs)
def test_every_fused_walk_ends_a_let_scope_with_its_body(ast, env):
    helpers.fused_outcomes(ast, env)
    helpers.shown_outcome(ast)
    direct = build_forest(lambda b: [elaborate(ast, b)])
    assert direct == build_forest(lambda b: [elaborate(ast, helpers.ClosureDagBuilder())])


@given(asts())
def test_a_fused_let_term_prints_in_host_code_as_the_builder_terms_do(ast):
    # The term is used four times, twice through a let bound to it, and the
    # let body's free v0 makes print_let render again.
    def aliased(elaborated):
        def program(b):
            t = elaborated(b)
            return b.sub(b.add(t, b.let_(t, lambda u: b.add(u, b.variable("v0")))), b.neg(t))

        return program

    fused = print_let(aliased(helpers.program_of(ast)))
    assert fused == print_let(aliased(helpers.generic_program_of(ast)))


@given(asts())
@example(("sub", ("var", "x"), ("neg", ("add", ("var", "y"), ("const", -3)))))
def test_ropes_render_the_text_of_strings(ast):
    # With the rope size at 1, every let-free operator's text is a rope, in
    # let bounds and bodies too, and the term's uses put one under a neg and
    # on a sub's right side: this pins the brackets a rope carries.
    def program(b):
        t = helpers.generic_program_of(ast)(b)
        return b.sub(b.neg(t), b.sub(t, t))

    expected = helpers.outcome(lambda: print_let(program)), print_flat(program)
    with mock.patch.object(interp, "_ROPE_AT", 1):
        assert (helpers.outcome(lambda: print_let(program)), print_flat(program)) == expected


@given(asts(), partial_envs)
@example(*UNREACHED_INPUT)
def test_dag_evaluation_agrees_with_direct_evaluation(ast, env):
    # An outcome is a value, or the first error's type and text. The second
    # call answers from the stored values, and the third env's new int
    # objects make eval_dag walk the Dag again.
    program = helpers.program_of(ast)
    root, dag = build_dag(program)
    expected = helpers.outcome(lambda: evaluate(program, env))
    assert helpers.outcome(lambda: eval_dag(dag, root, env)) == expected
    assert helpers.outcome(lambda: eval_dag(dag, root, env)) == expected
    env = {name: value + 1 for name, value in env.items()}
    expected = helpers.outcome(lambda: evaluate(program, env))
    assert helpers.outcome(lambda: eval_dag(dag, root, env)) == expected


@given(asts(), partial_envs)
@example(*UNREACHED_INPUT)
def test_every_backend_branch_agrees_with_its_oracle_on_frozen_and_growing_dags(ast, env):
    # Each backend picks a node's operation by an if-chain on its kind tag.
    # The oracles format every node by itself, and evaluate walks the tree.
    # The same nodes, consed again into a Dag that stays unfrozen, reach the
    # chains through the table's keys view instead of a list.
    program = helpers.program_of(ast)
    root, dag = build_dag(program)
    regrown = Dag()
    for node_id, node in dag.items():
        assert regrown.hashcons(node) == node_id
    netlist, threeaddr = helpers.netlist_oracle(dag, [root]), helpers.threeaddr_oracle(dag, root)
    expected = helpers.outcome(lambda: evaluate(program, env))
    for backend_dag in (dag, regrown):
        assert emit_netlist(backend_dag, [root]) == netlist
        assert emit_threeaddr(backend_dag, root) == threeaddr
        assert helpers.outcome(lambda: eval_dag(backend_dag, root, env)) == expected


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


@given(asts(with_let=False))
@example(("sub", ("neg", ("sub", ("var", "x"), ("const", -3))), ("neg", ("neg", ("var", "y")))))
def test_flat_text_is_let_text_without_its_brackets(ast):
    # FlatPrinter builds LetPrinter's text and puts no brackets in, at the
    # default rope size and with every let-free operator's text a rope.
    program = helpers.program_of(ast)
    expected = print_let(program).replace("(", "").replace(")", "")
    assert print_flat(program) == expected
    with mock.patch.object(interp, "_ROPE_AT", 1):
        assert print_flat(program) == expected


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


@given(asts())
def test_a_build_looks_up_the_table_once_per_constructor(ast):
    # The paper's cost claim as an exact count: with each let term run once,
    # a build makes one table lookup per constructor of the program as
    # written, a let-bound name's uses free, and one miss per node.
    program = helpers.program_of(ast)
    dag, table, builder = helpers.counted_forest(lambda b: [program(b)])
    assert builder.let_runs == builder.bodies_run == builder.lets
    assert table.calls == size(program)
    assert table.misses == len(dag)
    assert dag.freeze() == build_dag(program)[1]


@given(asts())
def test_the_direct_walk_looks_up_the_table_once_per_constructor(ast):
    # The same law on an exact DagBuilder, whose elaborate term conses the
    # tree itself and makes no let terms.
    program = helpers.program_of(ast)
    dag, table, _ = helpers.counted_forest(lambda b: [program(b)], DagBuilder())
    assert table.calls == size(program)
    assert table.misses == len(dag)


@given(asts())
def test_the_direct_walk_builds_what_the_builder_terms_build(ast):
    direct_roots, direct = build_forest(lambda b: [elaborate(ast, b)])
    roots, dag = build_forest(lambda b: [elaborate(ast, helpers.ClosureDagBuilder())])
    assert direct_roots == roots
    assert direct.items() == dag.items()


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


@given(asts(with_neg=False))
def test_print_let_round_trip_preserves_size_without_neg_nodes(ast):
    # print_let promises the value, not the tree: a let or an operator on
    # an operator's right re-parses differently but with the same size.
    # Only a neg node can change it, since -97 re-parses as the constant -97.
    program = helpers.program_of(ast)
    assert size(helpers.program_of(parse(print_let(program)))) == size(program)


@given(asts(siblings=True), envs)
def test_an_independent_reference_agrees_with_every_evaluator(ast, env):
    # compilebench/reference.py shares no code or arithmetic with exprdag: it
    # runs the two emitted listings and the printed text by itself.
    program = helpers.program_of(ast)
    value = evaluate(program, env)
    root, dag = build_dag(program)
    assert eval_dag(dag, root, env) == value
    assert reference.run_netlist(emit_netlist(dag, [root]), env) == [value]
    assert reference.run_threeaddr(emit_threeaddr(dag, root), env) == value
    assert reference.eval_text(print_let(program), env) == value


@given(asts(siblings=True), partial_envs)
@example(*UNREACHED_INPUT)
def test_an_independent_reference_stops_at_the_same_unbound_input(ast, env):
    # Under a partial env, evaluate and eval_dag name the same first unbound
    # input, and the reference's runners stop at that input of the listings.
    program = helpers.program_of(ast)
    root, dag = build_dag(program)
    try:
        value = evaluate(program, env)
    except UnboundVariableError as err:
        expected = UnboundVariableError, str(err)
        listed = outs = reference.Mismatch, f"unbound input {err.name!r}"
    else:
        expected = listed = value
        outs = [value]
    assert helpers.outcome(lambda: eval_dag(dag, root, env)) == expected
    assert helpers.outcome(lambda: reference.run_netlist(emit_netlist(dag, [root]), env)) == outs
    assert helpers.outcome(lambda: reference.run_threeaddr(emit_threeaddr(dag, root), env)) == listed


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
