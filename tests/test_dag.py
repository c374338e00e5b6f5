"""The node store, hash-consing, and DAG construction."""

import collections
import copy
import functools
import pickle
import re

import pytest

from exprdag.dag import Dag, DagBuilder, build_dag, build_forest, format_dag
from exprdag.generators import mul, mul_shared, sklansky, sklansky_shared

import helpers


def exp_mul4(b):
    return mul(b, 4, b.variable("i1"))


def inputs(b, count):
    return [b.variable(f"i{k}") for k in range(count)]


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
MUL4_ITEMS = [(0, ("var", "i1")), (1, ("add", 0, 0)), (2, ("add", 1, 1))]


class TestBiMap:
    """The node-to-id bijection (the paper's BiMap), held by Dag."""

    def test_lookup_key_on_empty_map(self):
        dag = Dag()
        assert dag.hashcons(("var", "i1")) == 0
        assert len(dag) == 1

    def test_insert_starts_at_zero_and_counts_up(self):
        dag = Dag()
        assert dag.hashcons(("var", "i1")) == 0
        assert dag.hashcons(("add", 0, 0)) == 1
        assert len(dag) == 2

    def test_round_trip_both_directions(self):
        dag = Dag()
        node_id = dag.hashcons(("var", "i1"))
        assert dag.hashcons(("var", "i1")) == node_id == 0
        assert dag.node(0) == ("var", "i1")
        assert len(dag) == 1

    def test_lookup_key_misses_on_absent_node(self):
        dag = Dag()
        dag.hashcons(("var", "i1"))
        assert dag.hashcons(("add", 0, 0)) == 1
        assert dag.items() == [(0, ("var", "i1")), (1, ("add", 0, 0))]

    def test_lookup_val_out_of_range_is_a_hard_error(self):
        dag = Dag()
        dag.hashcons(("var", "i1"))
        with pytest.raises(KeyError):
            dag.node(1)
        with pytest.raises(KeyError):
            dag.node(-1)


class TestHashcons:
    def test_first_cons_allocates_id_zero(self):
        dag = Dag()
        assert dag.hashcons(("var", "i1")) == 0
        assert dag.freeze().items() == [(0, ("var", "i1"))]

    def test_consing_the_same_node_again_returns_the_same_id(self):
        dag = Dag()
        assert dag.hashcons(("var", "i1")) == 0
        assert dag.hashcons(("var", "i1")) == 0
        assert len(dag.freeze()) == 1

    def test_new_node_gets_the_next_id(self):
        dag = Dag()
        dag.hashcons(("var", "i1"))
        assert dag.hashcons(("add", 0, 0)) == 1

    def test_the_kind_tag_separates_node_kinds(self):
        dag = Dag()
        dag.hashcons(("var", "x"))
        dag.hashcons(("var", "y"))
        assert dag.hashcons(("add", 0, 1)) != dag.hashcons(("sub", 0, 1))
        assert dag.hashcons(("const", 0)) != dag.hashcons(("neg", 0))
        assert len(dag) == 6

    def test_a_node_is_stored_as_the_plain_tagged_tuple(self):
        dag = Dag()
        dag.hashcons(("var", "i1"))
        assert dag.hashcons(("add", 0, 0)) == dag.hashcons(("add", 0, 0)) == 1
        node = dag.node(1)
        assert node == ("add", 0, 0)
        assert type(node) is tuple
        match node:
            case ("add", left, right):
                assert (left, right) == (0, 0)
            case _:
                pytest.fail(f"add pattern did not match {node!r}")

    @pytest.mark.parametrize(
        "node",
        [
            ("mul", 0, 1),
            ("add", 0),
            ("neg", 0, 1),
            ("const",),
            (),
            ("add", -1, 0),
            ("add", 0, 1),
            ("add", 5, 9),
            ("neg", True),
            ("const", 1.5),
            ("const", True),
            ("const", "x"),
            ("var", ""),
            ("var", 3),
            5,
            ["var", "x"],
            None,
            ([1],),  # unhashable tags: the kind test must not hash them
            ({}, 1),
            (["add"], 0, 0),
        ],
    )
    def test_a_malformed_node_is_rejected_and_not_stored(self, node):
        dag = Dag()
        dag.hashcons(("var", "x"))
        with pytest.raises(ValueError, match="not a DAG node"):
            dag.hashcons(node)
        assert len(dag) == 1

    def test_nodes_survive_pickling(self):
        _, dag = build_dag(
            lambda b: b.sub(b.neg(b.variable("x")), b.add(b.constant(1), b.constant(1)))
        )
        again = pickle.loads(pickle.dumps(dag))
        assert again == dag
        assert [node[0] for _, node in again.items()] == ["var", "neg", "const", "add", "sub"]

    def test_an_unfrozen_dag_keeps_consing_after_pickling(self):
        b = DagBuilder()
        dag = Dag()
        assert b.add(b.variable("x"), b.constant(1))(dag._ids) == 2
        again = pickle.loads(pickle.dumps(dag))
        assert b.neg(b.add(b.variable("x"), b.constant(1)))(again._ids) == 3
        assert again.hashcons(("sub", 3, 0)) == 4
        assert again.hashcons(("add", 0, 1)) == 2
        assert again.items()[3:] == [(3, ("neg", 2)), (4, ("sub", 3, 0))]
        assert len(again) == 5 and len(dag) == 3

    @pytest.mark.parametrize(
        "round_trip",
        [
            *(
                functools.partial(lambda p, dag: pickle.loads(pickle.dumps(dag, p)), protocol)
                for protocol in PROTOCOLS
            ),
            copy.copy,
            copy.deepcopy,
        ],
        ids=[f"pickle{p}" for p in PROTOCOLS] + ["copy", "deepcopy"],
    )
    def test_a_round_trip_keeps_the_nodes_and_whether_the_dag_is_frozen(self, round_trip):
        b = DagBuilder()
        term = b.add(b.variable("x"), b.constant(1))
        dag = Dag()
        assert term(dag._ids) == 2
        again = round_trip(dag)
        assert again is not dag and again == dag
        # a plain defaultdict: a class-statement subclass pays more per subscript
        assert type(dag._ids) is type(again._ids) is collections.defaultdict
        assert b.neg(term)(again._ids) == 3
        assert again.hashcons(("add", 0, 1)) == 2
        assert len(again) == 4 and len(dag) == 3
        assert again.node(3) == ("neg", 2)

        frozen = round_trip(dag.freeze())
        assert frozen is not dag and frozen == dag
        assert frozen.items() == [(0, ("var", "x")), (1, ("const", 1)), (2, ("add", 0, 1))]
        for run in (term, b.neg(term)):
            with pytest.raises(RuntimeError, match="Dag is frozen"):
                run(frozen._ids)
        assert len(frozen) == 3

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_pickle_holds_no_itertools_object(self, protocol):
        """Pickling an itertools object warns from Python 3.12 and fails
        from 3.14, so a Dag pickles its nodes, not its table's counter."""
        dag = Dag()
        dag.hashcons(("var", "x"))
        assert b"itertools" not in pickle.dumps(dag, protocol)

    def test_frozen_session_rejects_further_consing(self):
        dag = Dag()
        dag.hashcons(("var", "i1"))
        assert dag.freeze() is dag
        with pytest.raises(RuntimeError):
            dag.hashcons(("const", 1))
        with pytest.raises(RuntimeError):
            dag.hashcons(("var", "i1"))
        with pytest.raises(RuntimeError):
            DagBuilder().variable("i1")(dag._ids)
        assert dag.items() == [(0, ("var", "i1"))]

    def test_frozen_dag_rejects_a_let_term_it_already_built(self):
        b = DagBuilder()
        term = mul_shared(b, 4, b.variable("i1"))
        dag = Dag()
        assert term(dag._ids) == 2
        dag.freeze()
        with pytest.raises(RuntimeError):
            term(dag._ids)

    def test_a_leaked_alias_let_stores_nothing_in_a_frozen_dag(self):
        """A let whose bound is another let's shared id makes no lookup, so
        it runs against a frozen Dag; it must leave nothing behind there."""
        leaked = []

        def program(b):
            def body(u):
                leaked.append(b.let_(u, lambda w: w))
                return b.add(u, u)

            return b.let_(b.variable("x"), body)

        _, dag = build_dag(program)
        items = dag.items()
        assert leaked[0](dag._ids) == leaked[0](dag._ids) == 0
        assert dag.items() == items
        assert len(dag._ids) == 0 and vars(dag._ids) == {}


class TestBuildDag:
    def test_mul4_layout(self):
        root, dag = build_dag(exp_mul4)
        assert root == 2
        assert dag.items() == MUL4_ITEMS

    def test_mul8_adds_one_node(self):
        root, dag = build_dag(lambda b: mul(b, 8, b.variable("i1")))
        assert root == 3
        assert dag.items() == MUL4_ITEMS + [(3, ("add", 2, 2))]

    def test_mul_shared_15_finds_the_undeclared_sharing(self):
        root, dag = build_dag(lambda b: mul_shared(b, 15, b.variable("i")))
        assert root == 6
        assert dag.items() == [
            (0, ("var", "i")),
            (1, ("add", 0, 0)),
            (2, ("add", 1, 1)),
            (3, ("add", 2, 2)),
            (4, ("add", 2, 3)),
            (5, ("add", 1, 4)),
            (6, ("add", 0, 5)),
        ]

    def test_explicit_sharing_builds_the_identical_dag(self):
        assert build_dag(lambda b: mul_shared(b, 4, b.variable("i1"))) == build_dag(exp_mul4)

    def test_build_is_deterministic(self):
        assert build_dag(exp_mul4) == build_dag(exp_mul4)

    def test_constants_are_consed_like_any_node(self):
        root, dag = build_dag(lambda b: b.add(b.constant(5), b.constant(5)))
        assert dag.items() == [(0, ("const", 5)), (1, ("add", 0, 0))]
        assert root == 1

    def test_dag_equality_is_by_association_list(self):
        _, one = build_dag(exp_mul4)
        _, two = build_dag(exp_mul4)
        assert one == two
        _, other = build_dag(lambda b: mul(b, 8, b.variable("i1")))
        assert one != other


class TestBuildForest:
    def test_running_sums_share_across_roots(self):
        roots, dag = build_forest(
            lambda b: sklansky(b.add, [b.variable(str(i)) for i in range(1, 5)])
        )
        assert roots == [0, 2, 4, 7]
        assert dag.items() == [
            (0, ("var", "1")),
            (1, ("var", "2")),
            (2, ("add", 0, 1)),
            (3, ("var", "3")),
            (4, ("add", 2, 3)),
            (5, ("var", "4")),
            (6, ("add", 3, 5)),
            (7, ("add", 2, 6)),
        ]

    def test_empty_forest(self):
        roots, dag = build_forest(lambda b: [])
        assert roots == []
        assert len(dag) == 0

    @pytest.mark.parametrize("result", [("var", "y"), True, 1.5, None], ids=repr)
    def test_a_root_that_is_not_a_term_is_named(self, result):
        message = f"^not an expression tree: {re.escape(repr(result))}$"
        with pytest.raises(TypeError, match=message):
            build_dag(lambda b: result)
        with pytest.raises(TypeError, match=message):
            build_forest(lambda b: [b.variable("x"), result])

    def test_a_type_error_inside_a_term_propagates_unchanged(self):
        def term(ids):
            raise TypeError("raised inside the term")

        with pytest.raises(TypeError, match="^raised inside the term$"):
            build_dag(lambda b: b.add(b.variable("x"), term))

    def test_two_copies_of_one_program_share_everything(self):
        def pair(b):
            return [mul(b, 4, b.variable("i1")), mul(b, 4, b.variable("i1"))]

        roots, dag = build_forest(pair)
        assert roots == [2, 2]
        assert dag.items() == MUL4_ITEMS


class TestForestCost:
    """The cost shape of forest builds, counted in node-table lookups."""

    @pytest.mark.parametrize(
        "count, calls, let_runs, lets",
        [(256, 1408, 1920, 1024), (1024, 6656, 9728, 5120)],
        ids=["256", "1024"],
    )
    def test_shared_forest_builds_each_let_once(self, count, calls, let_runs, lets):
        _, table, builder = helpers.counted_forest(
            lambda b: sklansky_shared(b, inputs(b, count))
        )
        assert table.calls == calls
        assert builder.let_runs == let_runs
        assert builder.bodies_run == builder.lets == lets

    def test_unshared_forest_rebuilds_every_prefix(self):
        dag, table, _ = helpers.counted_forest(lambda b: sklansky(b.add, inputs(b, 256)))
        assert len(dag) == table.misses == 1280
        assert table.calls == 256 * 256


class TestMulCost:
    """Criterion 6's cost shape, counted in node-table lookups instead of timed."""

    @pytest.mark.parametrize("n, calls", [(2**12, 8191), (2**13, 16383)])
    def test_unshared_mul_walks_the_whole_tree(self, n, calls):
        _, table, _ = helpers.counted_forest(lambda b: [mul(b, n, b.variable("i"))])
        assert table.calls == calls == 2 * n - 1

    @pytest.mark.parametrize("n, calls", [(2**12, 13), (2**20, 21), (2**30, 31)])
    def test_shared_mul_makes_one_call_per_bit(self, n, calls):
        _, table, _ = helpers.counted_forest(lambda b: [mul_shared(b, n, b.variable("i"))])
        assert table.calls == calls == n.bit_length()

    def test_a_hash_cons_hit_runs_no_python_frame(self):
        """One frame per add visit (4,095 here), none per leaf visit, and a
        few for the misses and the program; a frame per leaf visit as well
        would make about 8,200, and per lookup as well about 16,400."""
        program = lambda b: mul(b, 2**12, b.variable("x"))
        _, calls = helpers.python_calls(lambda: build_dag(program))
        assert calls < 4200

    @pytest.mark.parametrize(
        "leaf", [lambda b: b.constant(7), lambda b: b.variable("x")], ids=["constant", "variable"]
    )
    def test_a_leaf_term_runs_no_python_frame(self, leaf):
        """A leaf is an itemgetter and the table a defaultdict whose factory
        is a C callable: neither a miss nor a hit runs a Python frame."""
        run = functools.partial(leaf(DagBuilder()), Dag()._ids)
        assert helpers.python_calls(run) == (0, 0)
        assert helpers.python_calls(run) == (0, 0)


class TestDisplay:
    def test_single_root_format(self):
        root, dag = build_dag(exp_mul4)
        assert format_dag(root, dag) == '(2,DAG BiMap[(0,NVar "i1"),(1,NAdd 0 0),(2,NAdd 1 1)])'

    def test_forest_format(self):
        roots, dag = build_forest(
            lambda b: sklansky(b.add, [b.variable(str(i)) for i in range(1, 5)])
        )
        expected = (
            '([0,2,4,7],DAG BiMap[(0,NVar "1"),(1,NVar "2"),(2,NAdd 0 1),'
            '(3,NVar "3"),(4,NAdd 2 3),(5,NVar "4"),(6,NAdd 3 5),(7,NAdd 2 6)])'
        )
        assert format_dag(roots, dag) == expected

    def test_empty_forest_format(self):
        assert format_dag([], Dag()) == "([],DAG BiMap[])"

    def test_node_display_forms(self):
        dag = Dag()
        for node in [("const", 10), ("var", "i1"), ("add", 0, 1), ("neg", 2), ("sub", 0, 1), ("const", -3)]:
            dag.hashcons(node)
        assert format_dag(5, dag) == (
            '(5,DAG BiMap[(0,NConst 10),(1,NVar "i1"),(2,NAdd 0 1),'
            "(3,NNeg 2),(4,NSub 0 1),(5,NConst -3)])"
        )

    @pytest.mark.parametrize("roots", [9, -1, [0, 9], True, [0, True], 1.0])
    def test_a_root_outside_the_dag_is_a_key_error(self, roots):
        _, dag = build_dag(exp_mul4)
        with pytest.raises(KeyError):
            format_dag(roots, dag)


def test_dag_node_accessor_validates_ids():
    _, dag = build_dag(exp_mul4)
    assert dag.node(0) == ("var", "i1")
    for node_id in (3, True, 1.0):
        with pytest.raises(KeyError):
            dag.node(node_id)


def test_terms_can_be_rerun_in_fresh_sessions():
    term = exp_mul4(DagBuilder())
    first = Dag()
    second = Dag()
    assert term(first._ids) == term(second._ids) == 2
    assert first.freeze() == second.freeze()

    b = DagBuilder()
    terms = sklansky_shared(b, inputs(b, 8))
    first = Dag()
    second = Dag()
    assert [term(first._ids) for term in terms] == [term(second._ids) for term in terms]
    assert len(second) == 8 + 12
    assert first.freeze() == second.freeze()


def test_a_let_term_run_on_two_dags_in_turn_keeps_each_dags_ids():
    """A let term keeps only the table it last ran on, so running it on two
    Dags in turn rebuilds it each time, and hash-consing gives back the ids
    that Dag already holds."""
    b = helpers.CountingBuilder()
    term = b.let_(b.variable("x"), lambda x: b.add(x, b.constant(1)))
    first, second = Dag(), Dag()
    second.hashcons(("var", "y"))
    assert term(first._ids) == term(first._ids) == 2
    assert b.bodies_run == 1
    items = first.items()
    for _ in range(2):
        assert term(second._ids) == 3
        assert term(first._ids) == 2
    assert first.items() == items
    assert len(second) == 4
    assert b.bodies_run == 5


def test_a_let_term_builds_on_every_table_it_has_not_built_on():
    """A fresh Dag may reuse a freed table's memory, and a refused build
    records nothing, so neither can return an id built elsewhere."""
    b = DagBuilder()
    term = b.let_(b.variable("x"), lambda x: b.add(x, x))
    for _ in range(3):
        dag = Dag()
        assert term(dag._ids) == 1
        assert len(dag) == 2
        del dag
    dag = Dag().freeze()
    for _ in range(2):
        with pytest.raises(RuntimeError):
            term(dag._ids)
