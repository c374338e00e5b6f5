"""The node store, hash-consing, and DAG construction."""

import pickle

import pytest

from exprdag.dag import (
    Dag,
    DagBuilder,
    NAdd,
    NConst,
    NNeg,
    NSub,
    NVar,
    build_dag,
    build_forest,
    format_dag,
)
from exprdag.generators import mul, mul_shared, sklansky, sklansky_shared


def exp_mul4(b):
    return mul(b, 4, b.variable("i1"))


def inputs(b, count):
    return [b.variable(f"i{k}") for k in range(count)]


class CountingDag(Dag):
    """A Dag that counts hashcons calls, hits and misses alike."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def hashcons(self, node):
        self.calls += 1
        return super().hashcons(node)


def counted_forest(program):
    dag = CountingDag()
    for term in program(DagBuilder()):
        term(dag)
    return dag


MUL4_ITEMS = [(0, NVar("i1")), (1, NAdd(0, 0)), (2, NAdd(1, 1))]


class TestBiMap:
    """The node-to-id bijection (the paper's BiMap), held by Dag."""

    def test_lookup_key_on_empty_map(self):
        dag = Dag()
        assert dag.hashcons(NVar("i1")) == 0
        assert len(dag) == 1

    def test_insert_starts_at_zero_and_counts_up(self):
        dag = Dag()
        assert dag.hashcons(NVar("i1")) == 0
        assert dag.hashcons(NAdd(0, 0)) == 1
        assert len(dag) == 2

    def test_round_trip_both_directions(self):
        dag = Dag()
        node_id = dag.hashcons(NVar("i1"))
        assert dag.hashcons(NVar("i1")) == node_id == 0
        assert dag.node(0) == NVar("i1")
        assert len(dag) == 1

    def test_lookup_key_misses_on_absent_node(self):
        dag = Dag()
        dag.hashcons(NVar("i1"))
        assert dag.hashcons(NAdd(0, 0)) == 1
        assert dag.items() == [(0, NVar("i1")), (1, NAdd(0, 0))]

    def test_lookup_val_out_of_range_is_a_hard_error(self):
        dag = Dag()
        dag.hashcons(NVar("i1"))
        with pytest.raises(KeyError):
            dag.node(1)
        with pytest.raises(KeyError):
            dag.node(-1)


class TestHashcons:
    def test_first_cons_allocates_id_zero(self):
        dag = Dag()
        assert dag.hashcons(NVar("i1")) == 0
        assert dag.freeze().items() == [(0, NVar("i1"))]

    def test_consing_the_same_node_again_returns_the_same_id(self):
        dag = Dag()
        assert dag.hashcons(NVar("i1")) == 0
        assert dag.hashcons(NVar("i1")) == 0
        assert len(dag.freeze()) == 1

    def test_new_node_gets_the_next_id(self):
        dag = Dag()
        dag.hashcons(NVar("i1"))
        assert dag.hashcons(NAdd(0, 0)) == 1

    def test_the_kind_tag_separates_node_kinds(self):
        dag = Dag()
        assert dag.hashcons(NAdd(0, 1)) != dag.hashcons(NSub(0, 1))
        assert dag.hashcons(NConst(0)) != dag.hashcons(NNeg(0))
        assert len(dag) == 4

    def test_a_plain_tagged_tuple_conses_to_the_typed_node(self):
        dag = Dag()
        dag.hashcons(NVar("i1"))
        assert dag.hashcons(("add", 0, 0)) == dag.hashcons(NAdd(0, 0)) == 1
        node = dag.node(1)
        assert type(node) is NAdd
        match node:
            case NAdd(left, right):
                assert (left, right) == (0, 0)
            case _:
                pytest.fail(f"NAdd pattern did not match {node!r}")

    def test_nodes_survive_pickling(self):
        _, dag = build_dag(
            lambda b: b.sub(b.neg(b.variable("x")), b.add(b.constant(1), b.constant(1)))
        )
        again = pickle.loads(pickle.dumps(dag))
        assert again == dag
        assert [type(node) for _, node in again.items()] == [NVar, NNeg, NConst, NAdd, NSub]

    def test_frozen_session_rejects_further_consing(self):
        dag = Dag()
        dag.hashcons(NVar("i1"))
        assert dag.freeze() is dag
        with pytest.raises(RuntimeError):
            dag.hashcons(NConst(1))

    def test_frozen_dag_rejects_a_let_term_it_already_built(self):
        b = DagBuilder()
        term = mul_shared(b, 4, b.variable("i1"))
        dag = Dag()
        assert term(dag) == 2
        dag.freeze()
        with pytest.raises(RuntimeError):
            term(dag)


class TestBuildDag:
    def test_mul4_layout(self):
        root, dag = build_dag(exp_mul4)
        assert root == 2
        assert dag.items() == MUL4_ITEMS

    def test_mul8_adds_one_node(self):
        root, dag = build_dag(lambda b: mul(b, 8, b.variable("i1")))
        assert root == 3
        assert dag.items() == MUL4_ITEMS + [(3, NAdd(2, 2))]

    def test_mul_shared_15_finds_the_undeclared_sharing(self):
        root, dag = build_dag(lambda b: mul_shared(b, 15, b.variable("i")))
        assert root == 6
        assert dag.items() == [
            (0, NVar("i")),
            (1, NAdd(0, 0)),
            (2, NAdd(1, 1)),
            (3, NAdd(2, 2)),
            (4, NAdd(2, 3)),
            (5, NAdd(1, 4)),
            (6, NAdd(0, 5)),
        ]

    def test_explicit_sharing_builds_the_identical_dag(self):
        assert build_dag(lambda b: mul_shared(b, 4, b.variable("i1"))) == build_dag(exp_mul4)

    def test_build_is_deterministic(self):
        assert build_dag(exp_mul4) == build_dag(exp_mul4)

    def test_constants_are_consed_like_any_node(self):
        root, dag = build_dag(lambda b: b.add(b.constant(5), b.constant(5)))
        assert dag.items() == [(0, NConst(5)), (1, NAdd(0, 0))]
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
            (0, NVar("1")),
            (1, NVar("2")),
            (2, NAdd(0, 1)),
            (3, NVar("3")),
            (4, NAdd(2, 3)),
            (5, NVar("4")),
            (6, NAdd(3, 5)),
            (7, NAdd(2, 6)),
        ]

    def test_empty_forest(self):
        roots, dag = build_forest(lambda b: [])
        assert roots == []
        assert len(dag) == 0

    def test_two_copies_of_one_program_share_everything(self):
        def pair(b):
            return [mul(b, 4, b.variable("i1")), mul(b, 4, b.variable("i1"))]

        roots, dag = build_forest(pair)
        assert roots == [2, 2]
        assert dag.items() == MUL4_ITEMS


class TestForestCost:
    """The cost shape of forest builds, counted in hashcons calls."""

    @pytest.mark.parametrize("count", [256, 1024])
    def test_shared_forest_builds_each_let_once(self, count):
        dag = counted_forest(lambda b: sklansky_shared(b, inputs(b, count)))
        assert dag.calls <= 2 * len(dag)

    def test_unshared_forest_rebuilds_every_prefix(self):
        dag = counted_forest(lambda b: sklansky(b.add, inputs(b, 256)))
        assert len(dag) == 1280
        assert dag.calls == 256 * 256


class TestMulCost:
    """Criterion 6's cost shape, counted in hashcons calls instead of timed."""

    @pytest.mark.parametrize("n, calls", [(2**12, 8191), (2**13, 16383)])
    def test_unshared_mul_walks_the_whole_tree(self, n, calls):
        dag = counted_forest(lambda b: [mul(b, n, b.variable("i"))])
        assert dag.calls == calls == 2 * n - 1

    @pytest.mark.parametrize("n, calls", [(2**12, 13), (2**20, 21), (2**30, 31)])
    def test_shared_mul_makes_one_call_per_bit(self, n, calls):
        dag = counted_forest(lambda b: [mul_shared(b, n, b.variable("i"))])
        assert dag.calls == calls == n.bit_length()


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
        assert str(NConst(10)) == "NConst 10"
        assert str(NVar("i1")) == 'NVar "i1"'
        assert str(NAdd(0, 1)) == "NAdd 0 1"
        assert str(NNeg(2)) == "NNeg 2"
        assert str(NSub(0, 1)) == "NSub 0 1"


def test_dag_node_accessor_validates_ids():
    _, dag = build_dag(exp_mul4)
    assert dag.node(0) == NVar("i1")
    with pytest.raises(KeyError):
        dag.node(3)


def test_terms_can_be_rerun_in_fresh_sessions():
    term = exp_mul4(DagBuilder())
    first = Dag()
    second = Dag()
    assert term(first) == term(second) == 2
    assert first.freeze() == second.freeze()

    b = DagBuilder()
    terms = sklansky_shared(b, inputs(b, 8))
    first = Dag()
    second = Dag()
    assert [term(first) for term in terms] == [term(second) for term in terms]
    assert len(second) == 8 + 12
    assert first.freeze() == second.freeze()
