"""Hash-consed DAG representation and the DAG-building interpreter.

A compiled program is a dense array of flat nodes where structurally equal
subexpressions occupy exactly one slot and every node's children sit at
smaller ids. A node is a plain kind-tagged tuple such as
``("add", left, right)``, which ``NAdd(left, right)`` builds, so the
hash-consing table hashes and compares nodes as tuples; given subtrees for
ids, the same functions build a tree. A DagBuilder term is a plain function
from the Dag under construction to the term's node id.
Construction works bottom-up: consing a node is one lookup in the Dag's
node-to-id table, which stores the node itself on a miss. The explicit
sharing form runs its bound expression once and replicates its id, and a
let term is built once per Dag however many roots reach it; that is what
makes compact programs build in time proportional to the DAG rather than to
the expanded tree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .builders import FullBuilder, Program, require_int, require_name

NodeId = int


def NConst(value: int) -> tuple:
    return ("const", value)


def NVar(name: str) -> tuple:
    return ("var", name)


def NAdd(left: NodeId, right: NodeId) -> tuple:
    return ("add", left, right)


def NNeg(operand: NodeId) -> tuple:
    return ("neg", operand)


def NSub(left: NodeId, right: NodeId) -> tuple:
    return ("sub", left, right)


#: Each node kind's tuple length and its text in format_dag. hashcons admits
#: only these shapes, so a 5-way match on them covers every stored node.
_KINDS = {
    "const": (2, "NConst {}"),
    "var": (2, 'NVar "{}"'),
    "add": (3, "NAdd {} {}"),
    "neg": (2, "NNeg {}"),
    "sub": (3, "NSub {} {}"),
}


class _NodeTable(dict):
    """A Dag's node-to-id dict: a miss appends the node to ``nodes``."""

    __slots__ = ("nodes",)

    def __missing__(self, node: tuple) -> NodeId:
        node_id = self[node] = len(self.nodes)
        self.nodes.append(node)
        return node_id


class _FrozenTable(dict):
    """The empty table of a frozen Dag: every lookup is refused."""

    def __missing__(self, node: tuple) -> NodeId:
        raise RuntimeError("Dag is frozen")


class Dag:
    """A sharing-maximal node store: the hash-consing table.

    A dict maps each node to its id and a list maps each id back to it. Ids
    are dense from 0, children live at smaller ids, and no two ids hold equal
    nodes. A build grows one Dag by table lookups and freezes it on handoff,
    dropping the dict: a frozen Dag, as build_dag returns, refuses lookups.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple, NodeId] = _NodeTable()
        self._ids.nodes = self._nodes = []
        self._lets: dict[object, NodeId] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def hashcons(self, node: tuple) -> NodeId:
        """Return the id of an equal existing node, inserting on a miss.

        The node is a kind-tagged tuple such as ``("add", 0, 1)``. A ValueError,
        storing nothing, rejects an unknown kind or length, a const that is not
        an int, a var not a non-empty str, or a child not already in this Dag.
        """
        kind = node[0] if node else None
        if kind not in _KINDS or _KINDS[kind][0] != len(node) or not (
            type(node[1]) is int if kind == "const"
            else type(node[1]) is str and node[1] != "" if kind == "var"
            else all(type(child) is int and 0 <= child < len(self) for child in node[1:])
        ):
            raise ValueError(f"not a DAG node: {node!r}")
        return self._ids[node]

    def freeze(self) -> Dag:
        """Refuse every further lookup, let terms included, and return this Dag."""
        self._ids = _FrozenTable()
        self._lets.clear()
        return self

    def node(self, node_id: NodeId) -> tuple:
        """The node at an id; an id that is not an int in range is a KeyError."""
        if type(node_id) is not int or not 0 <= node_id < len(self._nodes):
            raise KeyError(node_id)
        return self._nodes[node_id]

    def items(self) -> list[tuple[NodeId, tuple]]:
        return list(enumerate(self._nodes))

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return self._nodes == other._nodes

    def __repr__(self):
        return f"Dag({self.items()!r})"


#: Second name for Dag, for callers that build with
#: ``BuildSession().hashcons(...)`` and ``.freeze()``.
BuildSession = Dag


#: A DagBuilder term: running it conses the term's nodes into a Dag by
#: indexing its table, and yields the term's node id. Terms stay deferred
#: rather than already-built ids, so a term that appears twice is built twice
#: unless the program shares it with let_; hash-consing still collapses the
#: duplicates. A let_ term is built once per Dag: later runs against the same
#: Dag return the id the first run built.
DagTerm = Callable[[Dag], NodeId]


class DagBuilder(FullBuilder[DagTerm]):
    """Builds hash-consed DAGs bottom-up, left to right.

    let_ is the one construct that forces a computation exactly once and
    hands every use in the body the already-allocated id. Its term keeps
    that id in the Dag under a key of its own, not under itself: a key
    naming the closure would put every let term in a reference cycle.
    """

    def constant(self, value):
        require_int(value)
        key = ("const", value)
        return lambda dag: dag._ids[key]

    def variable(self, name):
        require_name(name)
        key = ("var", name)
        return lambda dag: dag._ids[key]

    def add(self, left, right):
        return lambda dag: dag._ids["add", left(dag), right(dag)]

    def neg(self, operand):
        return lambda dag: dag._ids["neg", operand(dag)]

    def sub(self, left, right):
        return lambda dag: dag._ids["sub", left(dag), right(dag)]

    def let_(self, bound, body):
        key = object()

        def run(dag):
            node_id = dag._lets.get(key)
            if node_id is None:
                shared = bound(dag)
                node_id = dag._lets[key] = body(lambda _dag: shared)(dag)
            return node_id

        return run


def build_dag(program: Program) -> tuple[NodeId, Dag]:
    """Compile a program to its root id and frozen Dag."""
    (root,), dag = build_forest(lambda builder: [program(builder)])
    return root, dag


def build_forest(program: Callable[[DagBuilder], Sequence[DagTerm]]) -> tuple[list[NodeId], Dag]:
    """Compile a program yielding several terms against one shared Dag.

    All terms are built in list order into a single Dag, so equal
    subexpressions are shared across independent roots, and a let term
    that several roots reach is built by the first and reused by the rest.
    """
    terms = program(DagBuilder())
    dag = Dag()
    roots = [term(dag) for term in terms]
    return roots, dag.freeze()


def format_dag(roots: NodeId | Iterable[NodeId], dag: Dag) -> str:
    """Association-list display, e.g. (2,DAG BiMap[(0,NVar "i1"),...]).

    The ``DAG BiMap[`` prefix is the paper's display form for the node table.
    A root that is not in the Dag is a KeyError.
    """

    def checked(root):
        dag.node(root)
        return str(root)

    head = checked(roots) if isinstance(roots, int) else "[" + ",".join(map(checked, roots)) + "]"
    body = ",".join(f"({i},{_KINDS[node[0]][1].format(*node[1:])})" for i, node in dag.items())
    return f"({head},DAG BiMap[{body}])"
