"""Hash-consed DAG representation and the DAG-building interpreter.

A compiled program is a dense array of flat nodes where structurally equal
subexpressions occupy exactly one slot and every node's children sit at
smaller ids. A node is a kind-tagged tuple such as ``("add", left, right)``,
so the hash-consing table hashes and compares nodes as plain tuples. A
DagBuilder term is a plain function from the Dag under construction to the
term's node id. Construction works bottom-up: consing a node first looks it
up in the Dag's node-to-id table, and only inserts on a miss. The explicit
sharing form runs its bound expression once and replicates the resulting id,
and a let term is built once per Dag however many roots reach it; that is
what makes compact programs build in time proportional to the DAG rather
than to the expanded tree.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .builders import FullBuilder, Program, require_name

NodeId = int


class Node(tuple):
    """Base of the flat node variants: the tuple ``(kind, *fields)``.

    Children are ids of earlier nodes. Equality and hashing are tuple's, so
    a node equals the plain tuple with the same kind tag and fields, and the
    tag keeps nodes of different kinds apart.
    """

    __slots__ = ()

    def __getnewargs__(self):
        """Pickle and copy rebuild a node from its fields, without the tag."""
        return self[1:]


class NConst(Node):
    __slots__ = ()
    __match_args__ = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: int):
        return tuple.__new__(cls, ("const", value))

    def __str__(self):
        return f"NConst {self.value}"


class NVar(Node):
    __slots__ = ()
    __match_args__ = ("name",)
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, ("var", name))

    def __str__(self):
        return f'NVar "{self.name}"'


class NAdd(Node):
    __slots__ = ()
    __match_args__ = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: NodeId, right: NodeId):
        return tuple.__new__(cls, ("add", left, right))

    def __str__(self):
        return f"NAdd {self.left} {self.right}"


class NNeg(Node):
    __slots__ = ()
    __match_args__ = ("operand",)
    operand = property(itemgetter(1))

    def __new__(cls, operand: NodeId):
        return tuple.__new__(cls, ("neg", operand))

    def __str__(self):
        return f"NNeg {self.operand}"


class NSub(Node):
    __slots__ = ()
    __match_args__ = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: NodeId, right: NodeId):
        return tuple.__new__(cls, ("sub", left, right))

    def __str__(self):
        return f"NSub {self.left} {self.right}"


_NODE_TYPES = {"const": NConst, "var": NVar, "add": NAdd, "neg": NNeg, "sub": NSub}


class Dag:
    """A sharing-maximal node store: the hash-consing table.

    A dict maps each node to its id and a list maps each id back to its
    node, so both directions are O(1); both hold the typed ``N*`` node. Ids
    are dense from 0, children always live at smaller ids, and no two ids
    hold equal nodes. A build grows one Dag through hashcons and freezes it
    on handoff; the Dags returned by build_dag/build_forest are frozen, so
    nothing mutates them afterwards.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple, NodeId] = {}
        self._nodes: list[Node] = []
        self._lets: dict[object, NodeId] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._nodes)

    def hashcons(self, node: tuple) -> NodeId:
        """Return the id of an equal existing node, inserting on a miss.

        The node is an ``N*`` node or the equal plain tagged tuple, such as
        ``("add", 0, 1)``; a miss stores it as the typed node. Its children
        must already be allocated in this Dag.
        """
        if self._frozen:
            raise RuntimeError("Dag is frozen")
        node_id = self._ids.get(node)
        if node_id is None:
            node = tuple.__new__(_NODE_TYPES[node[0]], node)
            node_id = len(self._nodes)
            self._ids[node] = node_id
            self._nodes.append(node)
        return node_id

    def freeze(self) -> Dag:
        """Reject any further hashcons, let terms included, and return this Dag."""
        self._frozen = True
        self._lets.clear()
        return self

    def node(self, node_id: NodeId) -> Node:
        """The node at an id; a missing id is a hard error."""
        if not 0 <= node_id < len(self._nodes):
            raise KeyError(node_id)
        return self._nodes[node_id]

    def items(self) -> list[tuple[NodeId, Node]]:
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


#: A DagBuilder term: running it conses the term's nodes into a Dag and
#: yields the term's node id. Terms stay deferred rather than already-built
#: ids, so a term that appears twice is built twice unless the program
#: shares it with let_; hash-consing still collapses the duplicates. A let_
#: term is built once per Dag: later runs against the same Dag return the
#: id the first run built.
DagTerm = Callable[[Dag], NodeId]


class DagBuilder(FullBuilder[DagTerm]):
    """Builds hash-consed DAGs bottom-up, left to right.

    let_ is the one construct that forces a computation exactly once and
    hands every use in the body the already-allocated id. Its term keeps
    that id in the Dag under a key of its own, not under itself: a key
    naming the closure would put every let term in a reference cycle.
    """

    def constant(self, value):
        key = ("const", value)
        return lambda dag: dag.hashcons(key)

    def variable(self, name):
        require_name(name)
        key = ("var", name)
        return lambda dag: dag.hashcons(key)

    def add(self, left, right):
        return lambda dag: dag.hashcons(("add", left(dag), right(dag)))

    def neg(self, operand):
        return lambda dag: dag.hashcons(("neg", operand(dag)))

    def sub(self, left, right):
        return lambda dag: dag.hashcons(("sub", left(dag), right(dag)))

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
    """
    if isinstance(roots, int):
        head = str(roots)
    else:
        head = "[" + ",".join(str(r) for r in roots) + "]"
    body = ",".join(f"({i},{node})" for i, node in dag.items())
    return f"({head},DAG BiMap[{body}])"
