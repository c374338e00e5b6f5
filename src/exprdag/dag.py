"""Hash-consed DAG representation and the DAG-building interpreter.

A compiled program is a dense array of flat nodes where structurally equal
subexpressions occupy exactly one slot and every node's children sit at
smaller ids. A node is a plain kind-tagged tuple such as
``("add", left, right)``, so the hash-consing table hashes and compares
nodes as tuples. A DagBuilder term is a function from the node table of the
Dag under construction to the term's node id. Consing a node is one lookup
in that table, a ``defaultdict`` whose factory yields the next id, so a miss
stores the node in C, the key order is the id order, and a leaf term runs
no Python frame at all. The explicit sharing form runs its bound expression
once and replicates its id, and a let term is built once per build however
many roots reach it; that is what makes compact programs build in time
proportional to the DAG rather than to the expanded tree. A build makes no
reference cycles, so build_forest, and build_dag through it, runs with the
cyclic garbage collector paused: its thousands of short-lived closures are
freed by reference counting, and no collection traverses them mid-build.

A parsed tree becomes nodes a second way: ``_cons`` conses it at once, since
it shares only through its lets and has no host alias to build again.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from itertools import count, islice
from operator import itemgetter
from typing import Callable, Sequence

from .builders import FullBuilder, Program, collector_paused, require_int, require_name

NodeId = int


#: Each node kind's tuple length and its text in format_dag. hashcons admits
#: only these shapes, so the backends' if-chains can leave neg to a bare else.
_KINDS = {
    "const": (2, "NConst {}"),
    "var": (2, 'NVar "{}"'),
    "add": (3, "NAdd {} {}"),
    "neg": (2, "NNeg {}"),
    "sub": (3, "NSub {} {}"),
}


class _FrozenTable(dict):
    """A frozen Dag's empty table: every lookup is refused."""

    def __missing__(self, node: tuple) -> NodeId:
        raise RuntimeError("Dag is frozen")


class Dag:
    """A sharing-maximal node store: the hash-consing table.

    The table is a ``defaultdict`` from node to id whose factory counts from
    0, so a miss stores the node at the next id in C, and its keys, in order,
    are the nodes by id. Ids are dense from 0, children live at smaller ids,
    and no two ids hold equal nodes. A build grows one Dag by table lookups
    and freezes it on handoff, keeping the nodes as a list and dropping the
    dict: a frozen Dag, as build_dag returns, refuses lookups. A Dag pickles
    and copies as its nodes and whether it is frozen. eval_dag keeps its last
    walk's input names, input objects and values in ``_memo``, so a Dag holds
    its last binding's values alive; a copy drops them.
    """

    _memo = None

    def __init__(self) -> None:
        self._ids = defaultdict(count().__next__)
        self._nodes = self._ids.keys()  # a list once frozen

    def __reduce__(self):
        return _restore, (tuple(self._nodes), type(self._nodes) is list)

    def __len__(self) -> int:
        return len(self._nodes)

    def hashcons(self, node: tuple) -> NodeId:
        """Return the id of an equal existing node, inserting on a miss.

        The node is a kind-tagged tuple such as ``("add", 0, 1)``. A ValueError,
        storing nothing, rejects a non-tuple, an unknown kind or length, a const
        not an int, a var not a non-empty str, or a child not yet in this Dag.
        """
        kind = node[0] if type(node) is tuple and node and type(node[0]) is str else None
        if kind not in _KINDS or _KINDS[kind][0] != len(node) or not (
            type(node[1]) is int if kind == "const"
            else type(node[1]) is str and node[1] != "" if kind == "var"
            else all(type(child) is int and 0 <= child < len(self) for child in node[1:])
        ):
            raise ValueError(f"not a DAG node: {node!r}")
        return self._ids[node]

    def freeze(self) -> Dag:
        """Make every lookup raise RuntimeError, so no term can add to this Dag; return it."""
        self._nodes = list(self._nodes)
        self._ids = _FrozenTable()
        return self

    def _id(self, node_id: NodeId) -> NodeId:
        """The id itself, if it is an int in range, else a KeyError; reads no node."""
        if type(node_id) is not int or not 0 <= node_id < len(self._nodes):
            raise KeyError(node_id)
        return node_id

    def node(self, node_id: NodeId) -> tuple:
        """The node at an id; an id that is not an int in range is a KeyError.
        Until the Dag is frozen, this walks its table up to the id."""
        nodes, node_id = self._nodes, self._id(node_id)
        return nodes[node_id] if type(nodes) is list else next(islice(nodes, node_id, None))

    def items(self) -> list[tuple[NodeId, tuple]]:
        return list(enumerate(self._nodes))

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return list(self._nodes) == list(other._nodes)

    def __repr__(self):
        return f"Dag({self.items()!r})"


def _restore(nodes: tuple, frozen: bool) -> Dag:
    """Unpickle a Dag: cons its nodes again into a new table."""
    dag = Dag()
    for node in nodes:
        dag.hashcons(node)
    return dag.freeze() if frozen else dag


#: A DagBuilder term: a function of a Dag's node table that conses the term's
#: nodes by indexing it and yields its id; a leaf is an itemgetter and runs no
#: Python frame. Terms stay deferred, so a term that appears twice is built
#: twice unless the program shares it with let_; hash-consing still collapses
#: the duplicates. A let_ term keeps the table it last ran on and the id it
#: built there; a build runs every term on one table, so a let term that
#: several roots reach is still built once per build.
DagTerm = Callable[[dict], NodeId]


class DagBuilder(FullBuilder[DagTerm]):
    """Builds hash-consed DAGs bottom-up, left to right.

    let_ is the one construct that forces a computation exactly once and
    hands every use in the body the already-allocated id. Its term holds
    the table it last ran on and the id built there, and builds again on
    any other table. Holding the table keeps a new one from reusing its
    identity, and makes no cycle: a table never refers to a term.
    """

    def constant(self, value):
        if type(value) is not int:
            require_int(value)
        return itemgetter(("const", value))

    def variable(self, name):
        if type(name) is not str or not name:
            require_name(name)
        return itemgetter(("var", name))

    def add(self, left, right):
        return lambda ids: ids["add", left(ids), right(ids)]

    def neg(self, operand):
        return lambda ids: ids["neg", operand(ids)]

    def sub(self, left, right):
        return lambda ids: ids["sub", left(ids), right(ids)]

    def let_(self, bound, body):
        table = node_id = None

        def run(ids):
            nonlocal table, node_id
            if table is not ids:
                shared = bound(ids)
                node_id = body(lambda _ids: shared)(ids)
                table = ids
            return node_id

        return run


def _cons(ids, scope, ast):
    """elaborate's walk for an exact DagBuilder: cons the tree ``ast`` into
    the node table ``ids`` and return its id. ``scope`` maps a name to the id
    of the innermost let in reach binding it, or to None. A let runs its body
    once, at once, so it saves the entry it shadows and restores it after,
    where the builder's terms keep a persistent chain. Nodes are consed in
    the order those terms would cons them: after their children, left to
    right, and a let's bound first."""
    kind = ast[0] if type(ast) is tuple else None
    if kind == "add" or kind == "sub":  # the tree's tag is the node's tag
        return ids[kind, _cons(ids, scope, ast[1]), _cons(ids, scope, ast[2])]
    if kind == "var":
        name = ast[1]
        node = scope.get(name)
        if node is not None:
            return node
        if type(name) is not str or not name:
            require_name(name)
        return ids["var", name]
    if kind == "const":
        if type(ast[1]) is not int:
            require_int(ast[1])
        return ids["const", ast[1]]
    if kind == "let":
        name = ast[1]
        bound = _cons(ids, scope, ast[2])
        outer = scope.get(name)
        scope[name] = bound
        node = _cons(ids, scope, ast[3])
        scope[name] = outer
        return node
    if kind == "neg":
        operand = ast[1]
        if type(operand) is tuple and operand[0] == "const" and type(operand[1]) is int:
            return ids["const", -operand[1]]
        return ids["neg", _cons(ids, scope, operand)]
    raise TypeError(f"not an expression tree: {ast!r}")


def build_dag(program: Program) -> tuple[NodeId, Dag]:
    """Compile a program to its root id and frozen Dag."""
    (root,), dag = build_forest(lambda builder: [program(builder)])
    return root, dag


@collector_paused
def build_forest(program: Callable[[DagBuilder], Sequence[DagTerm]]) -> tuple[list[NodeId], Dag]:
    """Compile a program yielding several terms against one shared Dag.

    All terms are built in list order into a single Dag, so equal
    subexpressions are shared across independent roots, and a let term
    that several roots reach is built by the first and reused by the rest.
    """
    terms = program(DagBuilder())
    dag = Dag()
    roots = []
    for term in terms:
        if not callable(term):
            raise TypeError(f"not an expression tree: {term!r}")
        roots.append(term(dag._ids))
    return roots, dag.freeze()


def format_dag(roots: NodeId | Iterable[NodeId], dag: Dag) -> str:
    """Association-list display, e.g. (2,DAG BiMap[(0,NVar "i1"),...]).

    The ``DAG BiMap[`` prefix is the paper's display form for the node table.
    A root that is not in the Dag is a KeyError.
    """
    if isinstance(roots, Iterable):
        head = "[" + ",".join(map(str, map(dag._id, roots))) + "]"
    else:
        head = str(dag._id(roots))
    body = ",".join(f"({i},{_KINDS[node[0]][1].format(*node[1:])})" for i, node in dag.items())
    return f"({head},DAG BiMap[{body}])"
