"""Backends over frozen Dags: evaluation, netlist text, three-address text.

Each walks the nodes once in topological id order, so an emitted line names
only earlier lines, and picks a node's operation by one if-chain on its kind
tag, neg last. The emitters read id text from _DECIMAL, one table for the
process, grown to the largest Dag emitted, about 63 bytes per id, never shrunk.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable

from .dag import Dag, NodeId
from .interp import _HALF, _MASK, Env, UnboundVariableError

# Item i is str(i). It grows only by replacement, so an emitter holding its
# own reference never sees a half-grown table, whatever other threads do.
_DECIMAL: list[str] = []


def eval_dag(dag: Dag, root: NodeId, env: Env) -> int:
    """Evaluate the whole Dag in id order, each node once, by evaluate's rule:
    values mod 2**64, only the root's signed to 64 bits. Every var node is an
    input that env must bind to an int; the first failure in id order raises.
    A later call whose env holds the same int objects reuses the values."""
    dag._id(root)
    memo = dag._memo
    if memo is not None and len(memo[2]) == len(dag._nodes):
        names, inputs, values = memo
        try:
            if all(map(is_, map(env.__getitem__, names), inputs)):
                return (values[root] + _HALF & _MASK) - _HALF
        except KeyError:
            pass
    names, inputs, values = [], [], []
    for node in dag._nodes:
        kind = node[0]
        if kind == "add":
            values.append((values[node[1]] + values[node[2]]) & _MASK)
        elif kind == "var":
            name = node[1]
            try:
                value = env[name]
            except KeyError:
                raise UnboundVariableError(name) from None
            if type(value) is not int:
                raise TypeError(f"value of {name} must be an int, not {type(value).__name__}")
            names.append(name)
            inputs.append(value)
            values.append(value & _MASK)
        elif kind == "const":
            values.append(node[1] & _MASK)
        elif kind == "sub":
            values.append((values[node[1]] - values[node[2]]) & _MASK)
        else:
            values.append(-values[node[1]] & _MASK)
    dag._memo = names, inputs, values
    return (values[root] + _HALF & _MASK) - _HALF


def emit_netlist(dag: Dag, roots: Iterable[NodeId]) -> str:
    """One line per node in id order, then one "out" line per root."""
    global _DECIMAL
    d, n = _DECIMAL, len(dag._nodes)
    if len(d) < n:
        d = _DECIMAL = [*d, *map(str, range(len(d), n))]
    lines = []
    for node_id, node in zip(d, dag._nodes):
        kind = node[0]
        if kind == "add":
            lines.append(f"n{node_id} = add n{d[node[1]]} n{d[node[2]]}\n")
        elif kind == "var":
            lines.append(f"n{node_id} = input {node[1]}\n")
        elif kind == "const":
            lines.append(f"n{node_id} = const {node[1]}\n")
        elif kind == "sub":
            lines.append(f"n{node_id} = sub n{d[node[1]]} n{d[node[2]]}\n")
        else:
            lines.append(f"n{node_id} = neg n{d[node[1]]}\n")
    for root in roots:
        lines.append(f"out n{d[dag._id(root)]}\n")
    return "".join(lines)


def emit_threeaddr(dag: Dag, root: NodeId) -> str:
    """Naive pseudo-assembly: one virtual register per node id, no register
    allocation, finished by a RET of the root's register."""
    global _DECIMAL
    dag._id(root)
    d, n = _DECIMAL, len(dag._nodes)
    if len(d) < n:
        d = _DECIMAL = [*d, *map(str, range(len(d), n))]
    lines = []
    for node_id, node in zip(d, dag._nodes):
        kind = node[0]
        if kind == "add":
            lines.append(f"ADD r{node_id}, r{d[node[1]]}, r{d[node[2]]}\n")
        elif kind == "var":
            lines.append(f"LOADV r{node_id}, {node[1]}\n")
        elif kind == "const":
            lines.append(f"LOADI r{node_id}, {node[1]}\n")
        elif kind == "sub":
            lines.append(f"SUB r{node_id}, r{d[node[1]]}, r{d[node[2]]}\n")
        else:
            lines.append(f"NEG r{node_id}, r{d[node[1]]}\n")
    lines.append(f"RET r{d[root]}\n")
    return "".join(lines)
