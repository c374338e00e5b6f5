"""Backends over frozen Dags: evaluation, netlist text, three-address text.

Both emitters lean on the topological id order: one line per node, in id
order, can only ever reference earlier lines. They read each id's text from
_DECIMAL, one table kept for the whole process, which grows to the largest
Dag emitted, at about 63 bytes per id, and is never shrunk.
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
        match node:
            case ("add", left, right):
                values.append((values[left] + values[right]) & _MASK)
            case ("const", value):
                values.append(value & _MASK)
            case ("var", name):
                try:
                    value = env[name]
                except KeyError:
                    raise UnboundVariableError(name) from None
                if type(value) is not int:
                    raise TypeError(f"value of {name} must be an int, not {type(value).__name__}")
                names.append(name)
                inputs.append(value)
                values.append(value & _MASK)
            case ("neg", operand):
                values.append(-values[operand] & _MASK)
            case ("sub", left, right):
                values.append((values[left] - values[right]) & _MASK)
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
        match node:
            case ("add", left, right):
                lines.append(f"n{node_id} = add n{d[left]} n{d[right]}\n")
            case ("const", value):
                lines.append(f"n{node_id} = const {value}\n")
            case ("var", name):
                lines.append(f"n{node_id} = input {name}\n")
            case ("neg", operand):
                lines.append(f"n{node_id} = neg n{d[operand]}\n")
            case ("sub", left, right):
                lines.append(f"n{node_id} = sub n{d[left]} n{d[right]}\n")
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
        match node:
            case ("add", left, right):
                lines.append(f"ADD r{node_id}, r{d[left]}, r{d[right]}\n")
            case ("const", value):
                lines.append(f"LOADI r{node_id}, {value}\n")
            case ("var", name):
                lines.append(f"LOADV r{node_id}, {name}\n")
            case ("neg", operand):
                lines.append(f"NEG r{node_id}, r{d[operand]}\n")
            case ("sub", left, right):
                lines.append(f"SUB r{node_id}, r{d[left]}, r{d[right]}\n")
    lines.append(f"RET r{d[root]}\n")
    return "".join(lines)
