"""Backends over frozen Dags: evaluation, netlist text, three-address text.

Both emitters lean on the topological id order: one line per node, in id
order, can only ever reference earlier lines.
"""

from __future__ import annotations

from typing import Iterable

from .dag import Dag, NodeId
from .interp import Env, UnboundVariableError, wrap64


def eval_dag(dag: Dag, root: NodeId, env: Env) -> int:
    """Evaluate bottom-up in id order; every node is computed exactly once."""
    dag.node(root)
    values: list[int] = []
    for node_id, node in dag.items():
        if node_id > root:
            break
        match node:
            case ("const", value):
                values.append(wrap64(value))
            case ("var", name):
                try:
                    values.append(wrap64(env[name]))
                except KeyError:
                    raise UnboundVariableError(name) from None
            case ("add", left, right):
                values.append(wrap64(values[left] + values[right]))
            case ("neg", operand):
                values.append(wrap64(-values[operand]))
            case ("sub", left, right):
                values.append(wrap64(values[left] - values[right]))
    return values[root]


def emit_netlist(dag: Dag, roots: Iterable[NodeId]) -> str:
    """One line per node in id order, then one "out" line per root."""
    lines = []
    for node_id, node in dag.items():
        match node:
            case ("const", value):
                rhs = f"const {value}"
            case ("var", name):
                rhs = f"input {name}"
            case ("add", left, right):
                rhs = f"add n{left} n{right}"
            case ("neg", operand):
                rhs = f"neg n{operand}"
            case ("sub", left, right):
                rhs = f"sub n{left} n{right}"
        lines.append(f"n{node_id} = {rhs}")
    for root in roots:
        dag.node(root)
        lines.append(f"out n{root}")
    return "".join(line + "\n" for line in lines)


def emit_threeaddr(dag: Dag, root: NodeId) -> str:
    """Naive pseudo-assembly: one virtual register per node id, no register
    allocation, finished by a RET of the root's register."""
    dag.node(root)
    lines = []
    for node_id, node in dag.items():
        match node:
            case ("const", value):
                lines.append(f"LOADI r{node_id}, {value}")
            case ("var", name):
                lines.append(f"LOADV r{node_id}, {name}")
            case ("add", left, right):
                lines.append(f"ADD r{node_id}, r{left}, r{right}")
            case ("neg", operand):
                lines.append(f"NEG r{node_id}, r{operand}")
            case ("sub", left, right):
                lines.append(f"SUB r{node_id}, r{left}, r{right}")
    lines.append(f"RET r{root}")
    return "".join(line + "\n" for line in lines)
