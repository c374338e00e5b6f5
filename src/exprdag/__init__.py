"""An arithmetic expression DSL with explicit sharing, compiled by
hash-consing into DAGs and emitted as netlists or three-address code.

Programs are written against an abstract builder and run by handing them a
concrete interpreter::

    from exprdag import build_dag, evaluate, mul_shared

    def times20(b):
        return mul_shared(b, 20, b.variable("i"))

    evaluate(times20, {"i": 3})   # 60
    build_dag(times20)            # (root id, Dag)
"""

from .builders import FullBuilder, lower_to_tree
from .dag import Dag, build_dag, build_forest, format_dag
from .generators import mul, mul_shared, sklansky, sklansky_shared
from .interp import UnboundVariableError, evaluate, print_flat, print_let, size
from .netlist import emit_netlist, emit_threeaddr, eval_dag
from .parser import ParseError, elaborate, parse

__all__ = [
    "Dag",
    "FullBuilder",
    "ParseError",
    "UnboundVariableError",
    "build_dag",
    "build_forest",
    "elaborate",
    "emit_netlist",
    "emit_threeaddr",
    "eval_dag",
    "evaluate",
    "format_dag",
    "lower_to_tree",
    "mul",
    "mul_shared",
    "parse",
    "print_flat",
    "print_let",
    "size",
    "sklansky",
    "sklansky_shared",
]
