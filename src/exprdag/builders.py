"""The builder interface and the tree form of the expression language.

A tree node is a DAG node with subtrees where the DAG has ids, such as
``("add", ("var", "x"), ("const", 1))``; parse also builds
``("let", name, bound, body)``, which lower_to_tree substitutes away.
"""

from __future__ import annotations

import functools
import gc
from abc import ABC, abstractmethod
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")

#: A DSL program, abstracted over the interpreter that will run it.
Program = Callable[["FullBuilder"], Any]


def collector_paused(run: Callable[..., T]) -> Callable[..., T]:
    """Wrap an entry point that runs a program so that it runs with the
    cyclic garbage collector disabled, restoring the state it found.

    A run allocates many tracked objects, closures and tuples, that form no
    reference cycle, so collections during it traverse them for nothing and
    reference counting frees them. The pause is process-global. When ``run``
    returns or raises, the state it found is restored; on a return, its
    frame and every term it held are freed by then. A nested run finds the
    collector disabled and leaves it so.
    """

    @functools.wraps(run)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def require_name(name: str) -> None:
    if type(name) is not str:
        raise TypeError(f"variable name must be a str, not {type(name).__name__}")
    if not name:
        raise ValueError("variable name must be non-empty")


def require_int(value: int) -> None:
    if type(value) is not int:
        raise TypeError(f"constant must be an int, not {type(value).__name__}")


class FullBuilder(ABC, Generic[T]):
    """The six constructors of the language, one interface for every
    interpreter.

    Each interpreter picks its own term type T: a plain value computed as
    the term is built, or a function of its run state where it must defer.
    A term must only be fed back to the interpreter that produced it.
    evaluate, size and build_dag check only the program's result, since a
    check per operand would sit on every node's path: a foreign operand
    mostly raises Python's own TypeError, such as ``unsupported operand
    type(s) for +: 'int' and 'tuple'``, and evaluate and size take a bool.
    print_let and print_flat name any foreign value, wherever it stands.
    """

    @abstractmethod
    def constant(self, value: int) -> T: ...

    @abstractmethod
    def variable(self, name: str) -> T: ...

    @abstractmethod
    def add(self, left: T, right: T) -> T: ...

    @abstractmethod
    def neg(self, operand: T) -> T: ...

    @abstractmethod
    def sub(self, left: T, right: T) -> T: ...

    def let_(self, bound: T, body: Callable[[T], T]) -> T:
        """Bind ``bound`` once; every use of the argument passed to ``body``
        refers to that single shared expression.

        By default the body gets the bound term itself: for an interpreter
        whose term is a value, that is the sharing. SizeBuilder, LetPrinter
        and DagBuilder override it, because they observe sharing.
        """
        return body(bound)


class TreeBuilder(FullBuilder[tuple]):
    """Interprets a program as its expression tree.

    let_ substitutes the bound tree into the body, so the result contains
    every subterm spelled out and no sharing information.
    """

    def constant(self, value: int) -> tuple:
        require_int(value)
        return ("const", value)

    def variable(self, name: str) -> tuple:
        require_name(name)
        return ("var", name)

    def add(self, left: tuple, right: tuple) -> tuple:
        return ("add", left, right)

    def neg(self, operand: tuple) -> tuple:
        return ("neg", operand)

    def sub(self, left: tuple, right: tuple) -> tuple:
        return ("sub", left, right)


@collector_paused
def lower_to_tree(program: Program) -> tuple:
    """Expand a program to its tree, eliminating let_ by substitution."""
    tree = program(TreeBuilder())
    if type(tree) is not tuple or not tree:
        raise TypeError(f"not an expression tree: {tree!r}")
    return tree
