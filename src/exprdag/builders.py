"""The builder interface and the tree form of the expression language.

A tree node is a DAG node with subtrees where the DAG has ids, such as
``("add", ("var", "x"), ("const", 1))``; parse also builds
``("let", name, bound, body)``, which lower_to_tree substitutes away.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")

#: A DSL program, abstracted over the interpreter that will run it.
Program = Callable[["FullBuilder"], Any]


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

    @abstractmethod
    def let_(self, bound: T, body: Callable[[T], T]) -> T:
        """Bind ``bound`` once; every use of the argument passed to ``body``
        refers to that single shared expression."""


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

    def let_(self, bound, body):
        return body(bound)


def lower_to_tree(program: Program) -> tuple:
    """Expand a program to its tree, eliminating let_ by substitution."""
    return program(TreeBuilder())
