"""The builder interface and the plain-tree form of the expression language."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
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


class ExprTree:
    """Base of the plain expression tree, the initial representation.

    parse returns these trees; Let appears only there, since lower_to_tree
    substitutes every let_ away.
    """


@dataclass(frozen=True)
class Constant(ExprTree):
    value: int


@dataclass(frozen=True)
class Variable(ExprTree):
    name: str


@dataclass(frozen=True)
class Add(ExprTree):
    left: ExprTree
    right: ExprTree


@dataclass(frozen=True)
class Neg(ExprTree):
    operand: ExprTree


@dataclass(frozen=True)
class Sub(ExprTree):
    left: ExprTree
    right: ExprTree


@dataclass(frozen=True)
class Let(ExprTree):
    name: str
    bound: ExprTree
    body: ExprTree


class TreeBuilder(FullBuilder[ExprTree]):
    """Interprets a program as its expression tree.

    let_ substitutes the bound tree into the body, so the result contains
    every subterm spelled out and no sharing information.
    """

    def constant(self, value: int) -> ExprTree:
        require_int(value)
        return Constant(value)

    def variable(self, name: str) -> ExprTree:
        require_name(name)
        return Variable(name)

    def add(self, left: ExprTree, right: ExprTree) -> ExprTree:
        return Add(left, right)

    def neg(self, operand: ExprTree) -> ExprTree:
        return Neg(operand)

    def sub(self, left: ExprTree, right: ExprTree) -> ExprTree:
        return Sub(left, right)

    def let_(self, bound, body):
        return body(bound)


def lower_to_tree(program: Program) -> ExprTree:
    """Expand a program to its tree, eliminating let_ by substitution."""
    return program(TreeBuilder())
