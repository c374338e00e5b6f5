"""Interpreters with value semantics: an environment evaluator, a constructor
counter, and string renderers (flat and let-aware)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .builders import FullBuilder, Program, require_name

Env = Mapping[str, int]

_HALF = 1 << 63
_WORD = 1 << 64


def wrap64(value: int) -> int:
    """Reduce to the signed 64-bit range with two's-complement wraparound."""
    return (value + _HALF) % _WORD - _HALF


class UnboundVariableError(LookupError):
    """A variable was evaluated without a binding for it."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


def env_from_pairs(pairs: Iterable[tuple[str, int]]) -> dict[str, int]:
    """Build an environment from (name, value) pairs; first binding wins."""
    env: dict[str, int] = {}
    for name, value in pairs:
        env.setdefault(name, value)
    return env


class Evaluator(FullBuilder[Callable[[Env], int]]):
    """Terms are functions from an environment to a 64-bit integer."""

    def constant(self, value):
        result = wrap64(value)
        return lambda env: result

    def variable(self, name):
        require_name(name)

        def run(env: Env) -> int:
            try:
                return wrap64(env[name])
            except KeyError:
                raise UnboundVariableError(name) from None

        return run

    def add(self, left, right):
        return lambda env: wrap64(left(env) + right(env))

    def neg(self, operand):
        return lambda env: wrap64(-operand(env))

    def sub(self, left, right):
        return lambda env: wrap64(left(env) - right(env))

    def let_(self, bound, body):
        return body(bound)


def evaluate(program: Program, env: Env) -> int:
    """Evaluate a program under an environment mapping names to values."""
    return program(Evaluator())(env)


class SizeBuilder(FullBuilder[int]):
    """Counts constructors. A let_-bound expression is counted once: uses of
    the bound variable inside the body cost nothing."""

    def constant(self, value):
        return 1

    def variable(self, name):
        require_name(name)
        return 1

    def add(self, left, right):
        return left + right + 1

    def neg(self, operand):
        return operand + 1

    def sub(self, left, right):
        return left + right + 1

    def let_(self, bound, body):
        return bound + body(0)


def size(program: Program) -> int:
    return program(SizeBuilder())


class FlatPrinter(FullBuilder[str]):
    """Renders infix text with no parentheses. Shared subterms are printed
    again at every use, so output length follows the expanded tree."""

    def constant(self, value):
        return str(value)

    def variable(self, name):
        require_name(name)
        return name

    def add(self, left, right):
        return f"{left} + {right}"

    def neg(self, operand):
        return f"-{operand}"

    def sub(self, left, right):
        return f"{left} - {right}"

    def let_(self, bound, body):
        return body(bound)


def print_flat(program: Program) -> str:
    return program(FlatPrinter())


class NameSupply:
    """Allocates binder names v0, v1, ... in rendering encounter order."""

    def __init__(self) -> None:
        self.counter = 0

    def fresh(self) -> str:
        name = f"v{self.counter}"
        self.counter += 1
        return name


class _Shape(enum.Enum):
    ATOM = "atom"
    OP = "op"
    LET = "let"


@dataclass(frozen=True)
class _Rendering:
    """Deferred string under a shared name supply. The shape records enough
    structure to insert the few parentheses that keep output re-parseable."""

    run: Callable[[NameSupply], str]
    shape: _Shape


class LetPrinter(FullBuilder[_Rendering]):
    """Renders let_ as ``let vN = bound in body``.

    One supply threads through the whole rendering: a binder draws its index
    after its bound expression has been rendered and before its body, so
    names are distinct and increase left to right.
    """

    def constant(self, value):
        text = str(value)
        return _Rendering(lambda supply: text, _Shape.ATOM)

    def variable(self, name):
        require_name(name)
        return _Rendering(lambda supply: name, _Shape.ATOM)

    def add(self, left, right):
        def run(supply):
            lhs = left.run(supply)
            rhs = right.run(supply)
            return f"{lhs} + {rhs}"

        return _Rendering(run, _Shape.OP)

    def neg(self, operand):
        def run(supply):
            text = operand.run(supply)
            if operand.shape is not _Shape.ATOM:
                text = f"({text})"
            return f"-{text}"

        return _Rendering(run, _Shape.OP)

    def sub(self, left, right):
        def run(supply):
            lhs = left.run(supply)
            rhs = right.run(supply)
            if right.shape is not _Shape.ATOM:
                rhs = f"({rhs})"
            return f"{lhs} - {rhs}"

        return _Rendering(run, _Shape.OP)

    def let_(self, bound, body):
        def run(supply):
            bound_text = bound.run(supply)
            if bound.shape is _Shape.LET:
                bound_text = f"({bound_text})"
            name = supply.fresh()
            body_text = body(_Rendering(lambda _supply: name, _Shape.ATOM)).run(supply)
            return f"let {name} = {bound_text} in {body_text}"

        return _Rendering(run, _Shape.LET)


def print_let(program: Program) -> str:
    """Render a program with its sharing shown as let bindings."""
    return program(LetPrinter()).run(NameSupply())
