"""Interpreters with value semantics: an environment evaluator, a constructor
counter, and string renderers (flat and let-aware)."""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping

from .builders import FullBuilder, Program, collector_paused, require_int, require_name

Env = Mapping[str, int]

_HALF = 1 << 63
_MASK = (1 << 64) - 1


class UnboundVariableError(LookupError):
    """A variable was evaluated without a binding for it."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class Evaluator(FullBuilder[int]):
    """Terms are the values, computed as they are built, as residues mod 2**64,
    which add, neg and sub respect: evaluate signs only the result, so a term
    read directly, as from ``elaborate(tree, Evaluator(env))``, is unsigned.

    A term is an int, so let_ is call-by-value for free: its bound term is
    computed once, before the body gets it, however often the body uses it.
    A term the program builds but does not return is computed all the same.
    """

    def __init__(self, env: Env) -> None:
        self.env = env

    def constant(self, value):
        if type(value) is not int:
            require_int(value)
        return value & _MASK

    def variable(self, name):
        if type(name) is not str or not name:
            require_name(name)
        try:
            value = self.env[name]
        except KeyError:
            raise UnboundVariableError(name) from None
        if type(value) is not int:
            raise TypeError(f"value of {name} must be an int, not {type(value).__name__}")
        return value & _MASK

    def add(self, left, right):
        return left + right & _MASK

    def neg(self, operand):
        return -operand & _MASK

    def sub(self, left, right):
        return left - right & _MASK


@collector_paused
def evaluate(program: Program, env: Env) -> int:
    """Evaluate a program under an environment, wrapping to signed 64 bits."""
    value = program(Evaluator(env))
    return (value + _HALF & _MASK) - _HALF


class SizeBuilder(FullBuilder[int]):
    """Counts constructors. A let_-bound expression is counted once: uses of
    the bound variable inside the body cost nothing."""

    def constant(self, value):
        if type(value) is not int:
            require_int(value)
        return 1

    def variable(self, name):
        if type(name) is not str or not name:
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


@collector_paused
def size(program: Program) -> int:
    return program(SizeBuilder())


class FlatPrinter(FullBuilder[str]):
    """Renders infix text with no parentheses. Shared subterms are printed
    again at every use, so output length follows the expanded tree."""

    def constant(self, value):
        if type(value) is not int:
            require_int(value)
        return str(value)

    def variable(self, name):
        if type(name) is not str or not name:
            require_name(name)
        return name

    def add(self, left, right):
        return f"{left} + {right}"

    def neg(self, operand):
        return f"-{operand}"

    def sub(self, left, right):
        return f"{left} - {right}"


@collector_paused
def print_flat(program: Program) -> str:
    return program(FlatPrinter())


class LetPrinter(FullBuilder[tuple[int, str] | Callable[[Iterator[str], int], str]]):
    """Renders let_ as ``let vN = bound in body``.

    Text carries a level (let 0, operator 1, atom 2), and a context asks for
    one: a term of a lower level brackets itself, which inserts the few
    parentheses that keep output re-parseable. A term with no let_ inside is
    rendered as it is built, into the pair ``(level, text)``, so host aliases
    of it share one string. A term with a let_ inside is a function
    ``run(supply, prec)``, because binder names are drawn in rendering order:
    ``supply`` is one iterator of names threaded through the whole rendering,
    and a binder draws its name after its bound expression has been rendered
    and before its body, so names are distinct and increase left to right.
    A let-free term is never below operator level, so only the contexts
    that ask for an atom (a neg operand, a sub's right side) bracket one,
    when they are built. An add, neg or sub with a let_ inside returns the
    one deferred operator, ``_operator``; their let-free branches stay
    inline, so they enter no helper frame. ``free`` collects every variable
    name the program uses, so print_let can keep binders from capturing them.
    """

    def __init__(self) -> None:
        self.free: set[str] = set()

    def constant(self, value):
        if type(value) is not int:
            require_int(value)
        return (2, str(value))

    def variable(self, name):
        if type(name) is not str or not name:
            require_name(name)
        self.free.add(name)
        return (2, name)

    def add(self, left, right):
        if type(left) is tuple and type(right) is tuple:
            return (1, f"{left[1]} + {right[1]}")
        return _operator(left, " + ", right, 0)

    def neg(self, operand):
        if type(operand) is tuple:
            return (1, f"-{operand[1]}" if operand[0] > 1 else f"-({operand[1]})")
        return _operator((2, ""), "-", operand, 2)

    def sub(self, left, right):
        if type(right) is tuple and right[0] < 2:
            right = (2, f"({right[1]})")
        if type(left) is tuple and type(right) is tuple:
            return (1, f"{left[1]} - {right[1]}")
        return _operator(left, " - ", right, 2)

    def let_(self, bound, body):
        def run(supply, prec):
            bound_text = bound[1] if type(bound) is tuple else bound(supply, 1)
            name = next(supply)
            result = body((2, name))
            body_text = result[1] if type(result) is tuple else result(supply, 0)
            text = f"let {name} = {bound_text} in {body_text}"
            return f"({text})" if prec > 0 else text

        return run


def _operator(left, op: str, right, right_prec: int):
    """LetPrinter's deferred ``left op right``, at operator level. Either
    side is a ``(level, text)`` pair or a ``run``; a ``run`` on the left is
    rendered at let level, and one on the right at ``right_prec``."""

    def run(supply, prec):
        text = (
            f"{left[1] if type(left) is tuple else left(supply, 0)}{op}"
            f"{right[1] if type(right) is tuple else right(supply, right_prec)}"
        )
        return f"({text})" if prec > 1 else text

    return run


def _binder_names(skip: set[str], drawn: list[str]) -> Iterator[str]:
    """``v0, v1, ...`` minus the names in ``skip``, noting each one drawn."""
    for index in itertools.count():
        name = f"v{index}"
        if name not in skip:
            drawn.append(name)
            yield name


@collector_paused
def print_let(program: Program) -> str:
    """Render a program with its sharing shown as let bindings.

    Parsed again, the text has the program's value under every env, though
    not always its tree, DAG or size. Binders are named ``v0, v1, ...``,
    skipping every free variable name so that no binder captures one. A let
    body's variables are only known once the body has been built during
    rendering, so a rendering whose binders met a name found later in it is
    done again with every free name known.
    """
    printer = LetPrinter()
    term = program(printer)
    if type(term) is tuple:
        return term[1]
    drawn: list[str] = []
    text = term(_binder_names(printer.free, drawn), 0)
    if printer.free.isdisjoint(drawn):
        return text
    return term(_binder_names(printer.free, []), 0)
