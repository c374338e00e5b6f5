"""Interpreters with value semantics: an environment evaluator, a constructor
counter, and string renderers (flat and let-aware)."""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

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
    if type(value) is not int:
        raise TypeError(f"not an expression tree: {value!r}")
    return (value + _HALF & _MASK) - _HALF


def _evaluate(builder, scope, ast):
    """elaborate's walk for an exact Evaluator: the tree ``ast``'s value mod
    2**64, as an Evaluator term. ``scope`` maps a let-bound name to its
    value, as in ``dag._cons``, and a free name to the builder's value for it
    once asked, so each free name is asked once; a let restores the entry it
    shadows. Constants call the builder."""
    kind = ast[0] if type(ast) is tuple else None
    if kind == "var":
        value = scope.get(ast[1])
        if value is None:
            value = scope[ast[1]] = builder.variable(ast[1])
        return value
    if kind == "add" or kind == "sub":
        left = _evaluate(builder, scope, ast[1])
        right = _evaluate(builder, scope, ast[2])
        return (left + right if kind == "add" else left - right) & _MASK
    if kind == "const":
        return builder.constant(ast[1])
    if kind == "let":
        bound = _evaluate(builder, scope, ast[2])
        outer = scope.get(ast[1])
        scope[ast[1]] = bound
        value = _evaluate(builder, scope, ast[3])
        scope[ast[1]] = outer
        return value
    if kind == "neg":
        operand = ast[1]
        if type(operand) is tuple and operand[0] == "const" and type(operand[1]) is int:
            return builder.constant(-operand[1])
        return -_evaluate(builder, scope, operand) & _MASK
    raise TypeError(f"not an expression tree: {ast!r}")


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
    result = program(SizeBuilder())
    if type(result) is not int:
        raise TypeError(f"not an expression tree: {result!r}")
    return result


def _size(builder, scope, ast):
    """elaborate's walk for an exact SizeBuilder: the size of the tree
    ``ast``, scoped as in ``_evaluate``, where a let-bound name is worth 0,
    the cost of a use, and a free name 1, the builder's answer."""
    kind = ast[0] if type(ast) is tuple else None
    if kind == "var":
        nodes = scope.get(ast[1])
        if nodes is None:
            nodes = scope[ast[1]] = builder.variable(ast[1])
        return nodes
    if kind == "add" or kind == "sub":
        return _size(builder, scope, ast[1]) + _size(builder, scope, ast[2]) + 1
    if kind == "const":
        return builder.constant(ast[1])
    if kind == "let":
        bound = _size(builder, scope, ast[2])
        outer = scope.get(ast[1])
        scope[ast[1]] = 0
        body = _size(builder, scope, ast[3])
        scope[ast[1]] = outer
        return bound + body
    if kind == "neg":
        operand = ast[1]
        if type(operand) is tuple and operand[0] == "const" and type(operand[1]) is int:
            return builder.constant(-operand[1])
        return _size(builder, scope, operand) + 1
    raise TypeError(f"not an expression tree: {ast!r}")


# A let-free text whose operands hold this many characters or more is a
# rope: a tuple of pieces, each a str or a rope, that _join flattens once.
# Host aliases then share the pieces, and no operator copies its operands.
_ROPE_AT = 4096


def _join(rope, parts):
    """Append the strs of ``rope`` to ``parts`` in order and return it. An
    explicit stack walks the rope, so its depth is bounded by memory."""
    stack = [rope]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            parts.append(piece)
        else:
            stack.extend(piece[::-1])
    return parts


# Heads of LetPrinter terms, which no expression tree can carry.
_TEXT, _ROPE, _LET, _TREE = object(), object(), object(), object()
_TEXTS = (_TEXT, _ROPE)


class LetPrinter(FullBuilder[tuple]):
    """Renders let_ as ``let vN = bound in body``.

    Text carries a level (let 0, operator 1, atom 2), and a context asks for
    one: a term of a lower level brackets itself, which inserts the few
    parentheses that keep output re-parseable. A term with no let_ inside is
    rendered as it is built, into ``(_TEXT, level, text)``, or into
    ``(_ROPE, level, rope)`` once its operands' text reaches ``_ROPE_AT``, so
    host aliases of it share its text; it is never below operator level, so
    only the contexts that ask for an atom (a neg operand, a sub's right
    side) bracket one, when they are built. FlatPrinter builds the same text
    terms without brackets. Binder names are drawn in rendering order, so a
    term with a let_ inside is left for ``_show``: let_ returns
    ``(_LET, bound, body)``, and an add, neg or sub over such a term returns
    the tree node ``(kind, left, right)`` or ``("neg", operand)``. ``free``
    collects every variable name the program uses, so print_let can keep
    binders from capturing them.
    """

    def __init__(self) -> None:
        self.free: set[str] = set()

    def constant(self, value):
        if type(value) is not int:
            require_int(value)
        return (_TEXT, 2, str(value))

    def variable(self, name):
        if type(name) is not str or not name:
            require_name(name)
        self.free.add(name)
        return (_TEXT, 2, name)

    def add(self, left, right):
        try:
            if left[0] is _TEXT and right[0] is _TEXT and len(left[2]) + len(right[2]) < _ROPE_AT:
                return (_TEXT, 1, f"{left[2]} + {right[2]}")
            if left[0] in _TEXTS and right[0] in _TEXTS:
                return (_ROPE, 1, (left[2], " + ", right[2]))
        except IndexError:  # only an empty tuple has no kind to read
            raise TypeError("not an expression tree: ()") from None
        return ("add", left, right)

    def neg(self, operand):
        try:
            if operand[0] is _TEXT and len(operand[2]) < _ROPE_AT:
                return (_TEXT, 1, f"-{operand[2]}" if operand[1] > 1 else f"-({operand[2]})")
            if operand[0] in _TEXTS:
                return (_ROPE, 1, ("-", operand[2]) if operand[1] > 1 else ("-(", operand[2], ")"))
        except IndexError:  # only an empty tuple has no kind to read
            raise TypeError("not an expression tree: ()") from None
        return ("neg", operand)

    def sub(self, left, right):
        try:
            if right[0] is _TEXT and right[1] < 2:
                right = (_TEXT, 2, f"({right[2]})")
            elif right[0] is _ROPE:
                right = (_ROPE, 2, ("(", right[2], ")"))
            if left[0] is _TEXT and right[0] is _TEXT and len(left[2]) + len(right[2]) < _ROPE_AT:
                return (_TEXT, 1, f"{left[2]} - {right[2]}")
            if left[0] in _TEXTS and right[0] in _TEXTS:
                return (_ROPE, 1, (left[2], " - ", right[2]))
        except IndexError:  # only an empty tuple has no kind to read
            raise TypeError("not an expression tree: ()") from None
        return ("sub", left, right)

    def let_(self, bound, body):
        return (_LET, bound, body)


def _show(builder, supply, scope, parts, ast, prec):
    """Append the text of ``ast``, a LetPrinter term or an expression tree,
    in a context that asks for level ``prec``, to the list ``parts`` and
    return it. Binder names are drawn from ``supply`` after a binder's bound
    and before its body, so they increase left to right. ``scope`` is None
    among LetPrinter terms and, in a tree, maps a let's name to its binder
    and a free name to its text, from ``builder`` once, as in ``_evaluate``;
    a tree's var or let among LetPrinter terms, a LetPrinter term in a tree,
    or an empty tuple as a let_'s bound or its body's result, is a
    TypeError."""
    kind = ast[0] if type(ast) is tuple else None
    if scope is not None and kind == "var":
        name = scope.get(ast[1])
        if name is None:
            name = scope[ast[1]] = builder.variable(ast[1])[2]
        parts.append(name)
    elif kind == "add" or kind == "sub":
        if prec > 1:
            parts.append("(")
        _show(builder, supply, scope, parts, ast[1], 0)
        parts.append(" + " if kind == "add" else " - ")
        _show(builder, supply, scope, parts, ast[2], 0 if kind == "add" else 2)
        if prec > 1:
            parts.append(")")
    elif kind is _TEXT and scope is None:  # built at the level its context asks, or above
        parts.append(ast[2])
    elif kind is _ROPE and scope is None:  # likewise
        _join(ast[2], parts)
    elif kind == "const" and scope is not None:
        parts.append(builder.constant(ast[1])[2])
    elif kind == "let" and scope is not None:
        slot = len(parts)
        parts.append(None)  # "let NAME = ", once the bound is rendered
        _show(builder, supply, scope, parts, ast[2], 1)
        name = next(supply)
        parts[slot] = f"(let {name} = " if prec > 0 else f"let {name} = "
        parts.append(" in ")
        outer = scope.get(ast[1])
        scope[ast[1]] = name
        _show(builder, supply, scope, parts, ast[3], 0)
        scope[ast[1]] = outer
        if prec > 0:
            parts.append(")")
    elif kind is _LET and scope is None:
        if not ast[1]:  # such as (), which has no kind to read
            raise TypeError(f"not an expression tree: {ast[1]!r}")
        slot = len(parts)
        parts.append(None)
        if ast[1][0] is _TEXT:
            parts.append(ast[1][2])
        else:
            _show(builder, supply, scope, parts, ast[1], 1)
        name = next(supply)
        parts[slot] = f"(let {name} = " if prec > 0 else f"let {name} = "
        parts.append(" in ")
        body = ast[2]((_TEXT, 2, name))
        if not body:
            raise TypeError(f"not an expression tree: {body!r}")
        _show(builder, supply, scope, parts, body, 0)
        if prec > 0:
            parts.append(")")
    elif kind == "neg":
        operand = ast[1]
        if scope is not None and (
            type(operand) is tuple and operand[0] == "const" and type(operand[1]) is int
        ):
            parts.append(builder.constant(-operand[1])[2])
        else:
            parts.append("(-" if prec > 1 else "-")
            _show(builder, supply, scope, parts, operand, 2)
            if prec > 1:
                parts.append(")")
    elif kind is _TREE and scope is None:  # elaborate's term: a host neg over it folds no literal
        _show(builder, supply, {}, parts, ast[1], prec)
    else:
        raise TypeError(f"not an expression tree: {ast!r}")
    return parts


class FlatPrinter(LetPrinter):
    """LetPrinter's text terms with no brackets, and let_ substituting: a
    shared subterm prints again at every use, as in the expanded tree."""

    let_ = FullBuilder.let_

    def neg(self, operand):
        try:
            if operand[0] is _TEXT and len(operand[2]) < _ROPE_AT:
                return (_TEXT, 1, f"-{operand[2]}")
            if operand[0] in _TEXTS:
                return (_ROPE, 1, ("-", operand[2]))
        except IndexError:  # only an empty tuple has no kind to read
            raise TypeError("not an expression tree: ()") from None
        return ("neg", operand)

    def sub(self, left, right):
        try:
            if left[0] is _TEXT and right[0] is _TEXT and len(left[2]) + len(right[2]) < _ROPE_AT:
                return (_TEXT, 1, f"{left[2]} - {right[2]}")
            if left[0] in _TEXTS and right[0] in _TEXTS:
                return (_ROPE, 1, (left[2], " - ", right[2]))
        except IndexError:  # only an empty tuple has no kind to read
            raise TypeError("not an expression tree: ()") from None
        return ("sub", left, right)


@collector_paused
def print_flat(program: Program) -> str:
    term = program(FlatPrinter())
    if type(term) is not tuple or not term:
        raise TypeError(f"not an expression tree: {term!r}")
    return term[2] if term[0] is _TEXT else "".join(_show(None, None, None, [], term, 0))


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

    One walk, ``_show``, renders the program's term into a list of parts
    joined once, so a let copies none of its body's text. If every free name
    is an ASCII identifier other than ``let`` and ``in``, the text parsed
    again has the program's value under every env, though not always its
    tree, DAG or size; parse rejects a text with any other, as ``1x``.
    Binders are ``v0, v1, ...``, skipping every free name so that none is
    captured. A let body's names are known only once rendering builds it,
    so a rendering whose binders met a name found later in it is done again
    with every free name known. If that second rendering's binders meet a
    name found later still, as when a body names a new variable each time
    it runs, a binder would capture it, so print_let raises ValueError.
    """
    printer = LetPrinter()
    term = program(printer)
    if type(term) is not tuple or not term:
        raise TypeError(f"not an expression tree: {term!r}")
    if term[0] is _TEXT:
        return term[2]
    if term[0] is _ROPE:
        return "".join(_join(term[2], []))
    for _ in range(2):
        drawn: list[str] = []
        text = "".join(_show(printer, _binder_names(printer.free, drawn), None, [], term, 0))
        if printer.free.isdisjoint(drawn):
            return text
    clash = min(printer.free.intersection(drawn))
    raise ValueError(f"binder {clash} would capture a free variable named on a later rendering")
