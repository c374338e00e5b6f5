"""Surface syntax for the DSL.

Grammar, with '+' and '-' on one left-associative level::

    expr  := term (('+' | '-') term)*
    term  := INT | IDENT | '-' term | '(' expr ')'
           | 'let' IDENT '=' expr 'in' expr

'let'/'in' are reserved; a let body extends as far right as possible.

``parse`` scans, then descends. One regex search rejects the first character
outside the ASCII alphabet of the grammar, and ``str.split`` cuts the text,
its operators and parentheses padded with spaces, into token strings, with
``""`` as the end marker. Recursive descent walks that list by index and
compares strings; no token carries a position. ``split`` keeps a digit-led
word such as ``1in`` whole, which ``_TOKEN`` cuts; such a word never
parses, so a failing parse retries with ``_TOKEN``'s list if that differs. A
``ParseError``'s line and column are computed only when it is raised, by
scanning again with ``_TOKEN`` to the failing token's offset.

``elaborate`` dispatches on a tree node's tag and links a (name, term,
parent) scope frame per let, not a copy, so it is linear in let depth; a
name no let has bound skips the chain walk. On an exact DagBuilder,
Evaluator or SizeBuilder it fuses with the interpreter, one frame per tree
level and one dict as its scope, calling the builder only at leaves: a term
that conses the tree into the node table, or the value or size at once. An
exact LetPrinter gets the tree itself, for ``interp._show`` to render.
DagBuilder defers every term so that a host alias is built again, as the
paper's cost claim needs; a tree has no host aliases, since each subtree
occurs once and shares only through its lets, so deferral buys nothing.
"""

from __future__ import annotations

import re
from functools import partial

from .builders import FullBuilder, require_int, require_name
from .dag import DagBuilder
from .interp import _MASK, _TREE, Evaluator, LetPrinter, SizeBuilder

# ASCII only: \d, \w and \s would also admit other Unicode digits, letters
# and spaces.
_BAD_CHAR = re.compile(r"[^ \t\r\nA-Za-z0-9_+\-()=]")
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+()=]")
_RESERVED = ("let", "in")
_TAGS = ("add", "var", "sub", "const", "let", "neg")


class ParseError(ValueError):
    """Syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _error_at(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _describe(token: str) -> str:
    return repr(token) if token else "end of input"


def parse(text: str) -> tuple:
    """Parse program text into a tuple tree, or raise a positioned ParseError."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise _error_at(text, bad.start(), f"unexpected character {bad.group()!r}")
    pad = text.replace("(", " ( ").replace(")", " ) ").replace("+", " + ")
    tokens = pad.replace("-", " - ").replace("=", " = ").split() + [""]

    def fail(index: int, message: str) -> ParseError:
        starts = [match.start() for match in _TOKEN.finditer(text)]
        return _error_at(text, (starts + [len(text)])[index], message)

    def expect(token: str, what: str) -> None:
        nonlocal pos
        if tokens[pos] != token:
            raise fail(pos, f"expected {what}, found {_describe(tokens[pos])}")
        pos += 1

    def expr() -> tuple:
        nonlocal pos
        node = term()
        while tokens[pos] in ("+", "-"):
            kind = "add" if tokens[pos] == "+" else "sub"
            pos += 1
            node = (kind, node, term())
        return node

    def term() -> tuple:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        # Tokens are ASCII, so str.isdigit and str.isidentifier sort them
        # exactly as _TOKEN's alternatives did.
        if token.isdigit():
            try:
                value = int(token)
            except ValueError:  # longer than the interpreter's int-to-string limit
                raise fail(
                    pos - 1, f"integer literal of {len(token)} digits is too long"
                ) from None
            return ("const", value)
        if token == "let":
            name = tokens[pos]
            if name in _RESERVED:
                raise fail(pos, f"reserved word {name!r} cannot be used as a name")
            if not name.isidentifier():
                raise fail(pos, f"expected a name to bind, found {_describe(name)}")
            pos += 1
            expect("=", "'='")
            bound = expr()
            expect("in", "'in'")
            return ("let", name, bound, expr())
        if token.isidentifier() and token != "in":
            return ("var", token)
        if token == "-":
            return ("neg", term())
        if token == "(":
            node = expr()
            expect(")", "')'")
            return node
        raise fail(pos - 1, f"expected an expression, found {_describe(token)}")

    try:
        while True:
            pos = 0
            try:
                node = expr()
                expect("", "end of input")
                return node
            except ParseError:  # split() keeps a digit-led word such as 1in whole
                retry = _TOKEN.findall(text) + [""]
                if retry == tokens:
                    raise
                tokens = retry
    finally:  # the closures name each other through cells: break that cycle
        fail = expect = expr = term = None


class _Elaborator:
    """elaborate's dispatch, as a method rather than a nested function that
    names itself, so that elaborating leaves no reference cycle behind. A let
    hands let_ a partial of let_body, not a lambda, so elab has no closure
    cells to make on every call."""

    __slots__ = ("builder", "bound_names")

    def __init__(self, builder: FullBuilder) -> None:
        self.builder = builder
        self.bound_names: set[str] = set()  # a binder's name enters before its body can run

    def elab(self, ast, scope):
        kind = ast[0] if type(ast) is tuple else None
        if kind == "add":
            return self.builder.add(self.elab(ast[1], scope), self.elab(ast[2], scope))
        if kind == "var":
            name = ast[1]
            if name in self.bound_names:
                while scope is not None:
                    if scope[0] == name:
                        return scope[1]
                    scope = scope[2]
            return self.builder.variable(name)
        if kind == "sub":
            return self.builder.sub(self.elab(ast[1], scope), self.elab(ast[2], scope))
        if kind == "const":
            return self.builder.constant(ast[1])
        if kind == "let":
            bound = self.elab(ast[2], scope)
            self.bound_names.add(ast[1])
            return self.builder.let_(bound, partial(self.let_body, ast, scope))
        if kind == "neg":
            operand = ast[1]
            if type(operand) is tuple and operand[0] == "const" and type(operand[1]) is int:
                return self.builder.constant(-operand[1])
            return self.builder.neg(self.elab(operand, scope))
        raise TypeError(f"not an expression tree: {ast!r}")

    def let_body(self, ast, scope, term):
        """The body of the let node ``ast``, with its name bound to ``term``."""
        return self.elab(ast[3], (ast[1], term, scope))


def _cons(ids, scope, ast):
    """elaborate's walk for an exact DagBuilder: cons the tree ``ast`` into
    the node table ``ids`` and return its id. ``scope`` maps a name to the id
    of the innermost let in reach binding it, or to None. A let runs its body
    once, at once, so it saves the entry it shadows and restores it after,
    where _Elaborator keeps a persistent chain. Nodes are consed in the order
    its terms would cons them: after their children, left to right, and a
    let's bound first."""
    kind = ast[0] if type(ast) is tuple else None
    if kind == "add" or kind == "sub":  # the tree's tag is the node's tag
        return ids[kind, _cons(ids, scope, ast[1]), _cons(ids, scope, ast[2])]
    if kind == "var":
        name = ast[1]
        node = scope.get(name)
        if node is not None:
            return node
        if type(name) is not str or not name:
            require_name(name)
        return ids["var", name]
    if kind == "const":
        if type(ast[1]) is not int:
            require_int(ast[1])
        return ids["const", ast[1]]
    if kind == "let":
        name = ast[1]
        bound = _cons(ids, scope, ast[2])
        outer = scope.get(name)
        scope[name] = bound
        node = _cons(ids, scope, ast[3])
        scope[name] = outer
        return node
    if kind == "neg":
        operand = ast[1]
        if type(operand) is tuple and operand[0] == "const" and type(operand[1]) is int:
            return ids["const", -operand[1]]
        return ids["neg", _cons(ids, scope, operand)]
    raise TypeError(f"not an expression tree: {ast!r}")


def _evaluate(builder, scope, ast):
    """elaborate's walk for an exact Evaluator: the tree ``ast``'s value mod
    2**64, as an Evaluator term, scoped as in _cons. Leaves call the builder."""
    kind = ast[0] if type(ast) is tuple else None
    if kind == "add" or kind == "sub":
        left = _evaluate(builder, scope, ast[1])
        right = _evaluate(builder, scope, ast[2])
        return (left + right if kind == "add" else left - right) & _MASK
    if kind == "var":
        value = scope.get(ast[1])
        return builder.variable(ast[1]) if value is None else value
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


def _size(builder, scope, ast):
    """elaborate's walk for an exact SizeBuilder: the size of the tree ``ast``,
    scoped as in _cons, where a let-bound name is worth 0, the cost of a use."""
    kind = ast[0] if type(ast) is tuple else None
    if kind == "add" or kind == "sub":
        return _size(builder, scope, ast[1]) + _size(builder, scope, ast[2]) + 1
    if kind == "var":
        return builder.variable(ast[1]) if scope.get(ast[1]) is None else 0
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


def elaborate(ast: tuple, builder: FullBuilder):
    """Turn an expression tree into a term of the given interpreter.

    Let-bound names are translated through let_, inner bindings shadow outer
    ones, and names not bound by any let become free DSL variables. A negated
    literal folds into a negative constant. The scope chain is persistent,
    not a stack, since let_ may run a body late, twice or out of order.

    A non-tuple or an unknown tag is a TypeError. Arity is not checked: a
    tuple too short for its tag is an IndexError, and extra items are ignored.

    A builder whose type is exactly DagBuilder, Evaluator, SizeBuilder or
    LetPrinter gets a fused walk with the builder's own results: the value
    mod 2**64 (an Evaluator term) or size at once, with the builder's errors
    in their order, or one term that conses or renders the tree when it
    runs. Such a term checks only the root here. Below it, build_dag raises
    at the same bad node, and print_let at the first in rendering order,
    which the builder's terms break by deferring let bodies. A subclass of
    any of the four gets the builder's terms.
    """
    exact = type(builder)
    if exact is Evaluator:
        return _evaluate(builder, {}, ast)
    if exact is SizeBuilder:
        return _size(builder, {}, ast)
    if exact is not DagBuilder and exact is not LetPrinter:
        return _Elaborator(builder).elab(ast, None)
    if type(ast) is not tuple or ast[0] not in _TAGS:
        raise TypeError(f"not an expression tree: {ast!r}")
    if exact is DagBuilder:
        return lambda ids: _cons(ids, {}, ast)
    return (_TREE, ast)
