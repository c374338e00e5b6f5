"""Surface syntax for the DSL.

Grammar, with '+' and '-' on one left-associative level::

    expr  := term (('+' | '-') term)*
    term  := INT | IDENT | '-' term | '(' expr ')'
           | 'let' IDENT '=' expr 'in' expr

'let'/'in' are reserved; a let body extends as far right as possible.

``parse`` scans, then reads in one loop. One regex search rejects the first
character outside the ASCII alphabet of the grammar, and ``str.split`` cuts
the text, its operators and parentheses padded with spaces, into token
strings, with ``""`` as the end marker. The loop walks that list by index and
compares strings; no token carries a position. The levels a term sits in
(parentheses, a let's bound or body, the top) wait on a list used as a stack,
so nesting costs memory, not Python frames. ``split`` keeps a digit-led word
such as ``1in`` whole, which ``_TOKEN`` cuts; the lists agree before it. A
term that meets one swaps in ``_TOKEN``'s tail in place and reads again, and
an error names ``_TOKEN``'s token. A ``ParseError``'s line and column are
computed only when it is raised, by scanning again with ``_TOKEN`` to the
failing token's offset.

``elaborate`` dispatches on a tree node's tag and links a (name, term,
parent) scope frame per let, not a copy, so it is linear in let depth; a
name no let has bound skips the chain walk. An exact DagBuilder, Evaluator,
SizeBuilder or LetPrinter instead gets the walk beside it that fuses a tree
with its terms: ``dag._cons``, ``interp._evaluate``, ``_size`` or ``_show``.
"""

from __future__ import annotations

import re
from functools import partial

from .builders import FullBuilder
from .dag import DagBuilder, _cons
from .interp import _TREE, Evaluator, LetPrinter, SizeBuilder, _evaluate, _size

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
    return repr(_TOKEN.match(token).group()) if token else "end of input"


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

    # The level being read: its closer ("" at the top, None in a let body,
    # which ends where its context ends), left operand, pending add or sub,
    # count of pending unary minuses and binder: a let bound's name, then a
    # let body's (name, bound). The levels around it wait on the stack.
    closer, node, op, negs, binder = "", None, None, 0, None
    stack, pos = [], 0
    while True:
        token = tokens[pos]
        pos += 1
        # Tokens are ASCII, so str.isdigit and str.isidentifier sort them
        # exactly as _TOKEN's alternatives do.
        if token.isdigit():
            try:
                term = ("const", int(token))
            except ValueError:  # longer than the interpreter's int-to-string limit
                raise fail(
                    pos - 1, f"integer literal of {len(token)} digits is too long"
                ) from None
        elif token == "let":
            name = tokens[pos]
            if name in _RESERVED:
                raise fail(pos, f"reserved word {name!r} cannot be used as a name")
            if not name.isidentifier():
                raise fail(pos, f"expected a name to bind, found {_describe(name)}")
            if tokens[pos + 1] != "=":
                raise fail(pos + 1, f"expected '=', found {_describe(tokens[pos + 1])}")
            pos += 2
            stack.append((closer, node, op, negs, binder))
            closer, node, op, negs, binder = "in", None, None, 0, name
            continue
        elif token.isidentifier() and token != "in":
            term = ("var", token)
        elif token == "-":
            negs += 1
            continue
        elif token == "(":
            stack.append((closer, node, op, negs, binder))
            closer, node, op, negs, binder = ")", None, None, 0, None
            continue
        elif token[:1].isdigit():  # a digit-led word such as 1in, kept whole by split
            pos -= 1
            tokens[pos:] = _TOKEN.findall(text)[pos:] + [""]
            continue
        else:
            raise fail(pos - 1, f"expected an expression, found {_describe(token)}")
        while True:  # apply what is pending on the term, then read + or - or close levels
            while negs:
                term = ("neg", term)
                negs -= 1
            node = term if op is None else (op, node, term)
            token = tokens[pos]
            if token == "+" or token == "-":
                op = "add" if token == "+" else "sub"
                pos += 1
                break
            if closer is None:
                term = ("let", *binder, node)
            elif token != closer:
                raise fail(pos, f"expected {_describe(closer)}, found {_describe(token)}")
            elif not token:
                return node
            else:
                pos += 1
                if token == "in":
                    closer, node, op, binder = None, None, None, (binder, node)
                    break
                term = node
            closer, node, op, negs, binder = stack.pop()


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
