"""Surface syntax for the DSL.

Grammar, with '+' and '-' on one left-associative level::

    expr  := term (('+' | '-') term)*
    term  := INT | IDENT | '-' term | '(' expr ')'
           | 'let' IDENT '=' expr 'in' expr

'let'/'in' are reserved; a let body extends as far right as possible.

``parse`` scans, then descends. One regex search rejects the first character
outside the ASCII alphabet of the grammar, and one ``re.findall`` splits the
text into token strings, with ``""`` as the end marker. Recursive descent
walks that list by index and compares strings; no token carries a position.
A ``ParseError``'s line and column are computed only when it is raised, by
scanning again to the failing token's offset.

``elaborate`` dispatches on a tree node's tag and links a (name, term,
parent) scope frame per let, not a copy, so it is linear in let depth; a
name no let has bound skips the chain walk.
"""

from __future__ import annotations

import re

from .builders import FullBuilder

# ASCII only: \d, \w and \s would also admit other Unicode digits, letters
# and spaces.
_BAD_CHAR = re.compile(r"[^ \t\r\nA-Za-z0-9_+\-()=]")
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+()=]")
_RESERVED = ("let", "in")


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
    tokens = _TOKEN.findall(text)
    tokens.append("")
    pos = 0

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

    node = expr()
    expect("", "end of input")
    return node


def elaborate(ast: tuple, builder: FullBuilder):
    """Turn an expression tree into a term of the given interpreter.

    Let-bound names are translated through let_, inner bindings shadow outer
    ones, and names not bound by any let become free DSL variables. A negated
    literal folds into a negative constant. The scope chain is persistent,
    not a stack, since let_ may run a body late, twice or out of order.

    A non-tuple or an unknown tag is a TypeError. Arity is not checked: a
    tuple too short for its tag is an IndexError, and extra items are ignored.
    """
    bound_names = set()  # a binder's name enters before its body can run

    def elab(ast, scope):
        kind = ast[0] if type(ast) is tuple else None
        if kind == "add":
            return builder.add(elab(ast[1], scope), elab(ast[2], scope))
        if kind == "var":
            name = ast[1]
            if name in bound_names:
                while scope is not None:
                    if scope[0] == name:
                        return scope[1]
                    scope = scope[2]
            return builder.variable(name)
        if kind == "sub":
            return builder.sub(elab(ast[1], scope), elab(ast[2], scope))
        if kind == "const":
            return builder.constant(ast[1])
        if kind == "let":
            bound = elab(ast[2], scope)
            bound_names.add(ast[1])
            # closing over ast and scope only keeps elab's other locals out of cells
            return builder.let_(bound, lambda term: elab(ast[3], (ast[1], term, scope)))
        if kind == "neg":
            operand = ast[1]
            if type(operand) is tuple and operand[0] == "const":
                return builder.constant(-operand[1])
            return builder.neg(elab(operand, scope))
        raise TypeError(f"not an expression tree: {ast!r}")

    return elab(ast, None)
