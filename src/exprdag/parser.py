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

``elaborate`` links a (name, term, parent) scope frame per let, not a copy,
so it is linear in let depth; a name no let has bound skips the chain walk.
"""

from __future__ import annotations

import re

from .builders import Add, Constant, ExprTree, FullBuilder, Let, Neg, Sub, Variable

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


def parse(text: str) -> ExprTree:
    """Parse program text into an ExprTree, or raise ParseError with position
    information."""
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

    def expr() -> ExprTree:
        nonlocal pos
        node = term()
        while tokens[pos] in ("+", "-"):
            op = tokens[pos]
            pos += 1
            rhs = term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term() -> ExprTree:
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
            return Constant(value)
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
            return Let(name, bound, expr())
        if token.isidentifier() and token != "in":
            return Variable(token)
        if token == "-":
            return Neg(term())
        if token == "(":
            node = expr()
            expect(")", "')'")
            return node
        raise fail(pos - 1, f"expected an expression, found {_describe(token)}")

    node = expr()
    expect("", "end of input")
    return node


def elaborate(ast: ExprTree, builder: FullBuilder):
    """Turn an expression tree into a term of the given interpreter.

    Let-bound names are translated through let_, inner bindings shadow outer
    ones, and names not bound by any let become free DSL variables. A negated
    literal folds into a negative constant. The scope chain is persistent,
    not a stack, since let_ may run a body late, twice or out of order.
    """
    bound_names = set()  # a binder's name enters before its body can run

    def elab(ast, scope):
        kind = type(ast)
        if kind is Add:
            return builder.add(elab(ast.left, scope), elab(ast.right, scope))
        if kind is Variable:
            name = ast.name
            if name in bound_names:
                while scope is not None:
                    if scope[0] == name:
                        return scope[1]
                    scope = scope[2]
            return builder.variable(name)
        if kind is Sub:
            return builder.sub(elab(ast.left, scope), elab(ast.right, scope))
        if kind is Constant:
            return builder.constant(ast.value)
        if kind is Let:
            bound = elab(ast.bound, scope)
            bound_names.add(ast.name)
            return builder.let_(bound, lambda term: elab(ast.body, (ast.name, term, scope)))
        if kind is Neg:
            if type(ast.operand) is Constant:
                return builder.constant(-ast.operand.value)
            return builder.neg(elab(ast.operand, scope))
        raise TypeError(f"not an expression tree: {ast!r}")

    return elab(ast, None)
