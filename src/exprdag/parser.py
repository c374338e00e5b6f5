"""Surface syntax for the DSL.

Grammar, with '+' and '-' on one left-associative level::

    expr  := term (('+' | '-') term)*
    term  := INT | IDENT | '-' term | '(' expr ')'
           | 'let' IDENT '=' expr 'in' expr

'let'/'in' are reserved; a let body extends as far right as possible.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .builders import Add, Constant, ExprTree, FullBuilder, Let, Neg, Sub, Variable

_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CONT = set(string.ascii_letters + string.digits + "_")
_DIGITS = set(string.digits)
_RESERVED = ("let", "in")


class ParseError(ValueError):
    """Syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "ident", "let", "in", "+", "-", "(", ")", "=", "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch in _DIGITS:
            end = pos
            while end < n and text[end] in _DIGITS:
                end += 1
            tokens.append(Token("int", text[pos:end], line, col))
            col += end - pos
            pos = end
            continue
        if ch in _IDENT_START:
            end = pos
            while end < n and text[end] in _IDENT_CONT:
                end += 1
            word = text[pos:end]
            kind = word if word in _RESERVED else "ident"
            tokens.append(Token(kind, word, line, col))
            col += end - pos
            pos = end
            continue
        if ch in "+-()=":
            tokens.append(Token(ch, ch, line, col))
            pos += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _describe(token: Token) -> str:
    return "end of input" if token.kind == "eof" else f"{token.text!r}"


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {what}, found {_describe(token)}", token.line, token.col)
        return self.advance()

    def expr(self) -> ExprTree:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> ExprTree:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            try:
                value = int(token.text)
            except ValueError:  # longer than the interpreter's int-to-string limit
                raise ParseError(
                    f"integer literal of {len(token.text)} digits is too long",
                    token.line,
                    token.col,
                ) from None
            return Constant(value)
        if token.kind == "ident":
            self.advance()
            return Variable(token.text)
        if token.kind == "-":
            self.advance()
            return Neg(self.term())
        if token.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if token.kind == "let":
            self.advance()
            name = self.peek()
            if name.kind in _RESERVED:
                raise ParseError(
                    f"reserved word {name.text!r} cannot be used as a name", name.line, name.col
                )
            name = self.expect("ident", "a name to bind")
            self.expect("=", "'='")
            bound = self.expr()
            self.expect("in", "'in'")
            body = self.expr()
            return Let(name.text, bound, body)
        raise ParseError(f"expected an expression, found {_describe(token)}", token.line, token.col)


def parse(text: str) -> ExprTree:
    """Parse program text into an ExprTree, or raise ParseError with position
    information."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    parser.expect("eof", "end of input")
    return node


def elaborate(ast: ExprTree, builder: FullBuilder, scope: dict | None = None):
    """Turn an expression tree into a term of the given interpreter.

    Let-bound names are translated through let_, inner bindings shadow outer
    ones, and names not bound by any let become free DSL variables. A negated
    literal folds into a negative constant.
    """
    scope = {} if scope is None else scope
    match ast:
        case Constant(value):
            return builder.constant(value)
        case Variable(name):
            if name in scope:
                return scope[name]
            return builder.variable(name)
        case Neg(Constant(value)):
            return builder.constant(-value)
        case Add(left, right):
            return builder.add(elaborate(left, builder, scope), elaborate(right, builder, scope))
        case Sub(left, right):
            return builder.sub(elaborate(left, builder, scope), elaborate(right, builder, scope))
        case Neg(operand):
            return builder.neg(elaborate(operand, builder, scope))
        case Let(name, bound, body):
            bound_term = elaborate(bound, builder, scope)
            return builder.let_(
                bound_term, lambda term: elaborate(body, builder, {**scope, name: term})
            )
    raise TypeError(f"not an expression tree: {ast!r}")
