"""Reference semantics written independently of exprdag.

Everything the benchmark compares exprdag's outputs against comes from here
or from the workload generators: wrap-64 arithmetic, a line interpreter for
emitted netlists and three-address listings, and an evaluator for surface
text (used on ``print_let`` output and to cross-check generated programs).
None of it imports exprdag. Every routine is iterative, so input depth is
bounded by memory rather than by the recursion limit.
"""

from __future__ import annotations

import re

_HALF = 1 << 63
_WORD = 1 << 64


def wrap64(value: int) -> int:
    """Reduce to the signed 64-bit range with two's-complement wraparound."""
    return (value + _HALF) % _WORD - _HALF


class Mismatch(ValueError):
    """An emitted listing is malformed or computes the wrong value."""


def _operand(text: str, prefix: str, values: list[int]) -> int:
    if not text.startswith(prefix) or not text[len(prefix):].isdigit():
        raise Mismatch(f"bad operand {text!r}")
    index = int(text[len(prefix):])
    if index >= len(values):
        raise Mismatch(f"operand {text!r} refers forward")
    return values[index]


def _lookup(env: dict[str, int], name: str) -> int:
    try:
        return wrap64(env[name])
    except KeyError:
        raise Mismatch(f"unbound input {name!r}") from None


def run_netlist(text: str, env: dict[str, int]) -> list[int]:
    """Values of the ``out`` lines of a netlist, in order.

    Node lines must be numbered densely from n0 and may only reference
    earlier nodes.
    """
    values: list[int] = []
    outs: list[int] = []
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["out"] and len(words) == 2:
            outs.append(_operand(words[1], "n", values))
            continue
        if len(words) < 4 or words[0] != f"n{len(values)}" or words[1] != "=":
            raise Mismatch(f"bad netlist line {line!r}")
        op, args = words[2], words[3:]
        if op == "const" and len(args) == 1:
            values.append(wrap64(int(args[0])))
        elif op == "input" and len(args) == 1:
            values.append(_lookup(env, args[0]))
        elif op == "neg" and len(args) == 1:
            values.append(wrap64(-_operand(args[0], "n", values)))
        elif op in ("add", "sub") and len(args) == 2:
            lhs = _operand(args[0], "n", values)
            rhs = _operand(args[1], "n", values)
            values.append(wrap64(lhs + rhs if op == "add" else lhs - rhs))
        else:
            raise Mismatch(f"bad netlist line {line!r}")
    return outs


def run_threeaddr(text: str, env: dict[str, int]) -> int:
    """The value a three-address listing returns from its single RET."""
    regs: list[int] = []
    result = None
    for line in text.splitlines():
        words = line.replace(",", " ").split()
        if result is not None or not words:
            raise Mismatch(f"bad three-address line {line!r}")
        op, args = words[0], words[1:]
        if op == "RET" and len(args) == 1:
            result = _operand(args[0], "r", regs)
            continue
        if not args or args[0] != f"r{len(regs)}":
            raise Mismatch(f"bad three-address line {line!r}")
        args = args[1:]
        if op == "LOADI" and len(args) == 1:
            regs.append(wrap64(int(args[0])))
        elif op == "LOADV" and len(args) == 1:
            regs.append(_lookup(env, args[0]))
        elif op == "NEG" and len(args) == 1:
            regs.append(wrap64(-_operand(args[0], "r", regs)))
        elif op in ("ADD", "SUB") and len(args) == 2:
            lhs = _operand(args[0], "r", regs)
            rhs = _operand(args[1], "r", regs)
            regs.append(wrap64(lhs + rhs if op == "ADD" else lhs - rhs))
        else:
            raise Mismatch(f"bad three-address line {line!r}")
    if result is None:
        raise Mismatch("no RET line")
    return result


_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+()=]|\S")


def tokens(text: str) -> list[str]:
    """Surface-syntax tokens, without an end marker."""
    return _TOKEN.findall(text)


class _Frame:
    """One open group: the top level, a parenthesis, a let's bound
    expression or a let's body. ``sign`` and ``negs`` are pending for the
    group's next term."""

    __slots__ = ("kind", "acc", "sign", "negs", "name", "saved")

    def __init__(self, kind: str, name: str | None = None, saved=None):
        self.kind = kind
        self.acc: int | None = None
        self.sign = 1
        self.negs = 0
        self.name = name
        self.saved = saved


_UNBOUND = object()


def eval_text(text: str, env: dict[str, int]) -> int:
    """Evaluate surface text: integers, names, ``+``, ``-``, unary minus,
    parentheses and ``let name = e in e`` with lexical shadowing.

    A let body extends as far right as possible, so it closes at the ``)``,
    ``in`` or end of input that closes the group around the let.
    """
    scope = {name: wrap64(value) for name, value in env.items()}
    stack = [_Frame("top")]
    want_term = True
    toks = iter(tokens(text))

    def push_value(value: int) -> None:
        frame = stack[-1]
        if frame.negs % 2:
            value = -value
        frame.negs = 0
        if frame.acc is None:
            frame.acc = wrap64(value)
        else:
            frame.acc = wrap64(frame.acc + frame.sign * value)

    def close_bodies() -> None:
        while stack[-1].kind == "body":
            body = stack.pop()
            if body.saved is _UNBOUND:
                del scope[body.name]
            else:
                scope[body.name] = body.saved
            push_value(body.acc)

    def close(kind: str) -> _Frame:
        if want_term:
            raise Mismatch("expression ends early")
        close_bodies()
        if stack[-1].kind != kind:
            raise Mismatch(f"unbalanced text: expected to close {stack[-1].kind}")
        return stack.pop()

    for tok in toks:
        if want_term:
            if tok == "-":
                stack[-1].negs += 1
            elif tok == "(":
                stack.append(_Frame("paren"))
            elif tok == "let":
                name = next(toks, "")
                if not re.fullmatch(r"[A-Za-z_]\w*", name) or next(toks, "") != "=":
                    raise Mismatch("malformed let")
                stack.append(_Frame("bound", name=name))
            elif tok.isdigit():
                push_value(int(tok))
                want_term = False
            elif tok in scope:
                push_value(scope[tok])
                want_term = False
            else:
                raise Mismatch(f"unexpected token {tok!r}")
        elif tok in ("+", "-"):
            stack[-1].sign = 1 if tok == "+" else -1
            want_term = True
        elif tok == ")":
            push_value(close("paren").acc)
        elif tok == "in":
            bound = close("bound")
            stack.append(_Frame("body", bound.name, scope.get(bound.name, _UNBOUND)))
            scope[bound.name] = bound.acc
            want_term = True
        else:
            raise Mismatch(f"unexpected token {tok!r}")
    return close("top").acc
