"""Shared oracles and random-program machinery for the test suite.

Everything here recomputes results by direct recursion over trees, kept
deliberately separate from the builder/interpreter code paths it checks.
"""

import random
import sys

from exprdag.builders import FullBuilder
from exprdag.dag import NAdd, NConst, NNeg, NSub, NVar
from exprdag.parser import elaborate

_HALF = 1 << 63
_WORD = 1 << 64


def wrap(value):
    return (value + _HALF) % _WORD - _HALF


def tree_node_count(tree):
    match tree:
        case ("neg", operand):
            return 1 + tree_node_count(operand)
        case ("add" | "sub", left, right):
            return 1 + tree_node_count(left) + tree_node_count(right)
        case ("const" | "var", _):
            return 1
    raise TypeError(tree)


def distinct_subtree_count(tree):
    """Number of structurally distinct subtrees of a let-free tree.

    Visits each in-memory object once and interns flat signatures, so the
    count stays linear in the object graph even when the spelled-out tree
    would be astronomically large.
    """
    index = {}
    memo = {}

    def walk(t):
        got = memo.get(id(t))
        if got is not None:
            return got
        match t:
            case ("add" | "sub" as kind, left, right):
                sig = (kind, walk(left), walk(right))
            case ("neg", operand):
                sig = ("neg", walk(operand))
            case ("const" | "var", _):
                sig = t
            case _:
                raise TypeError(t)
        idx = index.get(sig)
        if idx is None:
            idx = len(index)
            index[sig] = idx
        memo[id(t)] = idx
        return idx

    walk(tree)
    return len(index)


def expected_dag_node_count(ast):
    """Independent count of the distinct nodes a surface program denotes.

    Interns flat signatures while walking the syntax; a let contributes its
    bound expression's nodes (used or not) and is otherwise transparent.
    Mirrors the negative-literal fold done during elaboration.
    """
    index = {}

    def walk(node, scope):
        match node:
            case ("const", value):
                sig = ("const", value)
            case ("var", name):
                if name in scope:
                    return scope[name]
                sig = ("var", name)
            case ("neg", ("const", value)):
                sig = ("const", -value)
            case ("add", left, right):
                sig = ("add", walk(left, scope), walk(right, scope))
            case ("sub", left, right):
                sig = ("sub", walk(left, scope), walk(right, scope))
            case ("neg", operand):
                sig = ("neg", walk(operand, scope))
            case ("let", name, bound, body):
                bound_idx = walk(bound, scope)
                return walk(body, {**scope, name: bound_idx})
        idx = index.get(sig)
        if idx is None:
            idx = len(index)
            index[sig] = idx
        return idx

    walk(ast, {})
    return len(index)


def surface_eval(ast, env, scope=None):
    """Independent recursive evaluator over the surface syntax.

    Let bindings go through a name-to-value scope, so cost stays linear in
    the syntax even for heavily shared programs.
    """
    scope = {} if scope is None else scope
    match ast:
        case ("const", value):
            return wrap(value)
        case ("var", name):
            return wrap(scope[name]) if name in scope else wrap(env[name])
        case ("add", left, right):
            return wrap(surface_eval(left, env, scope) + surface_eval(right, env, scope))
        case ("sub", left, right):
            return wrap(surface_eval(left, env, scope) - surface_eval(right, env, scope))
        case ("neg", operand):
            return wrap(-surface_eval(operand, env, scope))
        case ("let", name, bound, body):
            value = surface_eval(bound, env, scope)
            return surface_eval(body, env, {**scope, name: value})
    raise TypeError(ast)


def reference_sklansky(combine, xs):
    """Prefix combines by slicing recursion: the generator's original shape,
    kept as the oracle for its results and its order of combine calls."""
    xs = list(xs)
    if len(xs) <= 1:
        return xs
    mid = len(xs) // 2
    left = reference_sklansky(combine, xs[:mid])
    right = reference_sklansky(combine, xs[mid:])
    pivot = left[-1]
    return left + [combine(pivot, r) for r in right]


def dag_children(node):
    match node:
        case ("add" | "sub", left, right):
            return (left, right)
        case ("neg", operand):
            return (operand,)
    return ()


def netlist_refs_are_backward(text):
    """Check that every nK operand reference points to an earlier line."""
    defined = set()
    for line in text.splitlines():
        words = line.split()
        if words[0] == "out":
            assert words[1] in defined
            continue
        target, _eq, _op, *operands = words
        for operand in operands:
            if operand.startswith("n"):
                assert operand in defined, line
        defined.add(target)
    return True


def python_calls(run):
    """``run()``'s result and the number of Python frames it entered, counted
    with sys.setprofile; a profiler that was already set is put back."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


# Free names stay clear of the v<digits> pattern the let renderer generates.
FREE_NAMES = ("x", "y", "z", "i1", "i2")
LET_NAMES = ("t0", "t1", "t2", "t3", "t4", "t5")


def random_ast(rng: random.Random, max_depth: int, scope=()):
    if max_depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return NConst(rng.randint(-999, 999))
        if scope and roll < 0.7:
            return NVar(rng.choice(scope))
        return NVar(rng.choice(FREE_NAMES))
    pick = rng.random()
    if pick < 0.35:
        return NAdd(random_ast(rng, max_depth - 1, scope), random_ast(rng, max_depth - 1, scope))
    if pick < 0.55:
        return NSub(random_ast(rng, max_depth - 1, scope), random_ast(rng, max_depth - 1, scope))
    if pick < 0.7:
        return NNeg(random_ast(rng, max_depth - 1, scope))
    name = rng.choice(LET_NAMES)
    bound = random_ast(rng, max_depth - 1, scope)
    body = random_ast(rng, max_depth - 1, scope + (name,))
    return ("let", name, bound, body)


def random_env(rng: random.Random):
    return {name: rng.randint(-(10**9), 10**9) for name in FREE_NAMES}


def program_of(ast):
    return lambda builder: elaborate(ast, builder)


class ShareEveryTerm(FullBuilder):
    """Forwarding builder that wraps every construction in let_ with an
    identity body: the fully let-annotated variant of whatever runs on it."""

    def __init__(self, inner):
        self._inner = inner

    def _share(self, term):
        return self._inner.let_(term, lambda t: t)

    def constant(self, value):
        return self._share(self._inner.constant(value))

    def variable(self, name):
        return self._share(self._inner.variable(name))

    def add(self, left, right):
        return self._share(self._inner.add(left, right))

    def neg(self, operand):
        return self._share(self._inner.neg(operand))

    def sub(self, left, right):
        return self._share(self._inner.sub(left, right))

    def let_(self, bound, body):
        return self._share(self._inner.let_(bound, body))
