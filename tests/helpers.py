"""Shared oracles, the multiply-by-4 fixtures, random-program machinery
and the CLI's process runner for the test suite.

The oracles recompute results by direct recursion over trees, kept
deliberately separate from the builder/interpreter code paths they check.
"""

import itertools
import random
import subprocess
import sys
import threading
from collections import defaultdict

from hypothesis import strategies as st

from exprdag.builders import FullBuilder
from exprdag.dag import Dag, DagBuilder
from exprdag.generators import mul
from exprdag.interp import Evaluator, SizeBuilder, print_let
from exprdag.parser import (
    _BAD_CHAR,
    _RESERVED,
    _TOKEN,
    _describe,
    _Elaborator,
    _error_at,
    elaborate,
)

_HALF = 1 << 63
_WORD = 1 << 64


def exp_mul4(b):
    return mul(b, 4, b.variable("i1"))


def exp_mul4_shared(b):
    return b.let_(b.variable("i1"), lambda x: b.let_(b.add(x, x), lambda y: b.add(y, y)))


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


def descent_parse(text):
    """The parser's original recursive descent, two frames per nesting
    level, kept as the oracle for parse's trees and ParseErrors."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise _error_at(text, bad.start(), f"unexpected character {bad.group()!r}")
    pad = text.replace("(", " ( ").replace(")", " ) ").replace("+", " + ")
    tokens = pad.replace("-", " - ").replace("=", " = ").split() + [""]

    def fail(index, message):
        starts = [match.start() for match in _TOKEN.finditer(text)]
        return _error_at(text, (starts + [len(text)])[index], message)

    def expect(token, what):
        nonlocal pos
        if tokens[pos] != token:
            raise fail(pos, f"expected {what}, found {_describe(tokens[pos])}")
        pos += 1

    def expr():
        nonlocal pos
        node = term()
        while tokens[pos] in ("+", "-"):
            kind = "add" if tokens[pos] == "+" else "sub"
            pos += 1
            node = (kind, node, term())
        return node

    def term():
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token.isdigit():
            try:
                value = int(token)
            except ValueError:
                raise fail(pos - 1, f"integer literal of {len(token)} digits is too long") from None
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
        if token[:1].isdigit():  # a digit-led word such as 1in, kept whole by split
            pos -= 1
            tokens[pos:] = _TOKEN.findall(text)[pos:] + [""]
            return term()
        raise fail(pos - 1, f"expected an expression, found {_describe(token)}")

    pos = 0
    try:
        node = expr()
        expect("", "end of input")
        return node
    finally:  # the closures name each other through cells: break that cycle
        fail = expect = expr = term = None


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


OPCODES = {"add": "ADD", "sub": "SUB", "neg": "NEG", "const": "LOADI", "var": "LOADV"}


def netlist_oracle(dag, roots):
    """emit_netlist's text, each id formatted on its own."""
    lines = []
    for node_id, (kind, *args) in dag.items():
        if kind == "var":
            lines.append(f"n{node_id} = input {args[0]}\n")
        elif kind == "const":
            lines.append(f"n{node_id} = const {args[0]}\n")
        else:
            lines.append(f"n{node_id} = {kind} " + " ".join(f"n{arg}" for arg in args) + "\n")
    return "".join(lines) + "".join(f"out n{root}\n" for root in roots)


def threeaddr_oracle(dag, root):
    """emit_threeaddr's text, each id formatted on its own."""
    lines = []
    for node_id, (kind, *args) in dag.items():
        operands = args if kind in ("var", "const") else [f"r{arg}" for arg in args]
        lines.append(f"{OPCODES[kind]} r{node_id}, " + ", ".join(f"{op}" for op in operands) + "\n")
    return "".join(lines) + f"RET r{root}\n"


class CountingTable(defaultdict):
    """A node table, as a Dag's, that counts its lookups, hits and misses
    alike, and its misses apart. Being a Python subclass, it runs a frame
    per lookup, as a Dag's own table does not."""

    calls = misses = 0

    def __getitem__(self, node):
        self.calls += 1
        return super().__getitem__(node)

    def __missing__(self, node):
        self.misses += 1
        return super().__missing__(node)


class CountingBuilder(DagBuilder):
    """A DagBuilder that counts the let terms it makes, their runs, and the
    bodies they run, which is once per let term built."""

    lets = let_runs = bodies_run = 0

    def let_(self, bound, body):
        def counted_body(shared):
            self.bodies_run += 1
            return body(shared)

        def counted_run(ids):
            self.let_runs += 1
            return run(ids)

        self.lets += 1
        run = super().let_(bound, counted_body)
        return counted_run


class ClosureDagBuilder(DagBuilder):
    """A DagBuilder that is not exactly one, so that elaborate hands it the
    builder's deferred terms instead of its direct walk."""


class GenericEvaluator(Evaluator):
    """An Evaluator that is not exactly one, so that elaborate runs it through
    the builder's terms instead of its fused walk."""


class GenericSizeBuilder(SizeBuilder):
    """A SizeBuilder that is not exactly one, for the same reason."""


def counted_forest(program, builder=None):
    """Build a forest program's terms, in order, with ``builder`` (a new
    CountingBuilder by default) into a fresh Dag whose node table counts;
    return that Dag unfrozen, its table and the builder."""
    dag = Dag()
    table = dag._ids = CountingTable(itertools.count().__next__)
    dag._nodes = table.keys()
    builder = CountingBuilder() if builder is None else builder
    for term in program(builder):
        term(table)
    return dag, table, builder


def outcome(run):
    """run()'s value, or the type and text of the exception it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def fused_outcomes(tree, env):
    """The outcomes of evaluate and size on a tree, through elaborate's fused
    walks, each checked equal to the outcome through the builder's terms."""
    value = outcome(lambda: elaborate(tree, Evaluator(env)))
    assert value == outcome(lambda: elaborate(tree, GenericEvaluator(env)))
    nodes = outcome(lambda: elaborate(tree, SizeBuilder()))
    assert nodes == outcome(lambda: elaborate(tree, GenericSizeBuilder()))
    return value, nodes


def shown_outcome(tree):
    """The outcome of print_let on a tree through elaborate's fused walk,
    checked equal to the outcome through the builder's terms."""
    text = outcome(lambda: print_let(program_of(tree)))
    assert text == outcome(lambda: print_let(generic_program_of(tree)))
    return text


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


def run_deep(fn, limit=100_000, stack=256 * 1024 * 1024):
    """Run fn on a worker thread with a big stack and a raised recursion
    limit, restoring both; return its result or raise its exception. A
    thread starts with an empty stack, so ``limit`` counts fn's frames
    alone, give or take the thread's own few."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # re-raised below, on the calling thread
            result["error"] = exc

    old_limit, old_stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(limit)
    try:
        threading.stack_size(stack)
        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=120)
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    assert not worker.is_alive(), "deep run did not finish"
    if "error" in result:
        raise result["error"]
    return result["value"]


# Free names stay clear of the v<digits> pattern the let renderer generates.
FREE_NAMES = ("x", "y", "z", "i1", "i2")
LET_NAMES = ("t0", "t1", "t2", "t3", "t4", "t5")
# 200 chained lets: 1,600 tree nodes (200 lets, 600 operators, 800 leaves)
# and 801 distinct nodes. Frame gates on the direct walk and on print_let
# count calls over it.
LETS_200 = (
    "let a0 = x + 1 in "
    + "".join(f"let a{i} = a{i - 1} + a{i - 1} - (y - {i}) in " for i in range(1, 200))
    + "-a199 + x"
)
# Pieces of text near the grammar, two of them characters the scanner rejects.
GRAMMAR_ATOMS = (
    ("let", "in", "=", "+", "-", "(", ")", " ", "\t", "\n", "\r\n", "x", "t1", "0", "42")
    + ("$", "\u00e9")
)


# v0 and v1 are the names print_let gives its first binders, so the round
# trip also checks that no binder captures a free variable.
NAMES = FREE_NAMES + LET_NAMES + ("v0", "v1")

# Values reach past the signed 64-bit range and crowd its ends, so sums and
# negations wrap.
wide_ints = st.one_of(
    st.sampled_from((2**63 - 1, 2**63, -(2**63), 2**64, 2**64 + 1, -(2**64) - 1)),
    st.integers(-(2**70), 2**70),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(-(2**63) - 4, -(2**63) + 4),
)


def leaves():
    return st.one_of(
        st.one_of(st.integers(-50, 50), wide_ints).map(lambda value: ("const", value)),
        st.sampled_from(NAMES).map(lambda name: ("var", name)),
    )


def asts(with_neg_sub=True, with_let=True, siblings=False, with_neg=True):
    """Trees over NAMES. With ``siblings``, some are a let and then a sibling
    that uses the let's name, where it is free or bound by an outer let: a
    walk whose scope outlives a let's body reads the wrong binding there.
    Without ``with_neg``, trees have sub nodes but no neg nodes."""

    def extend(inner):
        options = [st.tuples(st.just("add"), inner, inner)]
        if with_neg_sub:
            options.append(st.tuples(st.just("sub"), inner, inner))
        if with_neg_sub and with_neg:
            options.append(st.tuples(st.just("neg"), inner))
        if with_let:
            let = st.tuples(st.just("let"), st.sampled_from(LET_NAMES), inner, inner)
            options.append(let)
        if siblings:
            options.append(
                st.builds(
                    lambda kind, name, bound, body, after: (
                        kind, ("let", name, bound, body), ("add", after, ("var", name))
                    ),
                    st.sampled_from(("add", "sub")),
                    st.sampled_from(LET_NAMES),
                    inner,
                    inner,
                    inner,
                )
            )
        return st.one_of(options)

    return st.recursive(leaves(), extend, max_leaves=30)


def random_ast(rng: random.Random, max_depth: int, scope=()):
    if max_depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return ("const", rng.randint(-999, 999))
        if scope and roll < 0.7:
            return ("var", rng.choice(scope))
        return ("var", rng.choice(FREE_NAMES))
    pick = rng.random()
    if pick < 0.35:
        return ("add", random_ast(rng, max_depth - 1, scope), random_ast(rng, max_depth - 1, scope))
    if pick < 0.55:
        return ("sub", random_ast(rng, max_depth - 1, scope), random_ast(rng, max_depth - 1, scope))
    if pick < 0.7:
        return ("neg", random_ast(rng, max_depth - 1, scope))
    name = rng.choice(LET_NAMES)
    bound = random_ast(rng, max_depth - 1, scope)
    body = random_ast(rng, max_depth - 1, scope + (name,))
    return ("let", name, bound, body)


def random_env(rng: random.Random):
    return {name: rng.randint(-(10**9), 10**9) for name in FREE_NAMES}


def run_module(argv, stdin="", **options):
    """Run ``python -m exprdag *argv`` in a new interpreter fed ``stdin``, and
    return its exit code, stdout and stderr as text. The child imports the
    exprdag that its inherited import path finds: the checkout under
    ``PYTHONPATH=src``, the installed package without it."""
    proc = subprocess.run(
        [sys.executable, "-m", "exprdag", *argv], input=stdin, capture_output=True, text=True, **options
    )
    return proc.returncode, proc.stdout, proc.stderr


def program_of(ast):
    return lambda builder: elaborate(ast, builder)


def generic_program_of(ast):
    """A program that runs ``ast`` through the builder's terms on any builder,
    as elaborate does on one it has no fused walk for. print_let makes its
    own exact LetPrinter, so no subclass can take this path for it."""
    return lambda builder: _Elaborator(builder).elab(ast, None)


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
