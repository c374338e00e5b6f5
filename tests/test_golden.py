"""Byte-identity of every output kind over a fixed, seeded program set.

Each output kind is folded into one md5 over a deterministic sweep:
random surface programs (a third of them under a partial environment, and
each also evaluated and printed fully let-annotated, and printed inside a
let term that aliases it), ``mul``/``mul_shared`` and
``sklansky``/``sklansky_shared`` forests. ``eval_dag_wide`` evaluates every
root again under ``WIDE``, whose values sit near -2**63 and 2**63 and past
2**64, so that sums and negations wrap. ``parse`` records the tree or the
error for seeded strings near the grammar, some with a digit-led word such
as ``1in`` or a literal too long to convert. A refactor that is meant to
keep behaviour must keep every digest; a failure names each kind that
moved.
"""

import hashlib
import random

from exprdag.dag import build_dag, build_forest, format_dag
from exprdag.generators import mul, mul_shared, sklansky, sklansky_shared
from exprdag.interp import evaluate, print_flat, print_let, size
from exprdag.netlist import emit_netlist, emit_threeaddr, eval_dag
from exprdag.parser import parse

import helpers

GOLDEN = {
    "format_dag": "6f56bac87d528cc8f14988d5c55ac0c1",
    "emit_netlist": "7ff8baba02d0edadaba4bbf9245cbe2f",
    "emit_threeaddr": "9ff38431ec1f4dd808a761a57e230a26",
    "eval_dag": "e52dd8b8d5cbd08456e90f752e7cd84e",
    "eval_dag_wide": "6c0638b1a47609dc9b8ccb9a89fb9381",
    "evaluate": "5d1f377c0d65d0a6e6e793ad6376e9e9",
    "size": "cb68303a4303daf5a9f883ce6b470cab",
    "print_let": "5f5622b6dbebbe89f1e49bd3d5bb15ff",
    "print_flat": "9b4ec23b6c79fa245082ca805f83c770",
    "print_let_shared": "da92e550a8e75e32ab8eb166fe75280e",
    "print_let_aliased": "4924b548570b45438e9d2cfd7356ce3c",
    "parse": "b0c09e2f359db2e5a6e22434b3debb58",
}

#: A binding for every variable of the sweep, drawn from no rng so that the
#: other digests keep their programs and environments.
WIDE = {
    name: (2**63 - 1 - k, -(2**63) + k, 2**64 + 3 * k, -(2**70) - k)[k % 4]
    for k, name in enumerate(helpers.FREE_NAMES + ("i",) + tuple(f"x{i}" for i in range(32)))
}

#: The pieces of the ``parse`` sweep's strings.
PARSE_ATOMS = helpers.GRAMMAR_ATOMS + ("1in", "0x", "_a", "7" * 5000)


def outcome(run):
    """A value, or an error's type and text."""
    try:
        return repr(run())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def record_forest(out, forest, env):
    """Record every output kind for the roots of ``forest``, a program that
    returns a list of terms."""
    roots, dag = build_forest(forest)
    out["format_dag"].append(format_dag(roots, dag))
    out["emit_netlist"].append(emit_netlist(dag, roots))
    for index, root in enumerate(roots):
        program = lambda b, index=index: forest(b)[index]
        out["emit_threeaddr"].append(emit_threeaddr(dag, root))
        out["eval_dag"].append(outcome(lambda: eval_dag(dag, root, env)))
        out["eval_dag_wide"].append(outcome(lambda: eval_dag(dag, root, WIDE)))
        out["evaluate"].append(outcome(lambda: evaluate(program, env)))
        out["size"].append(str(size(program)))
        out["print_let"].append(print_let(program))
        out["print_flat"].append(print_flat(program))


def aliased(b, t):
    """``t`` used four times, twice through a let bound to it; the free ``v0``
    in the let body makes print_let render again with that name skipped."""
    return b.sub(b.add(t, b.let_(t, lambda u: b.add(u, b.variable("v0")))), b.neg(t))


def digests():
    out = {kind: [] for kind in GOLDEN}
    rng = random.Random(20111)
    for index in range(1200):
        ast = helpers.random_ast(rng, index % 9)
        env = helpers.random_env(rng)
        if index % 3 == 0:
            env = {name: value for name, value in env.items() if rng.random() < 0.6}
        program = helpers.program_of(ast)
        record_forest(out, lambda b: [program(b)], env)
        shared = lambda b: program(helpers.ShareEveryTerm(b))
        out["evaluate"].append(outcome(lambda: evaluate(shared, env)))
        out["print_let_shared"].append(print_let(shared))
        out["print_let_aliased"].append(print_let(lambda b: aliased(b, program(b))))
    env = {"i": 12345}
    for n in range(-20, 130):
        for generator in (mul, mul_shared):
            record_forest(out, lambda b: [generator(b, n, b.variable("i"))], env)
    for n in range(33):
        env = {f"x{i}": 7 * i - 50 for i in range(n)}
        xs = lambda b: [b.variable(f"x{i}") for i in range(n)]
        record_forest(out, lambda b: sklansky(b.add, xs(b)), env)
        record_forest(out, lambda b: sklansky_shared(b, xs(b)), env)
    rng = random.Random(2121)
    for _ in range(20_000):
        text = "".join(rng.choices(PARSE_ATOMS, k=rng.randint(0, 25)))
        out["parse"].append(outcome(lambda: parse(text)))
    return {
        kind: hashlib.md5("\n".join(lines).encode()).hexdigest() for kind, lines in out.items()
    }


def test_every_output_kind_is_byte_identical():
    got = digests()
    moved = [kind for kind in GOLDEN if got[kind] != GOLDEN[kind]]
    assert not moved, f"output moved for {', '.join(moved)}: {got}"
