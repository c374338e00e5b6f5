"""Seeded workload generators.

Each workload turns a seed into a fixed pool of 100 items; the benchmark
cycles through the pool. Generation never imports exprdag: an item carries only
what the program under test is given (the program text or generator
arguments and the environment) plus references computed here.

The same (workload, seed) always gives byte-identical items, because all
randomness comes from one ``random.Random`` seeded with a string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import tokens, wrap64


@dataclass
class Item:
    """One program and its reference results.

    ``kind`` selects how the benchmark compiles it: ``mul`` (exprdag's
    ``mul`` generator on one variable), ``forest`` (``sklansky_shared``
    over ``names``) or ``text`` (surface syntax).
    """

    index: int
    kind: str
    env: dict[str, int]
    root_values: list[int]  # reference value of every root, in root order
    size: int  # reference ``size`` of the last root's program
    tree_size: int  # reference ``size`` summed over all roots
    eval_roots: list[int] = field(default_factory=list)  # roots checked by eval_dag
    n: int = 0  # mul: the multiplier
    names: list[str] = field(default_factory=list)  # mul / forest: input names
    text: str = ""  # text: the program
    token_count: int = 0  # text: surface tokens, end marker excluded
    deep: bool = False  # text: nests deeper than a recursive front end handles


def _ident(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(16**4):04x}"


def _value(rng: random.Random) -> int:
    return rng.randrange(-(1 << 63), 1 << 63)


# --- mul-tree -------------------------------------------------------------

MUL_POOL = 100
MUL_BAND = (2**15 - 1024, 2**15 - 1)


def mul_tree(seed: int) -> list[Item]:
    """Unshared ``mul`` by n just below 2^15 on one seeded variable.

    References in closed form: the value is n*x, and the expanded tree is
    n leaves joined by n-1 additions, printed as n copies of the name.
    """
    rng = random.Random(f"mul-tree:{seed}")
    items = []
    for index in range(MUL_POOL):
        n = rng.randint(*MUL_BAND)
        name = _ident(rng, "x")
        x = _value(rng)
        items.append(
            Item(
                index=index,
                kind="mul",
                env={name: x},
                root_values=[wrap64(n * x)],
                size=2 * n - 1,
                tree_size=2 * n - 1,
                eval_roots=[0],
                n=n,
                names=[name],
            )
        )
    return items


# --- sklansky-forest ------------------------------------------------------

FOREST_POOL = 100
FOREST_INPUTS = 256
FOREST_EVAL_SAMPLE = 7


def sklansky_forest(seed: int) -> list[Item]:
    """``sklansky_shared`` prefix sums over 256 seeded inputs.

    Root i is the sum of inputs 0..i; its expanded tree has i+1 leaves and
    i additions, so the size of root i is 2i+1.
    """
    rng = random.Random(f"sklansky-forest:{seed}")
    items = []
    for index in range(FOREST_POOL):
        names = [f"i{k:05d}" for k in rng.sample(range(100000), FOREST_INPUTS)]
        env = {name: _value(rng) for name in names}
        prefix, total = [], 0
        for name in names:
            total = wrap64(total + env[name])
            prefix.append(total)
        last = FOREST_INPUTS - 1
        sample = sorted(rng.sample(range(last), FOREST_EVAL_SAMPLE))
        items.append(
            Item(
                index=index,
                kind="forest",
                env=env,
                root_values=prefix,
                size=2 * last + 1,
                tree_size=FOREST_INPUTS * FOREST_INPUTS,
                eval_roots=sample + [last],
                names=names,
            )
        )
    return items


# --- text-lets ------------------------------------------------------------

TEXT_POOL = 100  # a multiple of DEEP_EVERY
DEEP_EVERY = 20  # exactly one too-deep program in each block of this many
FREE_VARS = 16
LET_NAMES = [f"t{k}" for k in range(12)]
LETS = (100, 280)  # the evaluator's recursive elaboration fails near 310
DEEP_LETS = 520  # the recursive parser fails near 490 nested lets
DEEP_SUM = 1050  # the recursive elaborator fails near 975-term sums
REUSE_CAP = 64  # largest expanded size of a let name that other lets reuse


class _Writer:
    """Writes one program and tracks, term by term, its value and its
    ``size`` (constructors, with let-bound names counted once and a negated
    literal folded into one constant). The expanded tree size of each bound
    name is tracked too, to cap how much a reuse can expand."""

    def __init__(self, rng: random.Random, env: dict[str, int]):
        self.rng = rng
        self.env = env
        self.free = list(env)
        self.scope: dict[str, tuple[int, int]] = {}  # name -> (value, expanded size)
        self.parts: list[str] = []
        self.size = 0

    def atom(self) -> tuple[str, int, int, int]:
        """(text, value, size, expanded size) of a constant, free or let name."""
        rng = self.rng
        reusable = [n for n, (_, e) in self.scope.items() if e <= REUSE_CAP]
        roll = rng.random()
        if reusable and roll < 0.5:
            name = rng.choice(reusable)
            value, expanded = self.scope[name]
            return name, value, 0, expanded
        if roll < 0.79:
            name = rng.choice(self.free)
            return name, wrap64(self.env[name]), 1, 1
        value = rng.randrange(1000)
        return str(value), value, 1, 1

    def term(self) -> tuple[str, int, int, int]:
        roll = self.rng.random()
        if roll < 0.12:
            text, value, size, expanded = self.atom()
            folded = text.isdigit()
            return f"-{text}", wrap64(-value), size if folded else size + 1, expanded + (not folded)
        if roll < 0.2:
            return self.sum(self.rng.randint(2, 3), paren=True)
        return self.atom()

    def sum(self, terms: int, first=None, paren=False) -> tuple[str, int, int, int]:
        text, value, size, expanded = first or self.term()
        for _ in range(terms - 1):
            t_text, t_value, t_size, t_expanded = self.term()
            if self.rng.random() < 0.6:
                text, value = f"{text} + {t_text}", wrap64(value + t_value)
            else:
                text, value = f"{text} - {t_text}", wrap64(value - t_value)
            size += t_size + 1
            expanded += t_expanded + 1
        return (f"({text})" if paren else text), value, size, expanded

    def let(self, terms: int) -> None:
        """Bind a name from a small pool, so names are shadowed often. A
        rebinding usually folds in the name's previous value."""
        rng = self.rng
        name = rng.choice(LET_NAMES)
        first = None
        if name in self.scope and rng.random() < 0.9:
            value, expanded = self.scope[name]
            first = (name, value, 0, expanded)
        text, value, size, expanded = self.sum(terms, first)
        self.parts.append(f"let {name} = {text} in\n")
        self.scope[name] = (value, expanded)
        self.size += size

    def finish(self) -> tuple[str, int]:
        """Close the chain with the sum of every live binding; return the
        text and its value."""
        live = sorted(self.scope)
        value = wrap64(sum(self.scope[name][0] for name in live))
        self.size += len(live) - 1
        self.parts.append(" + ".join(live) + "\n")
        return "".join(self.parts), value


def _text_item(rng: random.Random, index: int, stratum: float, deep: bool) -> Item:
    free = [f"x{k:04x}" for k in rng.sample(range(16**4), FREE_VARS)]
    env = {name: _value(rng) for name in free}
    writer = _Writer(rng, env)
    lets = round(LETS[0] + stratum * (LETS[1] - LETS[0]))
    widest = 3 + round(stratum * 4)
    if deep:
        # Match the size in tokens of a regular program of the same stratum,
        # but nest past what a recursive parser or elaborator handles.
        shadow = _Writer(random.Random(rng.random()), env)
        for _ in range(lets):
            shadow.let(rng.randint(2, widest))
        target_tokens = len(tokens(shadow.finish()[0]))
        if target_tokens >= 3000 and rng.random() < 0.5:
            written = 0
            while len(writer.parts) < DEEP_LETS or written < target_tokens - 8:
                writer.let(1 + (rng.random() < 0.3))
                written += len(tokens(writer.parts[-1]))
        else:
            filler = max(0, (target_tokens - 2 * DEEP_SUM) // 10)
            for _ in range(filler):
                writer.let(rng.randint(2, 4))
            writer.let(DEEP_SUM)
    else:
        for _ in range(lets):
            writer.let(rng.randint(2, widest))
    text, value = writer.finish()
    return Item(
        index=index,
        kind="text",
        env=env,
        root_values=[value],
        size=writer.size,
        tree_size=writer.size,
        eval_roots=[0],
        text=text,
        token_count=len(tokens(text)),
        deep=deep,
    )


def text_lets(seed: int) -> list[Item]:
    """Chained-let surface programs of 3 to 12 kB over 16 free variables.

    Program sizes are stratified over the pool and shuffled, so every seed
    sees the same spread of sizes; one program in each block of DEEP_EVERY
    nests too deep for a recursive front end.
    """
    rng = random.Random(f"text-lets:{seed}")
    strata = [(k + rng.random()) / TEXT_POOL for k in range(TEXT_POOL)]
    rng.shuffle(strata)
    deep_at = {block + rng.randrange(DEEP_EVERY) for block in range(0, TEXT_POOL, DEEP_EVERY)}
    return [_text_item(rng, k, strata[k], k in deep_at) for k in range(TEXT_POOL)]


WORKLOADS = {
    "mul-tree": mul_tree,
    "sklansky-forest": sklansky_forest,
    "text-lets": text_lets,
}
