"""Workload generators: multiplication by a known constant via recursive
doubling, and prefix sums by recursive subdivision."""

from __future__ import annotations

from typing import Callable, Sequence

from .builders import FullBuilder


def mul(builder: FullBuilder, n: int, x):
    """A term worth n times x, built from additions only.

    Even steps recurse on the doubled operand, duplicating it in the result;
    nothing is shared explicitly.
    """
    if n < 0:
        return builder.neg(mul(builder, -n, x))
    if n == 0:
        return builder.constant(0)
    if n == 1:
        return x
    if n % 2 == 0:
        return mul(builder, n // 2, builder.add(x, x))
    return builder.add(x, mul(builder, n - 1, x))


def mul_shared(builder: FullBuilder, n: int, x):
    """Like mul, but each doubling binds its operand with let_ so the chain
    is shared; the odd-step addend is deliberately left for hash-consing to
    discover."""
    if n < 0:
        return builder.neg(mul_shared(builder, -n, x))
    if n == 0:
        return builder.constant(0)
    if n == 1:
        return x
    if n % 2 == 0:
        return builder.let_(
            x, lambda shared: mul_shared(builder, n // 2, builder.add(shared, shared))
        )
    return builder.add(x, mul_shared(builder, n - 1, x))


def sklansky(combine: Callable, xs: Sequence) -> list:
    """All prefix combines of xs by recursive subdivision: element i is the
    left fold of xs[0..i]."""
    xs = list(xs)
    if len(xs) <= 1:
        return xs
    mid = len(xs) // 2
    left = sklansky(combine, xs[:mid])
    right = sklansky(combine, xs[mid:])
    pivot = left[-1]
    return left + [combine(pivot, r) for r in right]


def sklansky_shared(builder: FullBuilder, xs: Sequence) -> list:
    """sklansky with add, except that each combine binds its pivot with let_.

    Builds the same values, and the same DAG forest, as sklansky with add.
    """
    return sklansky(
        lambda pivot, r: builder.let_(pivot, lambda shared: builder.add(shared, r)), xs
    )
