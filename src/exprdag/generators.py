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


def _prefix(combine: Callable, xs: list, lo: int, hi: int) -> None:
    if hi - lo > 1:
        mid = (lo + hi) // 2
        _prefix(combine, xs, lo, mid)
        _prefix(combine, xs, mid, hi)
        pivot = xs[mid - 1]
        for i in range(mid, hi):
            xs[i] = combine(pivot, xs[i])


def sklansky(combine: Callable, xs: Sequence) -> list:
    """Prefix combines of xs: element i is the left fold of xs[0..i]. One copy
    of xs is filled in place. A span of n splits floor(n/2) left; combine runs
    on the left half, the right half, then (last of left, r) for each right r."""
    xs = list(xs)
    _prefix(combine, xs, 0, len(xs))
    return xs


def sklansky_shared(builder: FullBuilder, xs: Sequence) -> list:
    """sklansky with add, except that each combine binds its pivot with let_.

    Builds the same values, and the same DAG forest, as sklansky with add.
    """
    return sklansky(
        lambda pivot, r: builder.let_(pivot, lambda shared: builder.add(shared, r)), xs
    )
