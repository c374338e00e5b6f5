"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark's host changes speed by up to about 1.8x, for a second or for
minutes at a time (see NOTES.md). Every timed section of a run is bracketed
by this loop, and its time is scaled by ``REFERENCE_S / <loop time nearby>``.
Because the loop does the same kind of work as exprdag (tuple keys, dict hits
and inserts, small objects, closure and method calls), a change of host speed
moves both by about the same factor and cancels out, while a change of
exprdag moves only the timed section. The loop never touches exprdag.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The loop's time at the reference speed: a quiet stretch of the 2-vCPU Xeon
# VM the bounds were measured on (Python 3.11.7). A scaled time is the time
# the section would take at that speed.
REFERENCE_S = 0.0020
ROUNDS = 3000


class _Cell:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b

    def weight(self):
        return self.a + self.b


def _loop() -> int:
    table: dict[tuple, _Cell] = {}
    cells = []

    def intern(op, a, b):
        key = (op, a, b)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(op, a, b)
            cells.append(cell)
        return cell

    total = 0
    for i in range(ROUNDS):
        cell = intern("add" if i & 1 else "neg", i % 97, (i * 7) % 53)
        total += cell.weight() + len(cells)
    return total


def calibrate() -> float:
    """Seconds one pass of the loop takes now. The collector is held off so
    that the heap left by the program under test cannot slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
