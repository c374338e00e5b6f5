"""In-memory spans around calls into each layer, written out at the end.

A span records its name, item id, parent span, start and end (ns from
``perf_counter_ns``) and whether the call returned. The layer of a span is
the first dotted part of its name. When tracing is off, ``span`` hands back
one shared no-op object, so the untraced path only pays an attribute lookup
and a method call per span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.sid = len(tracer.records)
        tracer.records.append(None)  # reserve the id; filled in on exit
        self.parent = tracer.open[-1] if tracer.open else None
        tracer.open.append(self.sid)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter_ns()
        tracer = self.tracer
        tracer.open.pop()
        tracer.records[self.sid] = (
            self.sid, self.name, tracer.item, self.parent, self.start, end, exc_type is None
        )
        return False


class _Off:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_OFF = _Off()


class Tracer:
    """Collects spans while ``on``; ``item`` tags the spans of one item."""

    def __init__(self) -> None:
        self.on = False
        self.item = -1
        self.records: list = []
        self.open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.on else _OFF

    def write(self, path) -> None:
        keys = ("id", "name", "item", "parent", "start_ns", "end_ns", "ok")
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")

    def per_item(self) -> dict[int, dict[str, float]]:
        """For each item: total ms of each completed span name, and self ms
        (duration minus the time its child spans cover) summed per layer
        under ``<layer>.self_ms``."""
        children_ns: dict[int, int] = defaultdict(int)
        for sid, _, _, parent, start, end, _ in self.records:
            if parent is not None:
                children_ns[parent] += end - start
        result: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, name, item, _, start, end, ok in self.records:
            stats = result[item]
            if ok:
                stats[f"{name}.ms"] += (end - start) / 1e6
            layer = name.split(".", 1)[0]
            stats[f"{layer}.self_ms"] += (end - start - children_ns[sid]) / 1e6
        return result
