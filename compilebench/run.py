"""Layer-by-layer compile benchmark for exprdag.

Usage, from the root of a checkout:

    python3 compilebench/run.py --workload text-lets --seed 1 --seconds 40 --trace 0

One process runs one workload as a single-client closed loop: one item in
flight, no extra threads. Each item goes through the public calls that
``exprdag compile`` makes (``parse``/``elaborate`` for text, then
``build_dag`` or ``build_forest``, ``emit_netlist``, ``emit_threeaddr``),
then ``eval_dag`` and the direct interpreters behind ``eval``/``size``/
``show`` (``evaluate``, ``size``, ``print_let``). Every output is checked
against references from ``reference.py`` and ``workloads.py``, which do not
use exprdag; a failure or mismatch is counted and never stops the run.

``--trace 0`` reports the end-to-end metrics. The loop visits each of the
pool's 100 items at least once and usually several times, seconds apart.
Every time is scaled to the reference host speed by the calibration loop of
``calibrate.py``, run between items; an item's time is the median of its
visits, and the percentiles are over items. ``--trace 1`` records spans
around every call on alternate items (also running ``cli.main compile`` on
text items), writes them to ``compilebench/traces/`` and reports the
per-layer metrics. The last line of standard output is one JSON object;
its ``attempted`` and ``failed`` count pool items, so they depend only on
the seed.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, calibrate
from reference import Mismatch, eval_text, run_netlist, run_threeaddr
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
LAYERS = ("parser", "dag", "netlist", "interp", "cli")
SPAN_TIMES = (
    "parser.parse.ms",
    "dag.build.ms",
    "netlist.emit_netlist.ms",
    "netlist.emit_threeaddr.ms",
    "netlist.eval_dag.ms",
    "interp.evaluate.ms",
    "interp.size.ms",
    "interp.print_let.ms",
    "cli.compile.ms",
)
SELF_TIMES = tuple(f"{layer}.self_ms" for layer in LAYERS + ("bench",))
_FAILED = object()
# Printed in the table but left out of the JSON line, whose metrics must never
# be 0; the line's "attempted" and "failed" carry the same fraction.
TABLE_ONLY = ("failed_frac",)


def load_exprdag():
    """Import exprdag afresh from this checkout's ``src``; return the
    package and its CLI module."""
    for name in [m for m in sys.modules if m == "exprdag" or m.startswith("exprdag.")]:
        del sys.modules[name]
    api = importlib.import_module("exprdag")
    cli = importlib.import_module("exprdag.cli")
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"exprdag was imported from {api.__file__}, not from {SRC}")
    return api, cli


@dataclass
class Outcome:
    index: int  # pool index of the item
    compile_s: float = 0.0
    eval_s: float = 0.0
    interp_s: float = 0.0
    nodes: int = 0
    out_bytes: int = 0
    failed: set[str] = field(default_factory=set)  # layers that raised or mismatched
    mismatch: bool = False  # some output was produced and was wrong
    scale: float = 1.0  # REFERENCE_S over the calibration time around the visit


def run_item(item, api, cli, tracer: Tracer, cli_file: str | None) -> Outcome:
    out = Outcome(item.index)
    span = tracer.span

    def call(name, fn, *args):
        try:
            with span(name):
                return fn(*args)
        except Exception:  # a failing call of the program under test is counted, not fatal
            out.failed.add(name.split(".", 1)[0])
            return _FAILED

    def expect(layer, check):
        try:
            ok = check()
        except Mismatch:
            ok = False
        if not ok:
            out.failed.add(layer)
            out.mismatch = True

    env = item.env
    roots = program = built = netlist = threeaddr = _FAILED
    values = shown = evaluated = sized = _FAILED
    with span("bench.item"):
        start = perf_counter()
        with span("bench.compile"):
            if item.kind == "text":
                ast = call("parser.parse", api.parse, item.text)
                if ast is not _FAILED:
                    program = lambda b: api.elaborate(ast, b)  # noqa: E731
            elif item.kind == "mul":
                program = lambda b: api.mul(b, item.n, b.variable(item.names[0]))  # noqa: E731
            else:
                def forest(b):
                    return api.sklansky_shared(b, [b.variable(n) for n in item.names])

                program = lambda b: forest(b)[-1]  # noqa: E731
                built = call("dag.build", api.build_forest, forest)
            if item.kind != "forest" and program is not _FAILED:
                built = call("dag.build", api.build_dag, program)
                if built is not _FAILED:
                    built = [built[0]], built[1]
            if built is not _FAILED:
                roots, dag = built
                netlist = call("netlist.emit_netlist", api.emit_netlist, dag, roots)
                threeaddr = call("netlist.emit_threeaddr", api.emit_threeaddr, dag, roots[-1])
        compiled = perf_counter()
        with span("bench.eval"):
            if roots is not _FAILED:
                values = [
                    call("netlist.eval_dag", api.eval_dag, dag, roots[j], env)
                    for j in item.eval_roots
                ]
        evaluated_at = perf_counter()
        with span("bench.interp"):
            if program is not _FAILED:
                evaluated = call("interp.evaluate", api.evaluate, program, env)
                sized = call("interp.size", api.size, program)
                shown = call("interp.print_let", api.print_let, program)
        done = perf_counter()
        captured = io.StringIO()
        if cli_file is not None:
            with redirect_stdout(captured):
                code = call("cli.compile", cli.main, ["compile", cli_file])
            if code not in (0, _FAILED):
                out.failed.add("cli")
        with span("bench.check"):
            if roots is not _FAILED:
                out.nodes = len(dag)
            if netlist is not _FAILED and threeaddr is not _FAILED:
                out.out_bytes = len(netlist) + len(threeaddr)
                expect("netlist", lambda: run_netlist(netlist, env) == item.root_values)
                expect("netlist", lambda: run_threeaddr(threeaddr, env) == item.root_values[-1])
            if values is not _FAILED and _FAILED not in values:
                expected = [item.root_values[j] for j in item.eval_roots]
                expect("netlist", lambda: values == expected)
            if evaluated is not _FAILED:
                expect("interp", lambda: evaluated == item.root_values[-1])
            if sized is not _FAILED:
                expect("interp", lambda: sized == item.size)
            if shown is not _FAILED:
                if item.kind == "mul":  # n copies of the name: no let_, no parentheses
                    expect("interp", lambda: shown == " + ".join(item.names * item.n))
                else:
                    expect("interp", lambda: eval_text(shown, env) == item.root_values[-1])
            if cli_file is not None and "cli" not in out.failed:
                expect("cli", lambda: run_netlist(captured.getvalue(), env) == item.root_values)
    out.compile_s = compiled - start
    out.eval_s = evaluated_at - compiled
    out.interp_s = done - evaluated_at
    return out


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ms_or_inf(outcome: Outcome, seconds: float) -> float:
    """A failed item counts as infinitely slow."""
    return math.inf if outcome.failed else seconds * 1000.0


def failed_items(outcomes: list[Outcome]) -> set[int]:
    """Pool indices of the items that failed on some visit."""
    return {o.index for o in outcomes if o.failed}


def per_item_times(outcomes: list[Outcome]) -> list[tuple[float, float, float]]:
    """(compile, eval, interp) ms of each pool item at the reference speed:
    the median of its visits, each scaled by the calibration around it. An
    item that failed on any visit counts as infinitely slow."""
    visits: dict[int, list[tuple[float, float, float]]] = {}
    for o in outcomes:
        times = (o.compile_s, o.eval_s, o.interp_s)
        visits.setdefault(o.index, []).append(tuple(t * o.scale * 1000.0 for t in times))
    failed = failed_items(outcomes)
    return [
        (math.inf,) * 3 if index in failed else tuple(map(statistics.median, zip(*times)))
        for index, times in visits.items()
    ]


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict[str, tuple[float, str]]:
    per_item = per_item_times(outcomes)
    compile_ms = [c for c, _, _ in per_item]
    compiled = [c for c in compile_ms if math.isfinite(c)]
    built = {o.index: o.nodes for o in outcomes if o.nodes}
    return {
        "setup_s": (setup_s, "s"),
        "compile_ms.p50": (percentile(compile_ms, 0.5), "ms"),
        "compile_ms.p90": (percentile(compile_ms, 0.9), "ms"),
        "compile_per_s": (1000.0 * len(compiled) / sum(compiled) if compiled else 0.0, "1/s"),
        "eval_ms.p50": (percentile([e for _, e, _ in per_item], 0.5), "ms"),
        "interp_ms.p50": (percentile([i for _, _, i in per_item], 0.5), "ms"),
        "code_nodes": (statistics.fmean(built.values()) if built else 0.0, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (len(failed_items(outcomes)) / len(per_item), "frac"),
    }


def per_layer(items, outcomes: list[Outcome], tracer: Tracer) -> dict[str, tuple[float, str]]:
    spans = tracer.per_item()
    for i, stats in spans.items():  # to the reference speed, as in end_to_end
        for key in stats:
            stats[key] *= outcomes[i].scale
    traced = [spans[i] for i in range(len(outcomes)) if i in spans]

    def median_of(key):
        present = [stats[key] for stats in traced if key in stats]
        return statistics.median(present) if present else 0.0

    metrics = {key: (median_of(key), "ms") for key in SPAN_TIMES + SELF_TIMES}
    parsed = [
        (items[outcomes[i].index].token_count, spans[i]["parser.parse.ms"])
        for i in range(len(outcomes))
        if "parser.parse.ms" in spans.get(i, {})
    ]
    parse_s = sum(ms for _, ms in parsed) / 1000.0
    metrics["parser.tokens"] = (
        statistics.median(tokens for tokens, _ in parsed) if parsed else 0.0, "count"
    )
    metrics["parser.tokens_per_s"] = (sum(t for t, _ in parsed) / parse_s if parsed else 0.0, "1/s")
    built = {o.index: o.nodes for o in outcomes if o.nodes}
    tree = sum(items[i].tree_size for i in built)
    metrics["dag.nodes"] = (statistics.fmean(built.values()) if built else 0.0, "count")
    metrics["dag.tree_size"] = (tree / len(built) if built else 0.0, "count")
    metrics["dag.new_node_ratio"] = (sum(built.values()) / tree if tree else 0.0, "ratio")
    emitted = [o.out_bytes for o in outcomes if o.out_bytes]
    metrics["netlist.out_bytes"] = (statistics.fmean(emitted) if emitted else 0.0, "bytes")
    for layer in LAYERS:
        failed = {o.index for o in outcomes if layer in o.failed}  # items, as in "failed"
        metrics[f"{layer}.failed"] = (len(failed), "count")
    on = [ms_or_inf(o, o.compile_s * o.scale) for i, o in enumerate(outcomes) if i in spans]
    off = [ms_or_inf(o, o.compile_s * o.scale) for i, o in enumerate(outcomes) if i not in spans]
    overhead = percentile(on, 0.5) / percentile(off, 0.5) - 1.0 if on and off else 0.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def measure(items, api, cli, seconds: float, traced: bool, workdir: Path | None):
    """Run the closed loop for ``seconds``, and on until every item has been
    visited once. The calibration loop runs before the first item and after
    each one; a visit is scaled by the mean of the two around it. Traced
    mode traces every other item, flipping the parity each pass over the
    pool so every item is seen both ways."""
    cli_files = None
    if workdir is not None:
        cli_files = []
        for item in items:
            path = workdir / f"item{item.index}.expr"
            path.write_text(item.text, encoding="utf-8")
            cli_files.append(str(path))
    tracer = Tracer()
    run_item(items[0], api, cli, Tracer(), None)  # warm-up, not counted
    outcomes = []
    deadline = perf_counter() + seconds
    attempt = 0
    before = calibrate()
    while attempt < len(items) or perf_counter() < deadline:
        item = items[attempt % len(items)]
        tracer.on = traced and (attempt + attempt // len(items)) % 2 == 0
        tracer.item = attempt
        cli_file = cli_files[item.index] if cli_files else None
        outcome = run_item(item, api, cli, tracer, cli_file)
        after = calibrate()
        outcome.scale = REFERENCE_S / ((before + after) / 2)
        outcomes.append(outcome)
        before = after
        attempt += 1
    tracer.on = False
    return outcomes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    make_items = WORKLOADS[args.workload]
    setup_times = []  # each scaled by the calibration around it
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = perf_counter()
        try:
            api, cli = load_exprdag()
        except ImportError as exc:
            print(f"error: cannot import exprdag from {SRC}: {exc}", file=sys.stderr)
            return 2
        items = make_items(args.seed)
        setup_s = perf_counter() - start
        setup_times.append(setup_s * REFERENCE_S / ((before + calibrate()) / 2))

    traced = bool(args.trace)
    if traced and items[0].kind == "text":
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            outcomes, tracer = measure(items, api, cli, args.seconds, traced, Path(workdir))
    else:
        outcomes, tracer = measure(items, api, cli, args.seconds, traced, None)

    if traced:
        metrics = per_layer(items, outcomes, tracer)
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.records)} written to {trace_path.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(outcomes, statistics.median(setup_times))
    failed = len(failed_items(outcomes))
    deep = sum(1 for item in items if item.deep)
    visited = len({o.index for o in outcomes})
    speed = statistics.median(1.0 / o.scale for o in outcomes)
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} attempts over {visited} "
          f"items (the percentiles' samples), {failed} items failed, {deep} seeded too deep; "
          f"host ran at {speed:.3f}x the reference time (median)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: too many failed items to report {', '.join(bad)}", file=sys.stderr)
        return 1
    result = {
        "correct": not any(o.mismatch for o in outcomes),
        "attempted": visited,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in TABLE_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
