"""Tests of the benchmark itself: seeded inputs, the independent reference
checker, and failure counting.

Run from the root of a checkout with ``python3 -m pytest compilebench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import pytest

import run
from reference import Mismatch, eval_text, run_netlist, run_threeaddr, tokens, wrap64
from spans import Tracer
from workloads import WORKLOADS, text_lets

sys.path.insert(0, str(run.SRC))
API, CLI = run.load_exprdag()


def compile_nodes(items):
    return [run.run_item(item, API, CLI, Tracer(), None).nodes for item in items]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs_and_code_nodes(workload):
    make = WORKLOADS[workload]
    first, again, other = make(7), make(7), make(8)
    assert [dataclasses.asdict(i) for i in first] == [dataclasses.asdict(i) for i in again]
    assert [dataclasses.asdict(i) for i in first] != [dataclasses.asdict(i) for i in other]
    sample = slice(0, 3) if workload != "text-lets" else slice(0, 20)
    assert compile_nodes(first[sample]) == compile_nodes(again[sample])


def test_text_references_agree_with_an_independent_evaluation():
    for item in text_lets(3):
        assert eval_text(item.text, item.env) == item.root_values[0]


def test_text_lets_shape():
    items = text_lets(5)
    ratios = []
    for item in items[:20]:
        if not item.deep:
            program = lambda b: API.elaborate(API.parse(item.text), b)  # noqa: E731
            expanded = len(tokens(API.print_flat(program)))
            ratios.append(expanded / len(API.build_dag(program)[1]))
    assert min(ratios) > 2  # reused let names: the expanded tree is several times the DAG
    deep = [item for item in items if item.deep]
    assert len(deep) * 20 == len(items)
    sizes = sorted(len(item.text) for item in items if not item.deep)
    assert 2500 < sizes[0] and sizes[-1] < 14000
    token_counts = [item.token_count for item in items if not item.deep]
    for item in deep:  # as long as the regular programs, within sampling slack
        assert 0.95 * min(token_counts) <= item.token_count <= 1.05 * max(token_counts)
    for item in items:
        lets = item.text.count("let ")
        if not item.deep:
            assert lets <= 280
        else:
            assert lets > 500 or max(len(line) for line in item.text.split("\n")) > 5000


def test_regular_text_items_pass_and_deep_ones_fail_without_stopping():
    items = text_lets(2)
    outcomes = [run.run_item(item, API, CLI, Tracer(), None) for item in items]
    for item, outcome in zip(items, outcomes):
        assert not outcome.mismatch
        assert bool(outcome.failed) == item.deep
    metrics = run.end_to_end(outcomes, setup_s=1.0)
    assert metrics["failed_frac"][0] == 1 / 20
    assert all(value > 0 for name, (value, _) in metrics.items())


def test_a_raising_layer_is_counted_not_fatal():
    item, other = WORKLOADS["mul-tree"](1)[:2]

    class Api:
        def __getattr__(self, name):
            return getattr(API, name)

        def emit_threeaddr(self, dag, root):
            raise RuntimeError("emitter failure")

    failed = run.run_item(item, Api(), CLI, Tracer(), None)
    assert failed.failed == {"netlist"} and not failed.mismatch
    metrics = run.end_to_end([failed, run.run_item(other, API, CLI, Tracer(), None)], 1.0)
    assert metrics["failed_frac"][0] == 0.5
    assert metrics["compile_ms.p90"][0] == float("inf")


def test_an_item_takes_the_median_of_its_scaled_visits():
    visits = [
        run.Outcome(0, 0.2, 0.02, 0.5),
        run.Outcome(1, 0.15, 0.005, 0.05, scale=2.0),
        run.Outcome(0, 0.1, 0.03, 0.4),
    ]
    assert sorted(run.per_item_times(visits)) == [
        pytest.approx((150.0, 25.0, 450.0)),
        pytest.approx((300.0, 10.0, 100.0)),
    ]
    metrics = run.end_to_end(visits, 1.0)
    assert metrics["compile_ms.p50"][0] == pytest.approx(150.0)
    assert metrics["compile_ms.p90"][0] == pytest.approx(300.0)
    assert metrics["compile_per_s"][0] == pytest.approx(1000.0 * 2 / 450.0)


def test_attempted_and_failed_count_items_not_visits(tmp_path):
    items = text_lets(2)[:20]
    outcomes, _ = run.measure(items, API, CLI, 0.0, False, None)
    assert sorted(o.index for o in outcomes) == list(range(20))  # each item at least once
    assert all(0.2 < o.scale < 5.0 for o in outcomes)
    again = outcomes + [run.run_item(item, API, CLI, Tracer(), None) for item in items]
    assert len(run.failed_items(again)) == len(run.failed_items(outcomes)) == 1
    assert run.end_to_end(again, 1.0)["failed_frac"][0] == 1 / 20


def _operand_mutations(listing: str, prefix: str):
    """Every listing obtained by pointing one operand at another earlier
    node."""
    lines = listing.splitlines()
    for number, line in enumerate(lines):
        head, _, rest = line.partition(" = ") if prefix == "n" else ("", "", line)
        for match in re.finditer(rf"\b{prefix}(\d+)\b", rest):
            is_destination = match.start() == rest.index(" ") + 1 and not rest.startswith("RET")
            if prefix == "r" and is_destination:
                continue
            for other in range(int(match.group(1))):
                changed = rest[: match.start()] + f"{prefix}{other}" + rest[match.end():]
                new = f"{head} = {changed}" if prefix == "n" else changed
                yield "\n".join(lines[:number] + [new] + lines[number + 1:]) + "\n"


def test_checker_flags_every_single_operand_change():
    item = WORKLOADS["mul-tree"](4)[0]
    item = dataclasses.replace(item, n=45, root_values=[wrap64(45 * item.env[item.names[0]])])
    root, dag = API.build_dag(lambda b: API.mul(b, 45, b.variable(item.names[0])))
    netlist = API.emit_netlist(dag, [root])
    threeaddr = API.emit_threeaddr(dag, root)
    assert run_netlist(netlist, item.env) == item.root_values
    assert run_threeaddr(threeaddr, item.env) == item.root_values[0]
    mutants = 0
    for mutant in _operand_mutations(netlist, "n"):
        mutants += 1
        assert run_netlist(mutant, item.env) != item.root_values
    for mutant in _operand_mutations(threeaddr, "r"):
        mutants += 1
        assert run_threeaddr(mutant, item.env) != item.root_values[0]
    assert mutants > 20


def test_run_item_reports_a_changed_operand_as_a_mismatch():
    item = WORKLOADS["sklansky-forest"](1)[0]

    class Api:
        def __getattr__(self, name):
            return getattr(API, name)

        def emit_netlist(self, dag, roots):
            text = API.emit_netlist(dag, roots)
            return text.replace("add n0 n1", "add n1 n1", 1)

    outcome = run.run_item(item, Api(), CLI, Tracer(), None)
    assert outcome.mismatch and outcome.failed == {"netlist"}


@pytest.mark.parametrize(
    "listing",
    ["n0 = input a\nn1 = add n0 n2\nout n1\n", "n1 = input a\n", "n0 = mul n0 n0\n"],
)
def test_malformed_netlists_are_rejected(listing):
    with pytest.raises(Mismatch):
        run_netlist(listing, {"a": 1})


@pytest.mark.parametrize(
    "text, value",
    [
        ("let a = 1 in (let a = 2 in a) + a", 3),
        ("-let v = 3 in v + 1 - -2", -6),
        ("x - (let y = x + x in y - 1) + 10", 6),
        ("let v0 = (let v1 = x in v1 + v1) in v0 + 9223372036854775807", -9223372036854775799),
    ],
)
def test_eval_text(text, value):
    assert eval_text(text, {"x": 5}) == value


def test_traced_items_record_spans_for_every_layer(tmp_path):
    items = text_lets(1)[:4]
    outcomes, tracer = run.measure(items, API, CLI, 0.3, True, tmp_path)
    names = {record[1] for record in tracer.records}
    for layer in run.LAYERS:
        assert any(name.startswith(layer + ".") for name in names), layer
    metrics = run.per_layer(items, outcomes, tracer)
    assert metrics["cli.compile.ms"][0] > 0 and metrics["dag.self_ms"][0] > 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    items = text_lets(1)[:2]
    outcomes, tracer = run.measure(items, API, CLI, 0.0, True, None)
    e2e = set(run.end_to_end(outcomes, 1.0)) - set(run.TABLE_ONLY)
    assert e2e == {metric["name"] for metric in spec["end_to_end"]}
    assert set(run.per_layer(items, outcomes, tracer)) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
