"""Every entry point that runs a program pauses the cyclic garbage collector.

The pause is safe only while runs make no reference cycles: a cycle made
during a run would wait, uncollected, for a later collection. So these tests
check both that no run leaves cyclic garbage and that the collector's state
is what the caller left it.
"""

import gc
import inspect

import pytest

import exprdag
from exprdag import (
    ParseError,
    build_dag,
    build_forest,
    elaborate,
    evaluate,
    lower_to_tree,
    mul,
    mul_shared,
    parse,
    print_flat,
    print_let,
    size,
    sklansky_shared,
)

INPUTS = [f"i{k}" for k in range(64)]
ENV = {"x": 3, **{name: k for k, name in enumerate(INPUTS)}}
LETS = parse("let a = x + 1 in let b = a + a in let c = b - a in -c + (let d = c in d - 7)")


def _sklansky(b):
    return sklansky_shared(b, [b.variable(name) for name in INPUTS])


PROGRAMS = {
    "mul": lambda b: mul(b, 13, b.variable("x")),
    "mul_shared": lambda b: mul_shared(b, 13, b.variable("x")),
    "sklansky_shared": lambda b: _sklansky(b)[-1],
    "parsed_lets": lambda b: elaborate(LETS, b),
}

#: Each entry point, as a call on one program.
RUNS = {
    "build_dag": build_dag,
    "build_forest": lambda program: build_forest(lambda b: [program(b)]),
    "evaluate": lambda program: evaluate(program, ENV),
    "size": size,
    "print_flat": print_flat,
    "print_let": print_let,
    "lower_to_tree": lower_to_tree,
}


@pytest.fixture
def collector():
    """Leave the collector as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("program", PROGRAMS.values(), ids=PROGRAMS.keys())
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_a_run_leaves_no_cyclic_garbage(collector, run, program):
    gc.collect()
    gc.disable()
    run(program)
    assert gc.collect() == 0


def test_a_forest_build_leaves_no_cyclic_garbage(collector):
    gc.collect()
    gc.disable()
    build_forest(_sklansky)
    assert gc.collect() == 0


@pytest.mark.parametrize(
    "text, error",
    [
        ("let a = x + 1 in -a - (a + 2)", None),
        ("let a = in a", ParseError),
        ("x 1in", ParseError),  # fails at a digit-led word, naming its digits
    ],
    ids=["program", "syntax-error", "digit-led-syntax-error"],
)
def test_a_parse_leaves_no_cyclic_garbage(collector, text, error):
    gc.collect()
    gc.disable()
    if error is None:
        parse(text)
    else:
        with pytest.raises(error):
            parse(text)
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "program, error",
    [
        (PROGRAMS["parsed_lets"], None),
        (lambda b: b.constant(1.5), TypeError),
        (lambda b: elaborate(parse(" + ".join(["x"] * 2_000)), b), RecursionError),
    ],
    ids=["returns", "non-int-constant", "too-deep"],
)
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_the_collector_state_is_restored(collector, run, program, error, enabled):
    (gc.enable if enabled else gc.disable)()
    if error is None:
        run(program)
    else:
        with pytest.raises(error):
            run(program)
    assert gc.isenabled() is enabled


def test_a_nested_run_keeps_the_pause_until_the_outer_run_exits(collector):
    seen = []

    def program(b):
        seen.append(gc.isenabled())
        build_dag(lambda inner: inner.variable("y"))
        seen.append(gc.isenabled())
        return b.variable("x")

    gc.enable()
    assert evaluate(program, ENV) == 3
    assert seen == [False, False]
    assert gc.isenabled()


def test_no_collection_starts_inside_a_large_forest_run(collector):
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def forest(b):
        return sklansky_shared(b, [b.variable(f"i{k}") for k in range(256)])

    gc.enable()
    gc.callbacks.append(count)
    try:
        build_forest.__wrapped__(forest)  # control: unpaused, the build collects
        assert starts
        starts.clear()
        build_forest(forest)
        print_let(lambda b: forest(b)[-1])
    finally:
        gc.callbacks.remove(count)
    assert starts == []


@pytest.mark.parametrize("name", RUNS)
def test_a_paused_function_keeps_its_name_doc_and_signature(name):
    function = getattr(exprdag, name)
    unwrapped = inspect.unwrap(function)  # build_dag pauses through build_forest
    assert function.__name__ == name
    assert function.__doc__ == unwrapped.__doc__
    assert inspect.signature(function) == inspect.signature(unwrapped)
