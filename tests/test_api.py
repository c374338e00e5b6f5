"""The supported public surface of the exprdag package."""

import exprdag

# Every name the compile benchmark (compilebench/run.py) calls on the package.
BENCHMARK_NAMES = (
    "parse",
    "elaborate",
    "mul",
    "sklansky_shared",
    "build_dag",
    "build_forest",
    "emit_netlist",
    "emit_threeaddr",
    "eval_dag",
    "evaluate",
    "size",
    "print_let",
)


def test_every_exported_name_resolves():
    for name in exprdag.__all__:
        assert getattr(exprdag, name) is not None, name


def test_the_benchmark_names_are_exported():
    assert set(BENCHMARK_NAMES) <= set(exprdag.__all__)
