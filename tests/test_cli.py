"""The command-line front end.

``CONTRACT`` is the CLI's contract, one row per case: argv, stdin, exit
code, stdout and stderr. Every row runs in process through ``cli.main`` and
in a new interpreter through ``python -m exprdag``, and both must give the
row exactly. Run from outside the checkout without ``PYTHONPATH=src``, this
file checks the installed package.
"""

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprdag.cli import main

import helpers


def run_cli(capsys, monkeypatch, argv, stdin=""):
    # A byte buffer underneath, as on a real stdin, since main reads .buffer
    stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse's usage errors
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHARED = "let y = i1 + i1 in y + y\n"
SHADOWED = "let a = x in let a = a + a in a - x\n"
ASKED_AROUND = "x + (let x = 2 in x) + x\n"
NETLIST = "n0 = input i1\nn1 = add n0 n0\nn2 = add n1 n1\nout n2\n"
INT64_MAX, INT64_MIN = str(2**63 - 1), str(-(2**63))
DEEP_PARENS = "(" * 600 + "1" + ")" * 600

CONTRACT = [
    (["eval", "--var", "i1=5"], SHARED, 0, "20\n", ""),
    (["eval", "--var", "i1=5", "-"], SHARED, 0, "20\n", ""),
    (["eval"], "7", 0, "7\n", ""),
    (["eval", "--var", "x=1", "--var", "y=7", "--var", "x=2"], "x - y", 0, "-6\n", ""),
    # Values wrap to signed 64 bits: at the top, the bottom and under neg.
    (["eval", "--var", f"x={INT64_MAX}"], "x + 1\n", 0, f"{INT64_MIN}\n", ""),
    (["eval", "--var", f"x={INT64_MIN}"], "x - 1\n", 0, f"{INT64_MAX}\n", ""),
    (["eval", "--var", f"x={INT64_MIN}"], "-x\n", 0, f"{INT64_MIN}\n", ""),
    # A digit-led word such as 1in is a literal and then a word, also inside
    # a let's bound.
    (["eval"], "let a = let b = 1 in 2in a + a\n", 0, "4\n", ""),
    (["compile"], "let a = 1in a + a\n", 0, "n0 = const 1\nn1 = add n0 n0\nout n1\n", ""),
    # Parentheses leave no node behind, and parse keeps no frame per level,
    # so 600 of them around a literal are the literal.
    (["eval"], DEEP_PARENS, 0, "1\n", ""),
    (["compile"], DEEP_PARENS, 0, "n0 = const 1\nout n0\n", ""),
    # Shadowing, then a name free again after its let's body, through
    # elaborate's fused walks.
    (["eval", "--var", "x=5"], SHADOWED, 0, "5\n", ""),
    (["size"], SHADOWED, 0, "4\n", ""),
    # A free name used before and after a let that shadows it: the fused
    # walks ask the builder about it once and keep its answer.
    (["eval", "--var", "x=5"], ASKED_AROUND, 0, "12\n", ""),
    (["size"], ASKED_AROUND, 0, "5\n", ""),
    (["show"], ASKED_AROUND, 0, "x + let v0 = 2 in v0 + x\n", ""),
    (["show"], SHARED, 0, "let v0 = i1 + i1 in v0 + v0\n", ""),
    (["size"], SHARED, 0, "4\n", ""),
    # A binder that meets a free name found later is renamed; a let bound to
    # a let, and a let or a neg on a sub's right side, are bracketed.
    (["show"], "let a = x in a + v0\n", 0, "let v1 = x in v1 + v0\n", ""),
    (
        ["show"],
        "let a = (let b = x in b + b) in a - -3\n",
        0,
        "let v1 = (let v0 = x in v0 + v0) in v1 - -3\n",
        "",
    ),
    (["show"], "x - (let a = y in a + a)\n", 0, "x - (let v0 = y in v0 + v0)\n", ""),
    (["show"], "-(3) - -(x - let b = 2 in b)\n", 0, "-3 - (-(x - (let v0 = 2 in v0)))\n", ""),
    (["compile"], SHARED, 0, NETLIST, ""),
    (["compile", "--format", "netlist"], SHARED, 0, NETLIST, ""),
    (
        ["compile", "--format", "dag"],
        SHARED,
        0,
        '(2,DAG BiMap[(0,NVar "i1"),(1,NAdd 0 0),(2,NAdd 1 1)])\n',
        "",
    ),
    (["compile", "--format", "threeaddr"], "5", 0, "LOADI r0, 5\nRET r0\n", ""),
    # The last field is the median build time in ms.
    (
        ["bench", "--gen", "mul-shared", "--n", "20", "--repeat", "1"],
        "",
        0,
        re.compile(r"mul-shared,20,6,\d+\.\d{3}\n"),
        "",
    ),
    # An error is one line on stderr and nothing on stdout: exit 3 for an
    # unbound name, 2 for the rest.
    (["eval"], "x", 3, "", "error: unbound variable: x\n"),
    (["eval", "--var", "x=1"], "(let y = 2 in y) + y\n", 3, "", "error: unbound variable: y\n"),
    (["eval"], "let in x", 2, "", "error: 1:5: reserved word 'in' cannot be used as a name\n"),
    (["compile", "--format", "dag"], "((", 2, "", "error: 1:3: expected an expression, found end of input\n"),
    (["compile"], "x 1in\n", 2, "", "error: 1:3: expected end of input, found '1'\n"),
    (["compile"], "x 0x\n", 2, "", "error: 1:3: expected end of input, found '0'\n"),
    (["bench", "--gen", "mul", "--n", "-1"], "", 2, "", "error: --n must be >= 0\n"),
    (["eval", "--var", "oops"], "1", 2, "", "error: argument --var: expected NAME=VALUE, got 'oops'\n"),
    (["eval", "--var", "x=12a"], "x", 2, "", "error: argument --var: value for 'x' must be an integer\n"),
    # 5,000 digits is past CPython's default int-to-string limit of 4,300
    (["eval", "--var", "x=" + "1" * 5000], "x", 2, "", "error: argument --var: value for 'x' is too long\n"),
]


@pytest.mark.parametrize(
    "argv, stdin, code, out, err",
    CONTRACT,
    ids=[f"{' '.join(argv)[:40]} < {stdin.strip()[:40]}" for argv, stdin, *_ in CONTRACT],
)
@pytest.mark.parametrize("way", ["main", "python -m"])
def test_the_cli_contract(capsys, monkeypatch, way, argv, stdin, code, out, err):
    if way == "main":
        outcome = run_cli(capsys, monkeypatch, argv, stdin)
    else:
        outcome = helpers.run_module(argv, stdin)
    if isinstance(out, re.Pattern) and out.fullmatch(outcome[1]):
        outcome = (outcome[0], out, outcome[2])
    assert outcome == (code, out, err)


class TestEval:
    def test_program_from_file(self, capsys, monkeypatch, tmp_path):
        source = tmp_path / "prog.expr"
        source.write_text("10 + i1", encoding="utf-8")
        code, out, _ = run_cli(capsys, monkeypatch, ["eval", str(source), "--var", "i1=2"])
        assert code == 0
        assert out == "12\n"

    def test_missing_file_exits_2(self, capsys, monkeypatch, tmp_path):
        code, _, err = run_cli(capsys, monkeypatch, ["eval", str(tmp_path / "missing")])
        assert code == 2
        assert err

    def test_non_utf8_file_exits_2_with_one_error_line(self, capsys, monkeypatch, tmp_path):
        source = tmp_path / "prog.expr"
        source.write_bytes(b"\xff\xfe1+2")
        code, out, err = run_cli(capsys, monkeypatch, ["eval", str(source)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_stdin_is_decoded_like_a_file_whatever_the_locale(self, tmp_path):
        # The same bytes through stdin and a file, with stdin's text encoding
        # set to one that accepts every byte.
        source = tmp_path / "prog.expr"
        source.write_bytes(b"x + \xff")
        env = {**os.environ, "PYTHONIOENCODING": "latin-1"}
        runs = [
            helpers.run_module(["compile", path], "x + \xff", encoding="latin-1", env=env)
            for path in ("-", str(source))
        ]
        message = "error: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n"
        assert runs == [(2, "", message)] * 2

    def test_overlong_integer_literal_exits_2_with_one_error_line(
        self, capsys, monkeypatch, tmp_path
    ):
        source = tmp_path / "big.expr"
        source.write_text("1" * 5000 + " + x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, monkeypatch, ["eval", "--var", "x=1", str(source)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: 1:1: ") and err.count("\n") == 1


class TestBench:
    def parse_row(self, out):
        fields = out.strip().split(",")
        assert len(fields) == 4
        return fields

    def test_shared_generator_reports_logarithmic_node_count(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["bench", "--gen", "mul-shared", "--n", str(2**20)]
        )
        assert code == 0
        gen, n, nodes, ms = self.parse_row(out)
        assert (gen, n, nodes) == ("mul-shared", str(2**20), "21")
        assert float(ms) >= 0.0

    def test_zero_multiplier(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["bench", "--gen", "mul", "--n", "0"])
        assert code == 0
        gen, n, nodes, ms = self.parse_row(out)
        assert (gen, n, nodes) == ("mul", "0", "1")
        assert float(ms) >= 0.0

    @pytest.mark.parametrize(
        "gen, n, nodes", [("sklansky-shared", 1024, 6144), ("sklansky", 64, 256)]
    )
    def test_sklansky_gens_take_n_as_the_input_count(self, capsys, monkeypatch, gen, n, nodes):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["bench", "--gen", gen, "--n", str(n), "--repeat", "1"]
        )
        assert code == 0
        row_gen, row_n, row_nodes, ms = self.parse_row(out)
        assert (row_gen, row_n, row_nodes) == (gen, str(n), str(nodes))
        assert float(ms) >= 0.0

    def test_unshared_build_time_roughly_doubles(self, capsys, monkeypatch):
        def run(n):
            code, out, _ = run_cli(
                capsys,
                monkeypatch,
                ["bench", "--gen", "mul", "--n", str(n), "--repeat", "1"],
            )
            assert code == 0
            return float(self.parse_row(out)[3])

        # Alternating single builds, a ratio per pair: a swing in host speed
        # lands on both sides of a pair rather than on one size.
        run(2**12)  # warm up
        ratio = median(run(2**13) / run(2**12) for _ in range(7))
        assert 1.5 <= ratio <= 3.0


@pytest.mark.parametrize("command", ["eval", "show", "size", "compile"])
def test_too_deep_input_exits_2_with_one_line(capsys, monkeypatch, command):
    # parse takes any depth; every walk after it takes a frame per level
    nested = "-" * 1200 + "x"
    code, out, err = run_cli(capsys, monkeypatch, [command], stdin=nested)
    assert code == 2
    assert out == ""
    assert err == "error: program nests too deeply\n"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["eval", "--var", "x=1"], "900"),
        (["size"], "1799"),
        (["show"], "let v0 = x in let v1 = v0 + 1 in"),
        (["compile"], "n0 = input x"),
    ],
    ids=["eval", "size", "show", "compile"],
)
def test_a_900_let_chain_runs_at_the_default_recursion_limit(capsys, monkeypatch, argv, first_line):
    # parse takes no frame per let, and every walk after it one
    lets = "".join(f"let a{i} = a{i - 1} + 1 in " for i in range(1, 900))
    text = f"let a0 = x in {lets}a899"
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=text)
    assert (code, err) == (0, "")
    assert out.startswith(first_line)


@pytest.mark.parametrize("command", ["eval", "show", "size", "compile"])
def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, command):
    # A huge input can exhaust memory in read_text or the scanner, before any
    # layer checks its size.
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("exprdag.cli.parse", exhausted)
    code, out, err = run_cli(capsys, monkeypatch, [command], stdin="1")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


# Text near the DSL's grammar reaches the parser and backends; arbitrary
# text and bytes reach the scanner and the file decoder.
DSL_TEXT = st.lists(
    st.sampled_from(["let", "in", "=", "+", "-", "(", ")", " ", "\n", "x", "t", "0", "7"]),
    max_size=30,
).map("".join)
PROGRAM_BYTES = st.one_of(DSL_TEXT.map(str.encode), st.text().map(str.encode), st.binary())


@pytest.mark.parametrize("command", ["eval", "show", "size", "compile"])
@settings(max_examples=100, deadline=None)
@given(data=PROGRAM_BYTES)
def test_any_input_ends_in_a_known_exit_code_and_one_error_line(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "prog.expr"
        source.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(source)])
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
