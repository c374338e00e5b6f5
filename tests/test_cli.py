"""The command-line front end."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprdag.cli import main


def run_cli(capsys, monkeypatch, argv, stdin=""):
    # A byte buffer underneath, as on a real stdin, since main reads .buffer
    stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_shared_program_with_binding(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["eval", "--var", "i1=5"], stdin="let y = i1+i1 in y+y"
        )
        assert code == 0
        assert out == "20\n"

    def test_plain_constant(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["eval"], stdin="7")
        assert code == 0
        assert out == "7\n"

    def test_unbound_variable_exits_3_and_names_it(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["eval"], stdin="x")
        assert code == 3
        assert "x" in err

    def test_parse_error_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["eval"], stdin="let in x")
        assert code == 2
        assert err

    def test_first_binding_of_a_name_wins(self, capsys, monkeypatch):
        argv = ["eval", "--var", "x=1", "--var", "y=7", "--var", "x=2"]
        code, out, _ = run_cli(capsys, monkeypatch, argv, stdin="x - y")
        assert code == 0
        assert out == "-6\n"

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
            subprocess.run(
                [sys.executable, "-m", "exprdag", "compile", path],
                input=b"x + \xff",
                capture_output=True,
                env=env,
            )
            for path in ("-", str(source))
        ]
        message = b"error: 'utf-8' codec can't decode byte 0xff in position 4: "
        message += b"invalid start byte\n"
        outcomes = [(run.returncode, run.stdout, run.stderr) for run in runs]
        assert outcomes == [(2, b"", message)] * 2

    def test_overlong_integer_literal_exits_2_with_one_error_line(
        self, capsys, monkeypatch, tmp_path
    ):
        source = tmp_path / "big.expr"
        source.write_text("1" * 5000 + " + x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, monkeypatch, ["eval", "--var", "x=1", str(source)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: 1:1: ") and err.count("\n") == 1


class TestShowAndSize:
    def test_show_prints_let_bindings(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["show"], stdin="let y = i1+i1 in y+y")
        assert code == 0
        assert out == "let v0 = i1 + i1 in v0 + v0\n"

    def test_size_counts_shared_terms_once(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["size"], stdin="let y = i1+i1 in y+y")
        assert code == 0
        assert out == "4\n"


class TestCompile:
    def test_dag_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["compile", "--format", "dag"], stdin="let y=i1+i1 in y+y"
        )
        assert code == 0
        assert out == '(2,DAG BiMap[(0,NVar "i1"),(1,NAdd 0 0),(2,NAdd 1 1)])\n'

    def test_netlist_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["compile", "--format", "netlist"], stdin="let y=i1+i1 in y+y"
        )
        assert code == 0
        assert out == "n0 = input i1\nn1 = add n0 n0\nn2 = add n1 n1\nout n2\n"

    def test_threeaddr_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["compile", "--format", "threeaddr"], stdin="5")
        assert code == 0
        assert out == "LOADI r0, 5\nRET r0\n"

    def test_parse_error_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["compile", "--format", "dag"], stdin="((")
        assert code == 2
        assert err


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
                ["bench", "--gen", "mul", "--n", str(n), "--repeat", "7"],
            )
            assert code == 0
            return float(self.parse_row(out)[3])

        run(2**12)  # warm up
        ratio = run(2**13) / run(2**12)
        assert 1.5 <= ratio <= 3.0

    def test_negative_n_rejected(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, monkeypatch, ["bench", "--gen", "mul", "--n", "-1"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: --n must be >= 0\n"

    def test_bad_var_flag_exits_2(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, monkeypatch, ["eval", "--var", "oops"], stdin="1")
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            "error: argument --var: expected NAME=VALUE, got 'oops'\n"
        )

    @pytest.mark.parametrize(
        "value, problem",
        [("12a", "must be an integer"), ("1" * 5000, "is too long")],
        ids=["not-an-integer", "overlong"],
    )
    def test_var_value_errors_are_one_line(self, capsys, monkeypatch, value, problem):
        # 5,000 digits is past CPython's default int-to-string limit of 4,300
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, monkeypatch, ["eval", "--var", f"x={value}"], stdin="x")
        assert err.value.code == 2
        assert capsys.readouterr().err == f"error: argument --var: value for 'x' {problem}\n"


@pytest.mark.parametrize("command", ["eval", "show", "size", "compile"])
def test_too_deep_input_exits_2_with_one_line(capsys, monkeypatch, command):
    nested = "(" * 600 + "1" + ")" * 600
    code, out, err = run_cli(capsys, monkeypatch, [command], stdin=nested)
    assert code == 2
    assert out == ""
    assert err == "error: program nests too deeply\n"


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "exprdag", "eval", "--var", "i1=5", "-"],
        input="let y = i1+i1 in y+y",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"
