"""The README's examples: its Python blocks and its command-line transcripts.

The ``python`` blocks run in order in one namespace. Each ``$ ...`` line of
a ``sh`` block that calls exprdag is one case, run through ``python -m
exprdag``: its stdout must equal the lines below it, up to the next ``$``
line or the end of the block. ``bench`` lines are left out, since their
last field is a time.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import helpers

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts():
    """``pytest.param(words, output)`` for each transcript, named by its line."""
    cases = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, output = command.partition("\n")
            words = shlex.split(line)
            if "exprdag" in words and "bench" not in words:
                cases.append(pytest.param(words, output, id=line))
    return cases


def test_the_readme_has_transcripts():
    assert len(transcripts()) >= 4


@pytest.mark.parametrize("words, output", transcripts())
def test_readme_transcript(words, output):
    stdin = ""
    if words[0] == "echo":
        stdin = words[1] + "\n"
        assert words[2] == "|"
        words = words[3:]
    assert words[0] == "exprdag"
    assert helpers.run_module(words[1:], stdin) == (0, output, "")


def test_readme_python_blocks_run_and_match_their_literal_comments(capsys):
    """An expression statement whose last line ends in a comment that is a
    Python literal, such as ``# 20`` or ``# True``, must evaluate to it."""
    namespace = {}
    checked = 0
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        comments = {
            token.start[0]: token.string[1:].strip()
            for token in tokenize.generate_tokens(io.StringIO(block).readline)
            if token.type == tokenize.COMMENT
        }
        for statement in ast.parse(block).body:
            if not isinstance(statement, ast.Expr):
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            expression = compile(ast.Expression(statement.value), "README.md", "eval")
            value = eval(expression, namespace)
            try:
                expected = ast.literal_eval(comments.get(statement.end_lineno, ""))
            except (ValueError, SyntaxError):
                continue
            assert value == expected, ast.unparse(statement)
            checked += 1
    assert checked >= 3
    assert "n0 = input i1" in capsys.readouterr().out  # the printed netlist
