"""The README's command-line transcripts, run through ``python -m exprdag``.

Each ``$ ...`` line of a ``sh`` block that calls exprdag is one case: its
stdout must equal the lines below it, up to the next ``$`` line or the end
of the block. ``bench`` lines are left out, since their last field is a
time.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
    proc = subprocess.run(
        [sys.executable, "-m", *words], input=stdin, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == output
