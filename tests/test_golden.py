"""Byte-for-byte comparison of CLI reports with a committed golden corpus.

tests/golden/ holds small edge lists and the `compute` and `randomize --reps 3`
outputs recorded for them, as JSON and as CSV. Any change to a measure, a
seed stream, the parser or the serializer that alters a single output byte
fails here. The CLI runs inside the golden directory with relative --input
names, because reports embed the input path. See tests/golden/README.md.
"""
from pathlib import Path

import pytest

from degcorr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(p.stem for p in GOLDEN.glob("*.txt"))
COMMANDS = {"compute": [], "randomize": ["--reps", "3"]}


def test_corpus_present():
    assert len(INPUTS) == 6


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("stem", INPUTS)
def test_output_matches_golden(capsys, monkeypatch, stem, command, fmt):
    monkeypatch.chdir(GOLDEN)
    code = main([command, "--input", f"{stem}.txt", "--format", fmt, *COMMANDS[command]])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / f"{stem}.{command}.{fmt}").read_bytes()
    assert out.encode("utf-8") == expected
