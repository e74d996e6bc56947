"""Byte-for-byte comparison with a committed golden corpus.

tests/golden/ holds small edge lists and the `compute` and `randomize --reps 3`
outputs recorded for them, as JSON and as CSV. Any change to a measure, a
seed stream, the parser or the serializer that alters a single output byte
fails here. The CLI runs inside the golden directory with relative --input
names, because reports embed the input path. The generated inputs are also
rebuilt from the `degcorr generate` commands listed in the README, so a
change to a generator, the configuration model or the writer fails here too,
and the three `degcorr study` outputs listed there are compared as well.
See tests/golden/README.md.
"""
import re
from pathlib import Path

import pytest

from degcorr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(p.stem for p in GOLDEN.glob("*.txt"))
COMMANDS = {"compute": [], "randomize": ["--reps", "3"]}
README = (GOLDEN / "README.md").read_text()
GENERATED = dict(re.findall(r"^\| `(\w+)\.txt` \| `degcorr generate ([^`]+)`", README, re.M))
STUDIES = dict(re.findall(r"^\| `(study_\w+\.csv)` \| `degcorr (study [^`]+)`", README, re.M))


def test_corpus_present():
    assert len(INPUTS) == 6
    assert sorted(GENERATED) == ["bridge_3_5", "bridge_collection_50", "bridge_disconnected_4_3", "ecm_2000"]
    assert sorted(STUDIES) == sorted(p.name for p in GOLDEN.glob("study_*.csv"))
    assert len(STUDIES) == 3


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


@pytest.mark.parametrize("stem", sorted(GENERATED))
def test_generated_input_regenerates(tmp_path, stem):
    out = tmp_path / f"{stem}.txt"
    assert main(["generate", *GENERATED[stem].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_output_matches_golden(capsys, name):
    code = main(STUDIES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
