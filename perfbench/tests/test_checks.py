"""The benchmark's output checks: real outputs pass, corrupted ones fail and
are counted as failed operations."""
import contextlib
import io
import itertools
import json

import numpy as np
import pytest

import checks
import run
import workloads as wl


def cli_output(argv):
    from degcorr.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    import degcorr as dc

    g = dc.random_bridge_collection(12, 3.0, dc.PowerLawSpec(1.5), 5)
    dc.write_edge_list(g, tmp_path / wl.INPUT)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def checker_for(name, seed, workdir):
    c = run.Checker(wl.WORKLOADS[name], seed, workdir)
    c.expected = {}
    _, problems = c.realised_input()
    assert problems == []
    return c


@pytest.mark.parametrize("name", ["compute-ecm-100k", "randomize-bridge-collection"])
def test_real_report_passes(workdir, name):
    seed = 3
    (workdir / "stdout.txt").write_text(cli_output(wl.WORKLOADS[name].cli_args(seed)))
    assert checker_for(name, seed, workdir).check_output() == []


def corrupt_value(text):
    doc = json.loads(text)
    cell = doc["measures"]["in_out"]["kendall"]
    cell["value"] = cell["value"] + 1e-6
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt, message", [
    (corrupt_value, "in_out/kendall"),
    (lambda t: t.replace('"value": ', '"value": NaN, "x": ', 1), "non-finite"),
    (lambda t: t.replace('"schema_version": 1', '"schema_version": 2'), "schema"),
    (lambda t: t.replace('"edges": ', '"edges": 1', 1), "graph.edges"),
    (lambda t: t[: len(t) // 2], "not strict JSON"),
])
def test_corrupted_report_is_counted_as_failure(workdir, corrupt, message):
    seed = 3
    argv = wl.WORKLOADS["compute-ecm-100k"].cli_args(seed)
    (workdir / "stdout.txt").write_text(corrupt(cli_output(argv)))
    checker = checker_for("compute-ecm-100k", seed, workdir)
    tally = run.Tally()
    tally.record("command 0", checker.check_output())
    tally.record("command 1", checker.check_output())  # same bytes, same verdict
    assert (tally.attempted, tally.failed) == (2, 2)
    assert any(message in p for p in tally.problems), tally.problems


def test_output_differing_from_first_or_record_fails(workdir):
    seed = 3
    text = cli_output(wl.WORKLOADS["compute-ecm-100k"].cli_args(seed))
    (workdir / "stdout.txt").write_text(text)
    checker = checker_for("compute-ecm-100k", seed, workdir)
    checker.expected = {"output_sha256": "0" * 64}
    assert any("differs from record" in p for p in checker.check_output())
    (workdir / "stdout.txt").write_text(text.replace("0", "1", 1))
    assert checker.check_output() == ["output differs from the first command's"]


def test_realised_input_must_match_record(workdir):
    checker = run.Checker(wl.WORKLOADS["compute-ecm-100k"], 3, workdir)
    checker.expected = {"input": {"nodes": 1, "edges": 1, "sha256": "x"}}
    _, problems = checker.realised_input()
    assert problems and "differs from record" in problems[0]


def test_kendall_counts_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.integers(0, 5, 40), rng.integers(0, 4, 40)
        ux, uy, table = checks._joint_table(x, y)
        nc = nd = 0
        for i, j in itertools.combinations(range(40), 2):
            s = (x[i] - x[j]) * (y[i] - y[j])
            nc += s > 0
            nd += s < 0
        assert checks.kendall_counts(table) == (nc, nd)


def test_generated_graph_checks():
    src, tgt = np.array([0, 1, 2]), np.array([1, 2, 0])
    assert checks.check_generated(src, tgt, 3, 3) == []
    assert checks.check_generated(src, tgt, 3, 4) == ["3 edges written, workload records 4"]
    assert "self-loop in generated graph" in checks.check_generated(np.array([0, 1]), np.array([0, 2]), 3, 2)
    assert "parallel edges in generated graph" in checks.check_generated(np.array([0, 0]), np.array([1, 1]), 3, 2)
    assert checks.check_generated(src, tgt + 5, 3, 3) == ["node id outside [0, 3)"]


def test_balanced_sequence_checks():
    pairs = np.array([[1, 1], [1, 1], [1, 1]])
    src, tgt = np.array([0, 1, 2]), np.array([1, 2, 0])
    assert checks.check_balanced(pairs, src, tgt, 0) == []
    assert checks.check_balanced(pairs, src[:2], tgt[:2], 0) == [
        "edge shortfall differs from the erasures the ECM reported"]
    assert "generated degrees exceed the balanced sequence" in checks.check_balanced(
        np.array([[2, 1], [0, 1], [1, 1]]), src, tgt, 0)


def test_strict_json_rejects_non_finite():
    with pytest.raises(ValueError):
        checks.strict_json('{"value": Infinity}')


def test_unreadable_generated_output_is_a_failure(tmp_path):
    checker = run.Checker(wl.WORKLOADS["generate-iid-cm"], 3, tmp_path)
    checker.expected = {}
    (tmp_path / wl.OUTPUT).write_text("0 1\n2 x\n")
    problems = checker.check_output()
    assert len(problems) == 1 and problems[0].startswith("unreadable output")
