import csv
import io
import json
import re
import time
import warnings
from pathlib import Path

import pytest

import degcorr as dc
from degcorr import report as report_mod
from degcorr.cli import main
from degcorr.measures import MAX_REPETITIONS

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bridge_path(tmp_path):
    path = tmp_path / "bridge.txt"
    dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(2, 2)), path)
    return str(path)


@pytest.fixture
def cycle_path(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


class TestCompute:
    def test_bridge_json(self, capsys, bridge_path):
        code, out, _ = run_cli(capsys, "compute", "--input", bridge_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["graph"]["nodes"] == 6 and doc["graph"]["edges"] == 5
        cell = doc["measures"]["in_out"]["pearson"]
        assert cell["value"] == pytest.approx(2 / 7, abs=1e-6)
        assert doc["measures"]["in_out"]["kendall"]["value"] == 0.0

    def test_cycle_pearson_null(self, capsys, cycle_path):
        code, out, _ = run_cli(capsys, "compute", "--input", cycle_path)
        assert code == 0
        doc = json.loads(out)
        for t in ("out_in", "out_out", "in_in", "in_out"):
            cell = doc["measures"][t]["pearson"]
            assert cell["value"] is None
            assert cell["reason"] == "zero_variance"
            # kendall stays defined (value 0), uniform rho is noise around 0
            assert doc["measures"][t]["kendall"]["value"] == 0.0

    def test_csv_shape(self, capsys, bridge_path):
        code, out, _ = run_cli(capsys, "compute", "--input", bridge_path, "--format", "csv")
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "type,measure,value,reason"
        assert len(rows) == 17
        parsed = list(csv.DictReader(io.StringIO(out)))
        assert {r["type"] for r in parsed} == {"out_in", "out_out", "in_in", "in_out"}

    def test_deterministic_output(self, capsys, bridge_path):
        _, out1, _ = run_cli(capsys, "compute", "--input", bridge_path)
        _, out2, _ = run_cli(capsys, "compute", "--input", bridge_path)
        assert out1 == out2

    def test_measure_subset(self, capsys, bridge_path):
        code, out, _ = run_cli(
            capsys, "compute", "--input", bridge_path,
            "--measures", "pearson", "--types", "in_out", "--format", "csv",
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert len(rows) == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/nonexistent/x.txt")
        assert code == 2
        assert "error" in err

    def test_malformed_input_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\nbroken line here\n")
        code, _, err = run_cli(capsys, "compute", "--input", str(p))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_rho_reps_below_one_exit_2(self, capsys, bridge_path, reps):
        code, out, err = run_cli(capsys, "compute", "--input", bridge_path, "--rho-reps", reps)
        assert code == 2
        assert out == ""
        assert "rho_repetitions" in err

    def test_json_validates_against_schema(self, capsys, bridge_path, cycle_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((REPO_ROOT / "docs" / "report.schema.json").read_text())
        for path in (bridge_path, cycle_path):
            _, out, _ = run_cli(capsys, "compute", "--input", path)
            jsonschema.validate(json.loads(out), schema)

    def test_path_with_control_characters_is_valid_json(self, capsys, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((REPO_ROOT / "docs" / "report.schema.json").read_text())
        path = tmp_path / 'a\tb"c\\d.txt'
        path.write_text("0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["graph"]["path"] == str(path)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--types", "out_in,out_in"), ("--types", ","), ("--measures", ""), ("--measures", "kendall,pearson,kendall")],
    )
    def test_repeated_or_empty_selection_exit_2(self, capsys, bridge_path, fmt, flag, value):
        code, out, err = run_cli(capsys, "compute", "--input", bridge_path, flag, value, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "without repeats" in err

    @pytest.mark.parametrize("value", ["OUT_IN", "out_in,OUT_IN"])
    def test_type_names_are_lower_case_exit_2(self, capsys, bridge_path, value):
        # DependencyType.from_wire takes any case; a report takes the wire names
        code, out, err = run_cli(capsys, "compute", "--input", bridge_path, "--types", value)
        assert code == 2
        assert out == ""
        assert err == "error: unknown dependency type 'OUT_IN'\n"


class TestGenerate:
    def test_bridge_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "g.txt"
        code, _, _ = run_cli(capsys, "generate", "bridge", "--k", "2", "--m", "3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 6  # k + m + 1
        lr = dc.load_edge_list(str(out_path))
        assert lr.graph.edge_count == 6

    def test_generate_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            run_cli(capsys, "generate", "bridge-collection", "--n", "5", "--a", "2",
                    "--gamma", "1.5", "--seed", "9", "--out", str(p))
        assert p1.read_bytes() == p2.read_bytes()

    def test_iid_cm_simple_output(self, capsys, tmp_path):
        out_path = tmp_path / "cm.txt"
        code, _, _ = run_cli(
            capsys, "generate", "iid-cm", "--n", "500",
            "--gamma-out", "2.5", "--gamma-in", "2.5", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        g = dc.load_edge_list(str(out_path)).graph
        assert g.self_loop_count() == 0
        assert g.duplicate_edge_count() == 0

    def test_bridge_over_edge_budget_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "g.txt"
        code, _, err = run_cli(capsys, "generate", "bridge", "--k", "1000000000000", "--m", "1", "--out", str(out_path))
        assert code == 2
        assert "budget" in err
        assert not out_path.exists()

    def test_library_warning_is_one_line(self, capsys, tmp_path):
        filters, hook = list(warnings.filters), warnings.showwarning
        code, _, err = run_cli(
            capsys, "generate", "bridge-collection", "--n", "10", "--gamma", "0.5", "--seed", "1",
            "--out", str(tmp_path / "g.txt"),
        )
        assert code == 0
        assert err.splitlines() == [
            "warning: gamma=0.5 outside (1, 2); the limit of the In/Out Pearson value "
            "is only non-degenerate for heavy tails"
        ]
        assert warnings.filters == filters and warnings.showwarning is hook

    @pytest.mark.parametrize(
        "flags",
        [
            ["iid-cm", "--n", "5", "--gamma-out", "nan"],
            ["iid-cm", "--n", "5", "--gamma-out", "nan", "--gamma-in", "nan"],
            ["bridge-collection", "--n", "3", "--gamma", "nan"],
        ],
    )
    def test_nan_gamma_exit_2(self, capsys, tmp_path, flags):
        out_path = tmp_path / "g.txt"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "generate", *flags, "--out", str(out_path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "gamma" in err
        assert not out_path.exists()

    def test_missing_params_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate", "bridge", "--out", str(tmp_path / "x.txt"))
        assert code == 2
        assert "--k" in err


class TestRandomize:
    def test_baseline_report(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(6, 6)), path)
        code, out, _ = run_cli(capsys, "randomize", "--input", str(path), "--reps", "3")
        assert code == 0
        doc = json.loads(out)
        base = doc["baseline"]
        assert base["repetitions"] == 3
        cell = base["cells"]["in_out"]["kendall"]
        assert cell["repetitions"] == 3
        assert 0 <= cell["defined"] <= 3

    def test_two_reps_valid(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        dc.write_edge_list(dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)]), path)
        code, out, _ = run_cli(capsys, "randomize", "--input", str(path), "--reps", "2")
        assert code == 0
        json.loads(out)

    def test_deterministic(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(4, 4)), path)
        _, a, _ = run_cli(capsys, "randomize", "--input", str(path), "--reps", "3")
        _, b, _ = run_cli(capsys, "randomize", "--input", str(path), "--reps", "3")
        assert a == b

    def test_rho_reps_zero_exit_2(self, capsys, bridge_path):
        code, out, err = run_cli(capsys, "randomize", "--input", bridge_path, "--reps", "2", "--rho-reps", "0")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_csv_with_baseline_columns(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(4, 4)), path)
        _, out, _ = run_cli(capsys, "randomize", "--input", str(path), "--reps", "2", "--format", "csv")
        header = out.split("\n", 1)[0]
        assert header == (
            "type,measure,value,reason,baseline_mean,baseline_sigma,"
            "baseline_defined,baseline_repetitions"
        )

    def test_schema_with_baseline(self, capsys, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((REPO_ROOT / "docs" / "report.schema.json").read_text())
        path = tmp_path / "g.txt"
        dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(5, 5)), path)
        _, out, _ = run_cli(capsys, "randomize", "--input", str(path), "--reps", "2")
        jsonschema.validate(json.loads(out), schema)


class TestStudy:
    def test_bridge_convergence_trends(self, capsys):
        code, out, _ = run_cli(
            capsys, "study", "bridge-convergence", "--a", "1", "--n-grid", "10,100,1000"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        pearson = [
            float(r["value"]) for r in rows
            if r["family"] == "bridge" and r["measure"] == "pearson"
        ]
        spear = [
            float(r["value"]) for r in rows
            if r["family"] == "bridge" and r["measure"] == "spearman_average"
        ]
        assert pearson == sorted(pearson)  # increases toward 1
        assert spear == sorted(spear, reverse=True)  # decreases toward -1
        for r in rows:
            assert float(r["value"]) == pytest.approx(float(r["closed_form_value"]), abs=1e-9)

    def test_scaling_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "study", "scaling", "--gamma", "2.0", "--pq", "1,0",
            "--n-grid", "100,200,400", "--reps", "3", "--seed", "5",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["n"] == "100"
        assert set(rows[0]) == {"n", "p", "q", "sum", "predicted_exponent", "fitted_slope"}

    def test_scaling_with_tiny_gamma_prints_no_warning(self, capsys):
        # most draws overflow to inf before the clamp at 2^62; numpy's
        # overflow warning must not reach stderr
        code, _, err = run_cli(capsys, "study", "scaling", "--n-grid", "10,100,1000", "--reps", "1", "--gamma", "0.01")
        assert code == 0
        assert err == ""

    def test_bridge_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys, "study", "bridge-distribution", "--n", "50", "--a", "10",
            "--gamma", "1.5", "--reals", "5", "--seed", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        for r in rows:
            assert 0.0 < float(r["pearson"]) < 1.0

    def test_bridge_distribution_over_edge_budget_exit_2(self, capsys):
        # gamma = 0.1 draws components of up to 2**62 edges
        code, out, err = run_cli(capsys, "study", "bridge-distribution", "--gamma", "0.1", "--reals", "1")
        assert code == 2
        assert out == ""
        warning, error = err.splitlines()
        assert warning.startswith("warning: gamma=0.1 outside (1, 2)")
        assert error.startswith("error: ") and "budget" in error

    def test_scaling_over_edge_budget_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "study", "scaling", "--n-grid", "10,100,1000000000000", "--reps", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    @pytest.mark.parametrize(
        "flags", [["--reps", "0"], ["--pq", "2,0,2,0"], ["--n-grid", "10,20,10"], ["--n-grid", "10,20"]]
    )
    def test_scaling_bad_grid_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "study", "scaling", "--n-grid", "10,20,40", "--reps", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("a", ["0", "2.5", "inf"])
    def test_bridge_convergence_bad_a_exit_2(self, capsys, a):
        code, out, err = run_cli(capsys, "study", "bridge-convergence", "--a", a, "--n-grid", "3,10,30")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("reals", ["-1", "0"])
    def test_bridge_distribution_bad_reals_exit_2(self, capsys, reals):
        code, out, err = run_cli(capsys, "study", "bridge-distribution", "--n", "10", "--reals", reals)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "realization" in err

    @pytest.mark.parametrize(
        "flag, value, word", [("--pq", "nan,0", "finite"), ("--pq", "inf,0", "finite"), ("--gamma", "nan", "gamma")]
    )
    def test_scaling_non_finite_exit_2(self, capsys, flag, value, word):
        code, out, err = run_cli(capsys, "study", "scaling", "--n-grid", "10,20,40", "--reps", "1", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and word in err

    def test_unknown_study_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "study", "nope")
        assert code == 2


@pytest.mark.parametrize("count", [str(2**63), str(MAX_REPETITIONS + 1)])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--rho-reps"],
        ["randomize", "--reps"],
        ["randomize", "--rho-reps"],
        ["study", "scaling", "--n-grid", "10,20,40", "--reps"],
        ["study", "bridge-distribution", "--n", "10", "--reals"],
    ],
    ids=["compute-rho-reps", "randomize-reps", "randomize-rho-reps", "scaling-reps", "bridge-distribution-reals"],
)
def test_repetition_count_beyond_budget_exit_2(capsys, cycle_path, argv, count):
    # numpy cannot spawn 2**63 children; it used to exit 3 with an OverflowError
    if argv[0] != "study":
        argv = [argv[0], "--input", cycle_path, *argv[1:]]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, count)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"got {count}" in err


def test_randomize_checks_reps_before_the_report(capsys, monkeypatch, bridge_path):
    def broken(*args, **kwargs):
        raise RuntimeError("the report was built before --reps was checked")

    monkeypatch.setattr(report_mod, "compute_report", broken)
    code, out, err = run_cli(capsys, "randomize", "--input", bridge_path, "--reps", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "got 1" in err


# Every numeric flag of every subcommand, each run with small values for the
# other flags. A list flag carries the value inside an otherwise valid list.
SWEEP_COMMANDS = {
    "compute": (["compute", "--input", "{input}"], ["--seed", "--rho-reps"]),
    "randomize": (
        ["randomize", "--input", "{input}", "--reps", "2", "--rho-reps", "1"],
        ["--reps", "--rho-reps", "--seed"],
    ),
    "bridge": (["generate", "bridge", "--k", "2", "--m", "3", "--out", "{out}"], ["--k", "--m"]),
    "bridge-disconnected": (
        ["generate", "bridge-disconnected", "--k", "2", "--m", "3", "--out", "{out}"],
        ["--k", "--m"],
    ),
    "bridge-collection": (
        ["generate", "bridge-collection", "--n", "20", "--out", "{out}"],
        ["--n", "--a", "--gamma", "--xmin", "--seed"],
    ),
    "iid-cm": (
        ["generate", "iid-cm", "--n", "20", "--out", "{out}"],
        ["--n", "--gamma-out", "--gamma-in", "--xmin", "--max-attempts", "--seed"],
    ),
    "scaling": (
        ["study", "scaling", "--n-grid", "10,20,40", "--reps", "1"],
        ["--n-grid", "--pq", "--gamma", "--gamma-out", "--gamma-in", "--xmin", "--reps", "--seed"],
    ),
    "bridge-convergence": (["study", "bridge-convergence", "--n-grid", "2,3"], ["--n-grid", "--a"]),
    "bridge-distribution": (
        ["study", "bridge-distribution", "--n", "10", "--reals", "2"],
        ["--n", "--a", "--gamma", "--xmin", "--reals", "--seed"],
    ),
}
SWEEP_LISTS = {"--n-grid": "10,20,{}", "--pq": "{0},{0}"}
SWEEP_VALUES = ["-1", "0", "nan", "inf", "1e300", str(2**63)]


@pytest.fixture(scope="module")
def sweep_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "bridge.txt"
    dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(2, 3)), path)
    return str(path)


@pytest.mark.parametrize("value", SWEEP_VALUES)
@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, (_, flags) in SWEEP_COMMANDS.items() for f in flags]
)
def test_numeric_flag_sweep(capsys, tmp_path, sweep_input, command, flag, value):
    base, _ = SWEEP_COMMANDS[command]
    out_path = tmp_path / "out.txt"
    argv = [a.format(input=sweep_input, out=out_path) for a in base]
    argv.append(f"{flag}={SWEEP_LISTS.get(flag, '{}').format(value)}")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 2), err
    assert not re.search("nan|inf", out.replace(sweep_input, ""), re.IGNORECASE)
    if code == 2:
        assert out == ""
        assert not out_path.exists()
    lines = err.splitlines()
    if err.startswith("usage:"):  # argparse rejected the value itself
        assert code == 2 and re.match(r"degcorr \S+: error: argument ", lines[-1]), err
    else:
        assert all(line.startswith(("error:", "warning:")) for line in lines), err


@pytest.mark.parametrize("command", [c for c, (_, flags) in SWEEP_COMMANDS.items() if "--seed" in flags])
def test_negative_seed_names_its_flag(capsys, tmp_path, sweep_input, command):
    # numpy refuses a negative seed without naming the flag; argparse does
    base, _ = SWEEP_COMMANDS[command]
    out_path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *(a.format(input=sweep_input, out=out_path) for a in base), "--seed", "-1")
    assert (code, out) == (2, "")
    assert not out_path.exists()
    assert err.splitlines()[-1] == (
        f"degcorr {base[0]}: error: argument --seed: expected a non-negative integer, got -1"
    )


# A family or study reads the flags SWEEP_COMMANDS sweeps for it, and a
# family --out; it must refuse the flags only the others of its command read,
# which it used to ignore.
KIND_COMMANDS = {k: v for k, v in SWEEP_COMMANDS.items() if v[0][0] in ("generate", "study")}


@pytest.mark.parametrize("kind", sorted(KIND_COMMANDS))
def test_kind_flags_listed(capsys, kind):
    base, read = KIND_COMMANDS[kind]
    code, out, _ = run_cli(capsys, *base[:2], "--help")
    assert code == 0
    assert set(re.findall(r"^  (--[\w-]+)", out, re.M)) - {"--out"} == set(read)


@pytest.mark.parametrize(
    "kind, flag",
    [
        (k, f)
        for k, (base, read) in KIND_COMMANDS.items()
        for f in sorted({f for b, r in KIND_COMMANDS.values() if b[0] == base[0] for f in r} - set(read))
    ],
)
def test_unread_flag_exit_2(capsys, tmp_path, kind, flag):
    base, _ = KIND_COMMANDS[kind]
    out_path = tmp_path / "out.txt"
    argv = [a.format(out=out_path) for a in base]
    value = SWEEP_LISTS.get(flag, "{}").format(2)
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert not out_path.exists()
    assert err.splitlines()[-1] == f"degcorr: error: unrecognized arguments: {flag} {value}"


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["study", "bridge-convergence", "--a", "2", "--n", "0"], "--n 0"),
        (["generate", "bridge", "--k", "2", "--m", "3", "--n", "0", "--gamma-in", "-1"], "--n 0 --gamma-in -1"),
        # not taken for an abbreviation of a flag the family reads
        (["generate", "iid-cm", "--n", "5", "--gamma", "3"], "--gamma 3"),
        (["generate", "bridge", "--k", "2", "--m", "3", "--max=5"], "--max=5"),
    ],
)
def test_unread_flags_named(capsys, tmp_path, argv, unread):
    if argv[0] == "generate":
        argv = [*argv, "--out", str(tmp_path / "out.txt")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"degcorr: error: unrecognized arguments: {unread}"


def test_unexpected_exception_exit_3(capsys, monkeypatch, bridge_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(report_mod, "compute_report", broken)
    code, out, err = run_cli(capsys, "compute", "--input", bridge_path)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_float_serialization_17_digits(capsys, tmp_path):
    path = tmp_path / "g.txt"
    dc.write_edge_list(dc.bridge_graph(dc.BridgeParams(2, 2)), path)
    _, out, _ = run_cli(capsys, "compute", "--input", str(path))
    text = json.loads(out)["measures"]["in_out"]["pearson"]["value"]
    assert text == pytest.approx(2 / 7, abs=1e-15)
    assert format(2 / 7, ".17g") in out
