"""End-to-end benchmark of the degcorr CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark builds the workload's inputs
from --seed, then:

--trace 0  times the CLI command in a fresh child process, tracing off,
           repeatedly within --seconds (at least three commands). Prints
           wall_s, edges_per_s, setup_s, peak_rss_mb and error_rate.
--trace 1  runs the command in-process in a child with every public
           function of src/degcorr wrapped in a span, and prints per-layer
           self times and counts next to the untraced wall time.

Every output is checked (see checks.py); a failed check or a non-zero exit
counts as a failed operation. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report.schema.json"
EXPECTED = BENCH / "expected.json"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 7
# set-up repeats at least SETUP_REPEATS times and for SETUP_SECONDS, so that
# the import-only set-up of generate still gets a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
MIN_COMMANDS = 3

# per-layer metrics: self time and call count of each of these layers
LAYERS = (
    "graph.load_edge_list", "graph.write_edge_list", "graph.degrees", "graph.edge_degree_pairs",
    "graph.vertex_moment_sum", "measures.pearson", "measures.variance_gap",
    "measures.spearman_uniform", "measures.spearman_average", "measures.kendall_tau",
    "measures.concordance_counts", "ranking.permutation_ranks", "ranking.average_ranks_doubled",
    "exact.exact_dot", "exact.exact_power_sum", "exact.exact_product_moment",
    "kernels.count_strict_inversions", "config_model.erased_configuration_model",
    "config_model.balance_iid_sequence", "config_model.randomization_study",
    "generators.sample_integer_power_law", "generators.iid_degree_sequence",
    "report.compute_report", "report.to_json",
)
# layers of the input builder, reported with a "setup." prefix
SETUP_LAYERS = ("generators.random_bridge_collection", "generators.sample_integer_power_law",
                "config_model.erased_configuration_model", "graph.write_edge_list")


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def run_child(argv: list[str], cwd: Path, stdout_path: Path) -> Child:
    """Run argv to completion through launch.py; wall time and peak RSS are
    those of argv's own process."""
    spec = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout_path), "stderr": str(cwd / "stderr.txt"),
            "env": dict(os.environ, PYTHONPATH=str(SRC))}
    done = subprocess.run([sys.executable, str(BENCH / "launch.py"), json.dumps(spec)],
                          capture_output=True, text=True, check=True)
    res = json.loads(done.stdout.splitlines()[-1])
    stderr = (cwd / "stderr.txt").read_text("utf-8", "replace")
    return Child(res["wall_s"], res["peak_rss_mb"], res["returncode"], stderr)


def exit_problems(child: Child) -> list[str]:
    if child.returncode == 0:
        return []
    return [f"exit {child.returncode}: {child.stderr.strip()[-300:]}"]


class Checker:
    """Checks one workload's outputs against references computed from its
    inputs, and against the recorded digests at the default seed."""

    def __init__(self, workload: wl.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        # digests and realised inputs are recorded for the default seed only
        self.expected = {}
        if seed == DEFAULT_SEED:
            self.expected = json.loads(EXPECTED.read_text()).get(workload.name, {})
        self.first_digest: str | None = None
        self.output_edges = 0

    def realised_input(self) -> tuple[dict, list[str]]:
        """Facts of the built input (or of the generate seed) and any
        difference from the record at the default seed."""
        if self.workload.command == "generate":
            cli_seed, attempts, edges = wl.generate_seed(self.seed)
            realised = {"nodes": wl.GENERATE_NODES, "cli_seed": cli_seed,
                        "balance_attempts": attempts, "edges": edges}
        else:
            path = self.workdir / wl.INPUT
            graph = checks.Graph(*checks.read_edge_list(path))
            self.facts = graph.facts()
            self.reference = checks.reference_cells(graph, self.seed, wl.RHO_REPS)
            realised = {"nodes": self.facts["nodes"], "edges": self.facts["edges"],
                        "sha256": checks.sha256(path.read_bytes())}
        want = self.expected.get("input")
        if want is None or want == realised:
            return realised, []
        return realised, [f"realised input {realised} differs from record {want}"]

    def output_path(self) -> Path:
        return self.workdir / (wl.OUTPUT if self.workload.command == "generate" else "stdout.txt")

    def check_output(self) -> list[str]:
        """Full check of the first output; later outputs must match its bytes
        and share its verdict."""
        data = self.output_path().read_bytes()
        digest = checks.sha256(data)
        if self.first_digest is not None:
            return list(self.first_problems) if digest == self.first_digest else [
                "output differs from the first command's"]
        self.first_digest = digest
        want = self.expected.get("output_sha256")
        problems = [] if want in (None, digest) else [f"output sha256 {digest} differs from record {want}"]
        try:
            problems += self._check(data)
        except ValueError as exc:  # includes UnicodeDecodeError
            problems.append(f"unreadable output: {exc}")
        self.first_problems = problems
        return problems

    def _check(self, data: bytes) -> list[str]:
        if self.workload.command == "generate":
            src, tgt = checks.read_edge_list(self.output_path())
            self.output_edges = int(src.size)
            _, _, edges = wl.generate_seed(self.seed)
            return checks.check_generated(src, tgt, wl.GENERATE_NODES, edges)
        schema = json.loads(SCHEMA.read_text())
        reps = wl.RANDOMIZE_REPS if self.workload.command == "randomize" else None
        facts = dict(self.facts, path=wl.INPUT)
        return checks.check_report(data.decode("utf-8"), schema, facts, self.reference, reps)

    def input_edges(self) -> int:
        return self.facts["edges"] if self.workload.command != "generate" else 0


def package_problems(env: dict) -> list[str]:
    """The children must have imported degcorr from this checkout."""
    if Path(env["degcorr_file"]).resolve().is_relative_to(SRC.resolve()):
        return []
    return [f"degcorr imported from {env['degcorr_file']}, not from {SRC}"]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_timed(workload: wl.Workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    py = sys.executable
    setup = []
    digests = set()
    setup_start = time.perf_counter()
    while len(setup) < SETUP_REPEATS or time.perf_counter() - setup_start < SETUP_SECONDS:
        child = run_child([py, str(BENCH / "child.py"), "build", workload.name, str(seed), str(workdir)],
                          workdir, workdir / "build.txt")
        problems = exit_problems(child)
        if workload.command != "generate" and not problems:
            digests.add(checks.sha256((workdir / wl.INPUT).read_bytes()))
            if len(digests) > 1:
                problems.append("input differs between builds of the same seed")
        tally.record(f"setup {len(setup)}", problems)
        setup.append(child.wall_s)
    env = json.loads((workdir / "env.json").read_text())
    checker = Checker(workload, seed, workdir)
    realised, problems = checker.realised_input()
    tally.record("realised input", problems + package_problems(env))

    argv = [py, "-m", "degcorr.cli", *workload.cli_args(seed)]
    walls, rss = [], []
    loop_start = time.perf_counter()
    # start a command only if it should end within the window
    while len(walls) < MIN_COMMANDS or time.perf_counter() - loop_start + median(walls) <= seconds:
        child = run_child(argv, workdir, workdir / "stdout.txt")
        problems = exit_problems(child) or checker.check_output()
        tally.record(f"command {len(walls)}", problems)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
    edges = workload.edges_processed(checker.input_edges(), checker.output_edges)
    metrics = {
        "wall_s": (median(walls), "s"),
        "edges_per_s": (median([edges / w for w in walls]), "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    detail = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss, "edges_per_command": edges}
    return {"env": env, "input": realised, "output_sha256": checker.first_digest,
            "metrics": metrics, "samples": detail}


def layer_metrics(totals: dict[str, tr.LayerTotals], prefix: str, layers) -> dict:
    out = {}
    for name in layers:
        t = totals.get(name, tr.LayerTotals())
        out[f"{prefix}{name}_s"] = (t.self_s, "s")
        if not prefix:
            out[f"{name}_calls"] = (t.calls, "count")
    return out


def run_metrics(run: dict, import_s: float) -> dict:
    """Per-layer metrics of one traced in-process run."""
    totals = tr.aggregate([tr.Span(*s) for s in run["spans"]])
    m = layer_metrics(totals, "", LAYERS)
    cli_self = sum(t.self_s for name, t in totals.items() if name.startswith("cli."))
    m["cli.main_s"] = (cli_self, "s")
    m["cli.import_s"] = (import_s, "s")

    def count(layer, key):
        return totals.get(layer, tr.LayerTotals()).counts.get(key, 0)

    ecm = totals.get("config_model.erased_configuration_model", tr.LayerTotals())
    balance = totals.get("config_model.balance_iid_sequence", tr.LayerTotals())
    before = count("config_model.erased_configuration_model", "edges_before")
    attempts = count("config_model.balance_iid_sequence", "attempts")
    m["graph.edges_loaded"] = (count("graph.load_edge_list", "edges"), "count")
    m["graph.edges_written"] = (count("graph.write_edge_list", "edges"), "count")
    m["kernels.elements"] = (count("kernels.count_strict_inversions", "elements"), "count")
    m["config_model.ecm_draws"] = (ecm.calls, "count")
    m["config_model.ecm_kept_ratio"] = (
        count("config_model.erased_configuration_model", "edges_after") / before if before else 0.0, "ratio")
    m["config_model.balance_attempts"] = (attempts, "count")
    m["config_model.balance_s_per_attempt"] = (balance.total_s / attempts if attempts else 0.0, "s")
    listed = cli_self + sum(m[f"{name}_s"][0] for name in LAYERS)
    m["trace.untraced_s"] = (run["untraced_s"], "s")
    m["trace.traced_s"] = (run["traced_s"], "s")
    m["trace.overhead_s"] = (run["traced_s"] - run["untraced_s"], "s")
    m["trace.unlisted_s"] = (run["traced_s"] - listed, "s")
    return m


def run_traced(workload: wl.Workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    py = sys.executable
    argv = [py, str(BENCH / "child.py"), "trace", workload.name, str(seed), str(workdir), str(seconds)]
    child = run_child(argv, workdir, workdir / "trace-stdout.txt")
    tally.record("traced child", exit_problems(child))
    if child.returncode != 0:
        return {"env": {}, "input": {}, "metrics": {}, "samples": {}}
    doc = json.loads((workdir / "trace.json").read_text())
    checker = Checker(workload, seed, workdir)
    realised, problems = checker.realised_input()
    tally.record("realised input", problems + package_problems(doc["env"]))
    # the output file holds the last in-process run's output; check it fully
    output_problems = checker.check_output()
    last_mode = "untraced" if len(doc["runs"]) % 2 == 0 else "traced"
    for i, run in enumerate(doc["runs"]):
        for mode in ("untraced", "traced"):
            rc = run[f"{mode}_rc"]
            problems = [f"exit {rc}"] if rc != 0 else []
            if run[f"{mode}_sha256"] != checker.first_digest:
                problems.append("output differs from the last in-process run's")
            if i == len(doc["runs"]) - 1 and mode == last_mode:
                problems += output_problems
            tally.record(f"{mode} run {i}", problems)
    if workload.command == "generate":
        tally.record("balanced sequence", balance_problems(seed, workdir, doc["runs"][-1]))

    # one untraced child command, for the wall time the layers add up to
    child = run_child([py, "-m", "degcorr.cli", *workload.cli_args(seed)], workdir, workdir / "stdout.txt")
    tally.record("untraced command", exit_problems(child) or checker.check_output())

    return {"env": doc["env"], "input": realised, "output_sha256": checker.first_digest,
            "metrics": trace_metrics(doc, child.wall_s), "samples": {"runs": len(doc["runs"])}}


def trace_metrics(doc: dict, wall_s: float) -> dict:
    """Per-layer metrics: medians over the traced runs in doc, the set-up
    layers, and the untraced child's wall time wall_s."""
    per_run = [run_metrics(run, doc["import_s"]) for run in doc["runs"]]
    metrics = {k: (median([r[k][0] for r in per_run]), unit) for k, (_, unit) in per_run[0].items()}
    setup_totals = tr.aggregate([tr.Span(*s) for s in doc["setup_spans"]])
    metrics.update(layer_metrics(setup_totals, "setup.", SETUP_LAYERS))
    metrics["setup.total_s"] = (doc["setup_s"], "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.process_s"] = (wall_s - doc["import_s"] - metrics["trace.untraced_s"][0], "s")
    return metrics


def balance_problems(seed: int, workdir: Path, run: dict) -> list[str]:
    """The traced generate run: recorded attempt count, and the balanced
    sequence consistent with the written graph and the ECM's erasures."""
    totals = tr.aggregate([tr.Span(*s) for s in run["spans"]])
    attempts = totals.get("config_model.balance_iid_sequence", tr.LayerTotals()).counts.get("attempts")
    ecm = totals.get("config_model.erased_configuration_model", tr.LayerTotals()).counts
    problems = []
    _, want, _ = wl.generate_seed(seed)
    if attempts != want:
        problems.append(f"{attempts} balance attempts, workload records {want}")
    pairs = np.load(workdir / "balanced.npy")
    src, tgt = checks.read_edge_list(workdir / wl.OUTPUT)
    erased = ecm.get("edges_before", 0) - ecm.get("edges_after", 0)
    return problems + checks.check_balanced(pairs, src, tgt, erased)


def print_report(workload: wl.Workload, seed: int, trace: bool, result: dict, tally: Tally) -> None:
    env = {k: v for k, v in result["env"].items() if k != "degcorr_file"}
    env["seed"] = seed
    print(f"workload {workload.name} ({workload.why})")
    print("env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print("input " + " ".join(f"{k}={v}" for k, v in result["input"].items()))
    samples = result["samples"]
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if not trace and isinstance(samples.get(name), list):
            vals = samples[name]
            note = f"  (median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})"
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':<48} {rate:>14.6g} ratio  ({tally.failed} failed / {tally.attempted} attempted)")
    for p in tally.problems:
        print(f"FAILED {p}")
    print("detail " + json.dumps({"workload": workload.name, "env": env, "input": result["input"],
                                  "output_sha256": result.get("output_sha256"), "samples": samples},
                                 sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "degcorr" / "__init__.py", SCHEMA) if not p.is_file()]
    if missing:
        print(f"error: run from a degcorr checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    tally = Tally()
    try:
        run = run_traced if args.trace else run_timed
        result = run(workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(workload, args.seed, bool(args.trace), result, tally)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
