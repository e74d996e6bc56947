"""Mutation check: each catalogued mutant of the package must fail its tests.

    python tools/mutants.py

An entry of CATALOGUE names a file, a snippet that must occur in it exactly
once, its replacement, the pytest node ids or files that should kill the
mutant, and why the mutant matters. src/, tests/ and pyproject.toml are
copied once into a temporary directory. The union of all selections first
runs there unmutated and must pass. Then each mutant is written into the
copy, its selection runs with `pytest -x`, and the file is restored. A
mutant is killed when a selected test fails (pytest exit 1) or the run takes
longer than TIMEOUT_S, and survives when every selected test passes.

EQUIVALENT lists mutants that no test can kill, because the program's
outputs stay the same, each with its reason; they are not run, but their
snippets are checked like the others. One line per mutant, then a JSON
summary. The exit status is 1 if a mutant survived, if pytest ended in any
other way (a collection error, no tests), if the unmutated run failed, or if
a snippet no longer occurs exactly once. The script needs only the standard
library and pytest; a full run takes a few minutes on two cores.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# a mutant whose tests run longer (one that loops forever) counts as killed
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    reason: str


THEORY = "src/degcorr/theory.py"
RANKING = "src/degcorr/ranking.py"
MEASURES = "src/degcorr/measures.py"
CONFIG = "src/degcorr/config_model.py"
GRAPH = "src/degcorr/graph.py"
T_THEORY = "tests/test_theory.py"
T_RANKING = "tests/test_ranking.py"
T_GRAPH = "tests/test_graph.py"
T_THREADS = "tests/test_measures.py::TestSpearmanUniformThreads"
T_GOLDEN = "tests/test_golden.py"
T_CONTRACT = "tests/test_contract.py"

CATALOGUE = (
    # theory: closed forms, written down directly
    Mutant(
        "theory-reverse-key-dropped", THEORY,
        "(classes[i][coord], -i if reverse else i)", "(classes[i][coord], i)",
        (T_THEORY,),
        "by_reverse_index must lay tied classes out in reversed index order",
    ),
    Mutant(
        "theory-rank-line-off-by-one", THEORY,
        "else (e + 1 - before, -1)", "else (e - before, -1)",
        (T_THEORY,),
        "a rank line one off still has the right slope; only exact values see it",
    ),
    Mutant(
        "theory-reverse-rank-line-off-by-one", THEORY,
        "(e - before - c, 1) if reverse", "(e + 1 - before - c, 1) if reverse",
        (T_THEORY,),
        "the reversed line starts at the class's last member",
    ),
    Mutant(
        "theory-solver-printed-branch", THEORY,
        "    s = (1.0 + math.sqrt(1.0 - eps * eps)) / eps\n    return s * s",
        "    return (2.0 - eps * eps + math.sqrt(1.0 - eps)) / (eps * eps)",
        (T_THEORY + "::TestSupportFunction",),
        "the printed root with sqrt(1 - eps) does not solve f(1/a, a) = eps",
    ),
    Mutant(
        "theory-solver-small-root", THEORY,
        "s = (1.0 + math.sqrt(1.0 - eps * eps)) / eps", "s = (1.0 - math.sqrt(1.0 - eps * eps)) / eps",
        (T_THEORY + "::TestSupportFunction",),
        "the other root s <= 1 gives a <= 1, outside the solver's branch",
    ),
    Mutant(
        "theory-variant-check-removed", THEORY,
        '    if variant not in ("connected", "disconnected"):\n'
        "        raise ValueError(f\"variant must be 'connected' or 'disconnected', got {variant!r}\")\n",
        "",
        (T_THEORY,),
        "an unknown variant would silently give the connected family",
    ),
    Mutant(
        "theory-tau-limit-accepts-nan", THEORY,
        '    pairs."""\n    if not 0 < a < math.inf:', '    pairs."""\n    if a <= 0:',
        (T_THEORY + "::TestLimits",),
        "a <= 0 lets NaN and inf through to a NaN limit",
    ),
    Mutant(
        "theory-f-accepts-inf-x", THEORY,
        "if not (0 < x < math.inf and 0 < a < math.inf):", "if not (0 < x and 0 < a < math.inf):",
        (T_THEORY + "::TestLimits",),
        "f(inf, a) is inf/inf, a NaN",
    ),
    Mutant(
        "theory-rank-sums-swapped", THEORY,
        "    return suv, sx2, sy2", "    return suv, sy2, sx2",
        (T_THEORY,),
        "the disconnected family's two sides have different tie groups once a > 1",
    ),
    Mutant(
        "theory-rank-sums-product-shift", THEORY,
        "suv = sum(c * rx[x] * ry[y] for x, y, c in classes) - shift",
        "suv = sum(c * rx[x] * ry[y] for x, y, c in classes) - shift + e",
        (T_THEORY,),
        "the centred cross sum is exact; any term off moves the closed form",
    ),
    # ranking
    Mutant(
        "ranking-packed-key-floor-division", RANKING,
        "np.arange(values.size)) % values.size", "np.arange(values.size)) // values.size",
        (T_RANKING,),
        "the key's quotient is the code, its remainder the order",
    ),
    Mutant(
        "ranking-packed-key-without-index", RANKING,
        "_sorted_edge_keys(values.size, codes, np.arange(values.size))",
        "_sorted_edge_keys(values.size, codes, 0 * codes)",
        (T_RANKING,),
        "without the index the remainder holds no order",
    ),
    Mutant(
        "ranking-packed-key-on-int16-codes", RANKING,
        "elif codes.dtype == np.int16:", "elif codes.dtype != np.int16:",
        (T_RANKING,),
        "int16 codes times m stay int16 and wrap; the packed key needs intp codes",
    ),
    Mutant(
        "ranking-one-fewer-key-bit", RANKING,
        "db = min(draw_bits, 64 - ib - cb)", "db = min(draw_bits, 63 - ib - cb)",
        (T_RANKING,),
        "codes and index that fill 64 bits exactly must still rank, with no draw bits",
    ),
    Mutant(
        "ranking-unstable-int16-sort", RANKING,
        'order = np.argsort(codes, kind="stable")', "order = np.argsort(codes)",
        (T_RANKING,),
        "by_index needs ties in index order",
    ),
    Mutant(
        "ranking-2d-series-ranked", GRAPH,
        "if columns else ())", "if columns else arr.shape[1:])",
        (T_RANKING,),
        "average ranks of a 2-d array come back 2-d; the permutation policies fail in broadcasting",
    ),
    Mutant(
        "ranking-doubled-ranks-off-by-two", RANKING,
        "np.cumsum(counts)) + counts + 1)", "np.cumsum(counts)) + counts + 3)",
        ("tests/test_ranking.py", "tests/test_measures.py::TestSpearmanAverage"),
        "a doubled rank one rank off is off by two",
    ),
    Mutant(
        "ranking-run-appended-one-slot-early", RANKING,
        "members = np.insert(pairs, last + 1, pairs[last] + 1)",
        "members = np.insert(pairs, last, pairs[last] + 1)",
        (T_RANKING,),
        "a run's last member must follow its pairs",
    ),
    Mutant(
        "ranking-run-appended-gets-next-id", RANKING,
        "run = np.cumsum(np.insert(first, last + 1, False))",
        "run = np.cumsum(np.insert(first, last + 1, True))",
        (T_RANKING,),
        "a run's last member must share the run's id",
    ),
    Mutant(
        "ranking-run-dropped-from-lexsort", RANKING,
        "np.lexsort((index, draws[index], run))", "np.lexsort((index, draws[index]))",
        (T_RANKING,),
        "runs must stay in their own slots",
    ),
    Mutant(
        "ranking-draw-and-index-swapped", RANKING,
        "np.lexsort((index, draws[index], run))", "np.lexsort((draws[index], index, run))",
        (T_RANKING,),
        "within a run the draw decides, the index breaks equal draws",
    ),
    # measures
    Mutant(
        "measures-tie-break-children-swapped", MEASURES,
        "src, tgt = ss.spawn(2)", "tgt, src = ss.spawn(2)",
        (T_THREADS, "tests/test_measures.py::TestSpearmanUniform"),
        "child 0 breaks source ties, child 1 target ties: the seeded contract",
    ),
    Mutant(
        "measures-split-halves-swapped", MEASURES,
        "np.random.default_rng(halves[w])", "np.random.default_rng(halves[1 - w])",
        (T_THREADS,),
        "the odd seed's source side takes child 0 on any thread count",
    ),
    Mutant(
        "measures-split-sides-swapped", MEASURES,
        "ry[_packed_order(tasks[-1][w],", "ry[_packed_order(tasks[-1][1 - w],",
        (T_THREADS,),
        "worker 0 ranks the odd seed's source side, worker 1 its target side",
    ),
    Mutant(
        "measures-gather-reversed", MEASURES,
        'np.take(ry, order, out=spent, mode="clip")', 'np.take(ry, order[::-1], out=spent, mode="clip")',
        (T_THREADS, "tests/test_measures.py::TestSpearmanUniform"),
        "sum(rx * ry) = sum(desc * ry[order]) needs the order as it is",
    ),
    Mutant(
        "measures-target-scatter-desc-reversed", MEASURES,
        "ry[_packed_order(cy, np.random.default_rng(tgt), keyed)] = desc",
        "ry[_packed_order(cy, np.random.default_rng(tgt), keyed)] = desc[::-1]",
        (T_THREADS, "tests/test_measures.py::TestSpearmanUniform"),
        "the target's ranks descend along its order",
    ),
    Mutant(
        "measures-degree-table-kept", MEASURES,
        "    return [(coded[x], coded[y]) for x, y in keys]",
        "    _coded_sides.kept = d\n    return [(coded[x], coded[y]) for x, y in keys]",
        (T_THREADS + "::test_report_temporaries_per_edge",),
        "the degree table is freed before the tie-break buffers exist",
    ),
    Mutant(
        "measures-threaded-from-2-13", MEASURES,
        "_THREADED_EDGES = 2**14", "_THREADED_EDGES = 2**13",
        (T_THREADS,),
        "below 2^14 edges a second thread only slows a side down",
    ),
    Mutant(
        "measures-pearson-reads-ranks", MEASURES,
        '(sx[2], sy[2]) if name == "pearson"',
        '(_doubled_ranks(sx[1]), _doubled_ranks(sy[1])) if name == "pearson"',
        ("tests/test_measures.py::TestPearson",),
        "pearson weighs each code by its degree, spearman_average by its rank",
    ),
    Mutant(
        "measures-kendall-column-shift", MEASURES,
        "nc = int((table[:, 1:] * before[:, :-1]).sum())", "nc = int((table[:, 1:] * before[:, 1:]).sum())",
        ("tests/test_measures.py::TestKendall",),
        "a concordant pair lies in an earlier row and an earlier column",
    ),
    Mutant(
        "measures-variance-gap-k1-twice", MEASURES,
        "s2 = vertex_moment_sum(d, *_moment_exponents(weight_kind, value_kind, 2))",
        "s2 = vertex_moment_sum(d, *_moment_exponents(weight_kind, value_kind, 1))",
        ("tests/test_measures.py::TestVarianceGap",),
        "the gap needs the second moment",
    ),
    Mutant(
        "measures-table-sums-transposed", MEASURES,
        "for s, v in ((sx, xv), (sy, yv))]", "for s, v in ((sx, yv), (sy, xv))]",
        ("tests/test_measures.py::TestRows", "tests/test_measures.py::TestCellValue"),
        "each side's counts weigh its own values; spearman_average's own route reads no table",
    ),
    Mutant(
        "measures-one-edge-bound-for-all", MEASURES,
        '1 if name == "pearson" else 2', "1",
        ("tests/test_measures.py::TestCellValue",),
        "only pearson is defined on one edge; kendall would divide by m(m - 1) = 0",
    ),
    # kernels and exact sums
    Mutant(
        "kernels-ties-as-inversions", "src/degcorr/_kernels.py",
        'np.searchsorted(left, keys[right], "right")', "np.searchsorted(left, keys[right])",
        ("tests/test_kernels.py",),
        "a tie is no strict inversion",
    ),
    Mutant(
        "kernels-floats-truncated", "src/degcorr/_kernels.py",
        "_codes_and_counts(_as_int64(values))", "_codes_and_counts(np.asarray(values, dtype=np.int64))",
        (T_GRAPH + "::test_non_integer_arrays_refused",),
        "an int64 cast truncates 1.5 and 1.2 to a tie, and the count drops their inversion",
    ),
    Mutant(
        "exact-block-twice-too-long", "src/degcorr/_exact.py",
        "np.arange(0, prod.size, _INT64_SAFE // max(bound, 1))",
        # max(bound, 2): a step of 2**63 would overflow np.arange, not wrap a sum
        "np.arange(0, prod.size, 2 * (_INT64_SAFE // max(bound, 2)))",
        ("tests/test_exact.py",),
        "a block sum past 2^63 wraps",
    ),
    # graph
    Mutant(
        "graph-fast-path-three-columns", GRAPH,
        "if ids.shape[1] != 2:", "if ids.shape[1] < 2:",
        (T_GRAPH,),
        "a file whose lines all hold three ids reads as three even columns",
    ),
    Mutant(
        "graph-fast-path-bare-cr-kept", GRAPH,
        "map(str.splitlines, _ascii_pieces(data))", 'map(lambda piece: piece.split("\\n"), _ascii_pieces(data))',
        (T_GRAPH,),
        "np.loadtxt refuses a bare CR inside a line, so a file of CR line ends would go to the line loop",
    ),
    Mutant(
        "graph-fast-path-pieces-cut-mid-line", GRAPH,
        'end = data.find(b"\\n", start + 65536) + 1 or len(data)', "end = min(start + 65536, len(data))",
        (T_GRAPH,),
        "a piece that ends inside a line splits an id, or leaves a line one id",
    ),
    Mutant(
        "graph-fast-path-float-read-kept", GRAPH,
        'warnings.simplefilter("error", DeprecationWarning)', 'warnings.simplefilter("default", DeprecationWarning)',
        (T_GRAPH,),
        "numpy 1.23 to at least 1.26 read an id past 2^63 - 1 through a float and cast it, with only a warning",
    ),
    Mutant(
        "graph-fast-path-blank-input-read", GRAPH,
        "if not data or data.isspace():", "if not data:",
        (T_GRAPH,),
        "np.loadtxt warns on input without data, and the CLI prints every warning",
    ),
    Mutant(
        "graph-remap-packed-key-bound-inclusive", GRAPH,
        "if int(ids.max()) < 2**63 // count:", "if int(ids.max()) <= 2**63 // count:",
        (T_GRAPH,),
        "an id of 2**63 // count packs a key past 2**63 - 1, which wraps",
    ),
    Mutant(
        "graph-remap-unstable-argsort", GRAPH,
        'order = np.argsort(ids, kind="stable")', "order = np.argsort(ids)",
        (T_GRAPH,),
        "ids too large to pack need equal ids kept in file order to find first positions",
    ),
    Mutant(
        "graph-remap-mark-not-reset", GRAPH,
        "    mark[:] = False\n", "",
        (T_GRAPH,),
        "run starts left in the mark count as first positions",
    ),
    Mutant(
        "graph-remap-dense-id-from-one", GRAPH,
        "    dense_of_value -= 1\n", "",
        (T_GRAPH,),
        "a cumsum counts the first positions up to and including a value's own",
    ),
    Mutant(
        "graph-remap-run-lengths-shifted", GRAPH,
        "np.diff(runs, append=count)", "np.diff(runs, prepend=0)",
        (T_GRAPH,),
        "run i runs from runs[i] to the next run start, the last one to the end",
    ),
    Mutant(
        "graph-float-arrays-truncated", GRAPH,
        'arr.dtype.kind not in "iu"', 'arr.dtype.kind not in "iuf"',
        (T_GRAPH,),
        "a float endpoint or degree cast to int64 silently drops its fraction",
    ),
    Mutant(
        "graph-uint64-bound-off-by-one", GRAPH,
        "arr.max() > 2**63 - 1", "arr.max() > 2**63",
        (T_GRAPH,),
        "a uint64 of 2^63 cast to int64 wraps to -2^63",
    ),
    Mutant(
        "graph-empty-sequence-refused", GRAPH,
        'if arr.size and arr.dtype.kind not in "iu":', 'if arr.dtype.kind not in "iu":',
        (T_GRAPH,),
        "np.asarray([]) is float64, yet an empty sequence holds no value to truncate",
    ),
    Mutant(
        "graph-shape-accepts-0-d", GRAPH,
        "if arr.ndim == 0 or arr.shape[1:]", "if arr.shape[1:]",
        (T_CONTRACT + "::test_wrong_shapes_refused",),
        "a 0-d array has no trailing shape to refuse; ranked, it came back as 1.0",
    ),
    Mutant(
        "graph-shape-any-column-count", GRAPH,
        "((columns,) if columns", "(arr.shape[1:] if columns",
        (T_CONTRACT + "::test_wrong_shapes_refused",),
        "balancing took a (3, 3) array and returned it as balanced",
    ),
    Mutant(
        "graph-readonly-freezes-callers-array", GRAPH,
        "    if np.may_share_memory(arr, values):\n        arr = arr.copy()\n", "",
        (T_CONTRACT + "::test_constructors_copy_what_the_caller_holds",),
        "a constructor froze the caller's own int64 array, and later writes to it changed the container",
    ),
    Mutant(
        "graph-float-node-count-accepted", GRAPH,
        "if not isinstance(node_count, (int, np.integer)) or node_count < 0:", "if node_count < 0:",
        (T_GRAPH + "::test_non_integer_node_count_refused",),
        "int(2.5) builds a 2-node graph",
    ),
    Mutant(
        "graph-duplicates-ignore-targets", GRAPH,
        "key = _sorted_edge_keys(self.node_count, self.src, self.tgt)",
        "key = _sorted_edge_keys(self.node_count, self.src, 0 * self.tgt)",
        (T_GRAPH,),
        "a duplicate repeats source and target",
    ),
    Mutant(
        "graph-all-types-reordered", GRAPH,
        "ALL_TYPES = tuple(DependencyType)", "ALL_TYPES = tuple(DependencyType)[::-1]",
        (T_GOLDEN,),
        "reports list the types in their wire order",
    ),
    # generators and the configuration model
    Mutant(
        "generators-overflow-warns", "src/degcorr/generators.py",
        '    with np.errstate(over="ignore"):\n'
        "        np.power(buf, -1.0 / spec.gamma, out=buf)\n"
        "        np.multiply(buf, spec.x_min, out=buf)\n",
        "    np.power(buf, -1.0 / spec.gamma, out=buf)\n    np.multiply(buf, spec.x_min, out=buf)\n",
        ("tests/test_generators.py::TestPowerLawSampler", "tests/test_cli.py::TestStudy"),
        "a tiny gamma overflows before the clamp, and the CLI prints every warning",
    ),
    Mutant(
        "generators-floor-cut-margin-sign", "src/degcorr/generators.py",
        "np.log1p(1 / spec.x_min) + np.log1p(-1e-9)", "np.log1p(1 / spec.x_min) + np.log1p(1e-9)",
        ("tests/test_config_model.py::TestFloorRowSums",),
        "the cut must stay below the uniform that maps to x_min + 1",
    ),
    Mutant(
        "generators-float-x-min-accepted", "src/degcorr/generators.py",
        "if not isinstance(self.x_min, (int, np.integer)) or self.x_min < 1:", "if self.x_min < 1:",
        ("tests/test_generators.py::TestPowerLawSampler",),
        "balancing counts each draw below the floor cut as x_min, which only an integer is",
    ),
    Mutant(
        "generators-float-bridge-size-accepted", "src/degcorr/generators.py",
        "isinstance(v, (int, np.integer)) and v >= 1 for v in (self.k, self.m)", "v >= 1 for v in (self.k, self.m)",
        ("tests/test_generators.py::TestBridgeGraph",),
        "a bridge size of 2.5 becomes 2 in the int64 sizes, a graph nobody asked for",
    ),
    Mutant(
        "generators-sample-budget-off-by-one", "src/degcorr/generators.py",
        "if not 1 <= count <= MAX_EDGES:", "if not 1 <= count <= MAX_EDGES + 1:",
        ("tests/test_generators.py::TestPowerLawSampler::test_count_over_budget_refused_before_drawing",),
        "the budget is a number of draws, inclusive",
    ),
    Mutant(
        "config-ecm-float-degrees-truncated", CONFIG,
        "pairs = _as_int64(degree_pairs, columns=2)", "pairs = np.asarray(degree_pairs, dtype=np.int64)",
        ("tests/test_config_model.py::TestErasedConfigurationModel",),
        "truncated degrees draw a graph from a prescription nobody gave",
    ),
    Mutant(
        "config-ecm-keeps-self-loops", CONFIG,
        "keep = src != tgt", "keep = src == src",
        ("tests/test_config_model.py::TestErasedConfigurationModel",),
        "the erased model is simple",
    ),
    Mutant(
        "config-float-sum-of-2-53-trusted", CONFIG,
        "if sums.max() < 2.0**53:", "if sums.max() <= 2.0**53:",
        ("tests/test_config_model.py::TestFloorRowSums",),
        "a float sum of exactly 2^53 can stand for 2^53 + 1",
    ),
    Mutant(
        "config-repetition-dropped", CONFIG,
        "for rep_ss in np.random.SeedSequence(seed).spawn(repetitions):",
        "for rep_ss in np.random.SeedSequence(seed).spawn(repetitions)[1:]:",
        (T_GOLDEN,),
        "every repetition is one draw",
    ),
)


# Outputs stay the same under these, so no test can kill them; they are not
# run, but their snippets are checked like the others.
EQUIVALENT = (
    Mutant(
        "ranking-one-fewer-draw-bit", RANKING,
        "buffers: tuple, *, draw_bits: int = 53)", "buffers: tuple, *, draw_bits: int = 52)", (),
        "the run fix-up orders keys that share a draw prefix by the full draw, so a shorter prefix "
        "only makes more runs; ranks stay those of the lexsort",
    ),
    Mutant(
        "measures-cross-sum-transposed", MEASURES,
        "_exact_sum([(xv, 1), (table @ yv, 1)])", "_exact_sum([(yv, 1), (table.T @ xv, 1)])", (),
        "xv . (T yv) and yv . (T' xv) are the same exact integer",
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest -x on tests in copy: (exit code, or None past TIMEOUT_S; output)."""
    # no bytecode: a mutant of the same size written within the same second
    # as a cached .pyc would otherwise be read from that stale cache
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def _first_failure(output: str) -> str:
    return next((line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))), "")


def main() -> int:
    stale = [m.name for m in (*CATALOGUE, *EQUIVALENT) if (ROOT / m.path).read_text().count(m.snippet) != 1]
    for name in stale:
        print(f"stale      {name}: its snippet does not occur exactly once")
    chosen = [m for m in CATALOGUE if m.name not in stale]
    summary = {"mutants": len(chosen), "killed": [], "survived": [], "error": [], "stale": stale}
    summary["equivalent"] = {m.name: m.reason for m in EQUIVALENT}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="degcorr-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        code, output = _pytest(copy, tuple(dict.fromkeys(t for m in chosen for t in m.tests)))
        if code != 0:
            print(f"unmutated run failed (exit {code}): {_first_failure(output)}")
            summary["error"].append("unmutated")
            chosen = []
        for m in chosen:
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.snippet, m.replacement))
            t0 = time.perf_counter()
            try:
                code, output = _pytest(copy, m.tests)
            finally:
                target.write_text(original)
            status = "killed" if code in (None, 1) else "survived" if code == 0 else "error"
            summary[status].append(m.name)
            detail = "timeout" if code is None else _first_failure(output) or f"exit {code}"
            print(f"{status:10} {m.name}  {time.perf_counter() - t0:.1f} s  {detail}", flush=True)
    summary["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps(summary, indent=1))
    return 1 if summary["survived"] or summary["error"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())
