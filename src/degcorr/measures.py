"""The four directed degree-degree dependency measures.

Every measure is a function of the per-edge series (source-side degree,
target-side degree) of one DependencyType. row_values computes a graph's
report rows in one pass:

* per graph, the DegreeTable and each side the rows read (the out- or
  in-degree at the edges' sources or targets: at most four), gathered by
  edge and coded once by ranking._codes_and_counts, which alone picks the
  dtype;
* per graph, every row's spearman_uniform seeds, spawned in type order and
  then seed order. From 2^14 edges two workers, one per core, are dealt
  whole seeds and split an odd one out by side; a side is ordered by one
  sort of packed (code, draw, index) keys (see ranking), and each rho goes
  into its seed's slot, so no value depends on the number of workers;
* per row, one joint table C = bincount(code_x * b + code_y), b being the
  number of distinct y values. Pearson reads sum(xy) = x . (C @ y) over
  the distinct values and its other sums from their counts;
  spearman_average does the same with each value's doubled average rank;
  kendall counts concordant and discordant pairs on C.

All numerators and variance terms are accumulated in exact integer
arithmetic; division happens once at the end, so results are deterministic
and reproduce closed forms to float precision. _coded_sides codes a graph's
sides and _value computes a row's value of each measure, for every report
cell and for pearson and kendall_tau; the tie-breaking public functions code
their sides with _coded_sides too. spearman_average alone keeps its own
route over m-sized arrays, an independent reference.
"""
from __future__ import annotations

import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from ._exact import _block_sum, _exact_sum, exact_dot, exact_power_sum
from .errors import DegenerateSizeError, EmptyGraphError, ZeroVarianceError
from .graph import (DegreeTable, DependencyType, DirectedGraph, PairSeries, _moment_exponents, degrees,
                    edge_degree_pairs, vertex_moment_sum)
from .ranking import (_codes_and_counts, _doubled_ranks, _packed_order, _rank_buffers, average_ranks_doubled,
                      permutation_ranks)

MEASURES = ("pearson", "spearman_uniform", "spearman_average", "kendall")

# A repetition count is spawned as one list of SeedSequence children, about
# 370 bytes each, before any work runs, and numpy cannot spawn 2**63 at all.
# The budget turns a count that cannot be spawned into an input error.
MAX_REPETITIONS = 2**20


def _core_count() -> int:
    """Threads a loop over independent seeded units starts: one per core the
    process may run on, at most two."""
    return min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1


def _in_parallel(work: Callable[[int, list[BaseException]], None], workers: int) -> None:
    """Run work(w, failures) for w < workers, w = 0 on the calling thread. A
    worker that sees a failure may stop early; the first one is raised here
    once every helper thread has stopped."""
    failures: list[BaseException] = []

    def run(w: int) -> None:
        try:
            work(w, failures)
        except BaseException as exc:
            # raised again by the caller once the helpers have stopped
            failures.append(exc)

    helpers = [threading.Thread(target=run, args=(w,), daemon=True) for w in range(1, workers)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    if failures:
        raise failures[0]


# A side of fewer edges ranks in well under a millisecond, mostly in the
# interpreter, where a second thread only waits for the lock: at m = 256 two
# threads took twice as long as one, at m = 2^14 and above 0.65-0.85 times.
_THREADED_EDGES = 2**14


def _check_repetitions(what: str, count: int, least: int) -> None:
    if not least <= count <= MAX_REPETITIONS:
        raise ValueError(f"{what} must be between {least} and {MAX_REPETITIONS}, got {count}")


# One side of a pair series: (codes, counts, distinct), see ranking._codes_and_counts.
Side = tuple[np.ndarray, np.ndarray, np.ndarray]


def _pair_count(m: int, least: int, measure: str) -> int:
    if m == 0:
        raise EmptyGraphError("graph has no edges")
    if m < least:
        raise DegenerateSizeError(f"{measure} needs at least {least} edges")
    return m


def _side(g: DirectedGraph, d: DegreeTable, end: str, kind: str) -> Side:
    """The kind degrees at the sources (end "out") or targets (end "in") of
    g's edges, coded; the gathered int64 edge array is freed on return."""
    return _codes_and_counts(d.kind(kind)[g.src if end == "out" else g.tgt])


def _coded_sides(g: DirectedGraph, types: Sequence[DependencyType]) -> list[tuple[Side, Side]]:
    """Each type's (source, target) sides off one DegreeTable of g, each (end,
    kind) coded once; the table is gone before any tie-break buffer exists."""
    d = degrees(g)
    keys = [(("out", t.source_kind), ("in", t.target_kind)) for t in types]
    coded = {key: _side(g, d, *key) for key in dict.fromkeys(key for pair in keys for key in pair)}
    return [(coded[x], coded[y]) for x, y in keys]


def _value(name: str, sx: Side, sy: Side, table: np.ndarray | None, rhos: Sequence[float] = ()) -> float:
    """The named measure of a row, spearman_uniform being the mean of its
    tie-break instances rhos; raises what the measure's public function does."""
    m = _pair_count(sx[0].size, 1 if name == "pearson" else 2, name.partition("_")[0])
    if name == "spearman_uniform":
        return float(np.mean(rhos))
    if name == "kendall":
        nc, nd = _table_concordance(table)
        return 2 * (nc - nd) / (m * (m - 1))
    xv, yv = (sx[2], sy[2]) if name == "pearson" else (_doubled_ranks(sx[1]), _doubled_ranks(sy[1]))
    # exact sums of x, y, x^2 and y^2, each side's counts weighing its values, and
    # of xy: table @ yv is at most m * max(yv) < 2^63, as yv <= 2m <= 2 * graph.MAX_EDGES
    s1x, s1y, sxx, syy = [_exact_sum([(s[1], 1), (v, k)]) for k in (1, 2) for s, v in ((sx, xv), (sy, yv))]
    sxy = _exact_sum([(xv, 1), (table @ yv, 1)])
    if name == "spearman_average":
        return _average_rho(m, sxx, syy, sxy)
    vx = m * sxx - s1x * s1x
    vy = m * syy - s1y * s1y
    if vx == 0 or vy == 0:
        raise ZeroVarianceError("constant coordinate in pair series")
    return (m * sxy - s1x * s1y) / math.sqrt(vx * vy)


def variance_gap(d: DegreeTable, weight_kind: str, value_kind: str) -> int:
    """|E| * sum(D^w * (D^v)^2) - (sum(D^w * D^v))^2, an exact non-negative int.

    Zero exactly when every pair of nodes carrying positive D^weight shares
    the same D^value; this is the condition under which the corresponding
    edge-series variance vanishes and Pearson is undefined.
    """
    m = int(exact_power_sum(d.out_degree, 1))
    s1 = vertex_moment_sum(d, *_moment_exponents(weight_kind, value_kind, 1))
    s2 = vertex_moment_sum(d, *_moment_exponents(weight_kind, value_kind, 2))
    return m * s2 - s1 * s1


def pearson(g: DirectedGraph, t: DependencyType) -> float:
    """Pearson correlation of the per-edge degree pairs of type t, from the
    exact sums a report row reads off the joint table.

    Raises ZeroVarianceError when either side of the series is constant
    (e.g. any directed cycle). On a degree series m·Σx² − (Σx)² =
    variance_gap, the tests' oracle.
    """
    [(sx, sy)] = _coded_sides(g, [t])
    return _value("pearson", sx, sy, _joint_table(sx, sy))


def _rho_from_permutation_ranks(rx: np.ndarray, ry: np.ndarray, prod: np.ndarray) -> float:
    """Spearman's rho of two rank permutations of 1..m. prod is an int64
    scratch of m values and is overwritten: a product is at most m^2 < 2^56,
    so the products are summed exactly in blocks."""
    m = prod.size
    np.multiply(rx, ry, out=prod, dtype=np.int64)
    num = 12 * _block_sum(prod, m * m) - 3 * m * (m + 1) ** 2
    return num / (m**3 - m)


def spearman_uniform(g: DirectedGraph, t: DependencyType, seed: int) -> float:
    """Spearman's rho with ties broken uniformly at random, reproducibly.

    Two independent streams are derived from the seed: child 0 breaks ties on
    the source side, child 1 on the target side. That assignment is part of
    the reproducibility contract.
    """
    return _spearman_uniform_seeded([(*_coded_sides(g, [t])[0], [np.random.SeedSequence(seed)])])[0]


def _spearman_uniform_seeded(
    rows: list[tuple[Side, Side, list[np.random.SeedSequence]]], *, _workers: int | None = None
) -> list[float]:
    """spearman_uniform per seed of each (source side, target side, seeds)
    row of one graph, in row order and then seed order; at least one seed.

    Worker w, of one per core from m = 2^14 on, takes seeds w, w + workers,
    ...: in its own buffers it ranks each one's target side and gathers the
    ranks by the source side's order. Worker 0 ranks the source side and
    worker 1 the target side of an odd seed out, and the caller forms its rho.
    """
    m = _pair_count(rows[0][0][0].size, 2, "spearman")
    tasks = [(cx, cy, ss) for (cx, *_), (cy, *_), seeds in rows for ss in seeds]
    workers = min(_workers or (_core_count() if m >= _THREADED_EDGES else 1), 2 * len(tasks))
    halves = tasks[-1][2].spawn(2) if len(tasks) % workers else []
    desc = np.arange(m, 0, -1, dtype=np.int32)
    # allocated on the calling thread, so that no helper grows a malloc arena;
    # a worker's draws, keys, chunk and ranks serve each of its seeds
    buffers = [(_rank_buffers(m), np.empty(m, np.int32)) for _ in range(workers)]
    rhos = [0.0] * len(tasks)

    def work(w: int, failures: list[BaseException]) -> None:
        # calls no public function: perfbench traces those on one span stack
        keyed, ry = buffers[w]
        spent = keyed[0].view(np.int32)[:m]
        for i in range(w, len(tasks) - bool(halves), workers):
            if failures:
                return
            cx, cy, ss = tasks[i]
            src, tgt = ss.spawn(2)
            ry[_packed_order(cy, np.random.default_rng(tgt), keyed)] = desc
            order = _packed_order(cx, np.random.default_rng(src), keyed)
            # sum(rx * ry) = sum(desc * ry[order]); "raise" would copy out first
            np.take(ry, order, out=spent, mode="clip")
            rhos[i] = _rho_from_permutation_ranks(desc, spent, order)
        if w < len(halves) and not failures:
            ry[_packed_order(tasks[-1][w], np.random.default_rng(halves[w]), keyed)] = desc

    _in_parallel(work, workers)
    if halves:
        rhos[-1] = _rho_from_permutation_ranks(buffers[0][1], buffers[1][1], buffers[0][0][1].view(np.int64))
    return rhos


def spearman_ranked(
    g: DirectedGraph,
    t: DependencyType,
    source_policy: str = "by_index",
    target_policy: str = "by_index",
) -> float:
    """Spearman's rho with deterministic tie order (by_index / by_reverse_index).

    Exposes how strongly the value of rho under random tie breaking can
    depend on the particular ordering of tied entries. Like spearman_uniform
    it ranks the dense codes, which order and tie as the degrees do.
    """
    (cx, *_), (cy, *_) = _coded_sides(g, [t])[0]
    m = _pair_count(cx.size, 2, "spearman")
    rx = permutation_ranks(cx, source_policy)
    ry = permutation_ranks(cy, target_policy)
    return _rho_from_permutation_ranks(rx, ry, np.empty(m, np.int64))


def spearman_uniform_mean(
    g: DirectedGraph, t: DependencyType, repetitions: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of spearman_uniform over derived seeds."""
    _check_repetitions("repetitions", repetitions, 2)
    seeds = np.random.SeedSequence(seed).spawn(repetitions)
    vals = np.array(_spearman_uniform_seeded([(*_coded_sides(g, [t])[0], seeds)]))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(repetitions))
    return mean, stderr


def spearman_average(g: DirectedGraph, t: DependencyType) -> float:
    """Spearman's rho with average resolution of ties; deterministic.

    Exact integer sums over doubled ranks and one division: the library's
    independent m-sized reference, which TestRows compares with the rows.
    """
    p = edge_degree_pairs(g, t)
    u, v = average_ranks_doubled(p.x), average_ranks_doubled(p.y)
    m = _pair_count(u.size, 2, "spearman")
    return _average_rho(m, exact_power_sum(u, 2), exact_power_sum(v, 2), exact_dot(u, v))


def _average_rho(m: int, suu: int, svv: int, suv: int) -> float:
    """spearman_average from the exact sums of u^2, v^2 and uv, u and v being
    the doubled average ranks; both have mean m + 1."""
    shift = m * (m + 1) ** 2
    sx2, sy2 = suu - shift, svv - shift
    if sx2 == 0 or sy2 == 0:
        raise ZeroVarianceError("all ranks tied on one side")
    return (suv - shift) / math.sqrt(sx2 * sy2)


def concordance_counts(p: PairSeries) -> tuple[int, int]:
    """Exact counts of strictly concordant and strictly discordant pairs.

    Reads both off the joint table C[i, j]: the number of pairs whose x is
    the i-th and whose y is the j-th distinct value, ascending. With P the
    2-D inclusive prefix sum of C, a pair in cell (i, j) is concordant with
    the pairs in cells (<i, <j) and discordant with those in cells (<i, >j):

        Nc = sum C[i, j] * P[i-1, j-1]
        Nd = sum C[i, j] * (P[i-1, last] - P[i-1, j])

    Series with too many distinct values for a table of O(m) cells take a
    merge count instead.
    """
    sx, sy = _codes_and_counts(p.x), _codes_and_counts(p.y)
    (xi, xn, _), (yi, yn, _) = sx, sy
    m = xi.size
    if m < 2:
        return 0, 0
    a, b = xn.size, yn.size
    # A degree series always fits. A side with k distinct positive values
    # has k(k+1)/2 <= m (see _codes_and_counts) and at most k+1 values, so
    # a*b <= (k+1)^2 <= 2k(k+1) <= 4m since k >= 1. So kendall_tau and
    # every report row read the table without this check.
    if a * b > 4 * m:
        return _merge_concordance_counts(xi, yi, b)
    return _table_concordance(_joint_table(sx, sy))


def _joint_table(sx: Side, sy: Side) -> np.ndarray:
    """C[i, j]: the number of pairs whose x has code i and whose y code j."""
    a, b = sx[1].size, sy[1].size
    return np.bincount(sx[0].astype(np.intp) * b + sy[0], minlength=a * b).reshape(a, b)


def _table_concordance(table: np.ndarray) -> tuple[int, int]:
    """(Nc, Nd) of a joint table; see concordance_counts."""
    # before[i, j] = P[i-1, j]: pairs in rows before i and columns up to j.
    # Every product and both sums are at most m^2: exact in int64 for m < 3e9.
    before = np.zeros_like(table)
    before[1:] = table.cumsum(axis=0).cumsum(axis=1)[:-1]
    nc = int((table[:, 1:] * before[:, :-1]).sum())
    nd = int((table * (before[:, -1:] - before)).sum())
    return nc, nd


def _merge_concordance_counts(x: np.ndarray, r: np.ndarray, b: int) -> tuple[int, int]:
    """Knight's (1966) merge count; x and r are the dense codes of x and y,
    and r takes b values.

    In (x, r) order a pair tied in x is sorted by r, and a pair tied in y is
    no strict inversion, so the strict inversions of r are exactly the
    discordant pairs. By the same argument the strict inversions of the
    reflected codes b - 1 - r in (x, b - 1 - r) order are the concordant
    pairs. Reflected codes stay in 0..b-1, where nothing can overflow.
    """
    s = b - 1 - r
    nd = _kernels.count_strict_inversions(r[np.lexsort((r, x))])
    nc = _kernels.count_strict_inversions(s[np.lexsort((s, x))])
    return nc, nd


def kendall_tau(g: DirectedGraph, t: DependencyType) -> float:
    """Kendall's tau (tau-a): 2(Nc - Nd) / (|E| (|E|-1)).

    No tie correction in the denominator: with many tied degrees the value
    shrinks, which is part of what the measure reports.
    """
    [(sx, sy)] = _coded_sides(g, [t])
    return _value("kendall", sx, sy, _joint_table(sx, sy))


def row_values(
    g: DirectedGraph,
    types: Sequence[DependencyType],
    names: tuple[str, ...],
    seeds: Sequence[np.random.SeedSequence],
    rho_reps: int,
) -> list[list[tuple[float | None, str | None]]]:
    """g's report rows, one per type: per name in order, (value, None), or
    (None, reason), reason being "zero_variance" or "degenerate_size".

    spearman_uniform is the mean over rho_reps tie-break instances on
    children of the type's seed in seeds, which types may share. Every
    type's children are spawned, in type order, before anything can raise,
    so the streams of cells that share a seed do not depend on whether an
    earlier one is defined; no value depends on the number of threads.
    """
    if not set(names) <= set(MEASURES):
        raise ValueError(f"unknown measure {next(n for n in names if n not in MEASURES)!r}")
    children = [ss.spawn(rho_reps) for ss in seeds] if "spearman_uniform" in names else []
    pairs = _coded_sides(g, types)
    seeded = [(*p, c) for p, c in zip(pairs, children)]
    rhos = _spearman_uniform_seeded(seeded) if seeded and g.edge_count >= 2 else []
    rows = []
    for i, (sx, sy) in enumerate(pairs):
        table = _joint_table(sx, sy) if set(names) - {"spearman_uniform"} else None
        row = []
        for name in names:
            try:
                row.append((_value(name, sx, sy, table, rhos[i * rho_reps : (i + 1) * rho_reps]), None))
            except ZeroVarianceError:
                row.append((None, "zero_variance"))
            except (EmptyGraphError, DegenerateSizeError):
                row.append((None, "degenerate_size"))
        rows.append(row)
    return rows
