"""The four directed degree-degree dependency measures.

Every measure is a function of the per-edge series (source-side degree,
target-side degree) of one DependencyType. A report builds its inputs in
layers:

* once per graph, the DegreeTable (compute_report and randomization_study
  pass it to row_values, so every type reuses one graph.degrees call);
* once per row (graph and type), the edge series, and, when a selected
  measure reads them, each side's dense codes (each degree's index among
  the side's distinct degrees, ascending) and counts of the distinct
  degrees, from ranking._codes_and_counts, which alone picks their dtype.

Each measure of the row reads these:

* pearson takes exact sums over the edge series itself;
* spearman_uniform ranks the codes once per tie-break seed;
* spearman_average gathers the doubled average ranks per distinct degree,
  computed from the counts, back by code and takes exact sums of them;
* kendall counts concordant and discordant pairs on the joint table
  bincount(code_x * b + code_y), b being the number of distinct y values.

All numerators and variance terms are accumulated in exact integer
arithmetic; division happens once at the end, so results are deterministic
and reproduce closed forms to float precision.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._exact import exact_dot, exact_power_sum
from .errors import DegenerateSizeError, EmptyGraphError, ZeroVarianceError
from .graph import (DegreeTable, DependencyType, DirectedGraph, PairSeries, _moment_exponents,
                    edge_degree_pairs, vertex_moment_sum)
from .ranking import _codes_and_counts, _doubled_ranks, average_ranks_doubled, permutation_ranks

MEASURES = ("pearson", "spearman_uniform", "spearman_average", "kendall")

# A repetition count is spawned as one list of SeedSequence children, about
# 370 bytes each, before any work runs, and numpy cannot spawn 2**63 at all.
# The budget turns a count that cannot be spawned into an input error.
MAX_REPETITIONS = 2**20


def _check_repetitions(what: str, count: int, least: int) -> None:
    if not least <= count <= MAX_REPETITIONS:
        raise ValueError(f"{what} must be between {least} and {MAX_REPETITIONS}, got {count}")


# One side of a pair series: its dense codes and the count of each code.
Side = tuple[np.ndarray, np.ndarray]


def _pair_count(m: int, least: int, measure: str) -> int:
    if m == 0:
        raise EmptyGraphError("graph has no edges")
    if m < least:
        raise DegenerateSizeError(f"{measure} needs at least {least} edges")
    return m


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
    """Pearson correlation of the per-edge degree pairs of type t.

    Raises ZeroVarianceError when either side of the series is constant
    (e.g. any directed cycle).
    """
    return pearson_from_pairs(edge_degree_pairs(g, t))


def pearson_from_pairs(p: PairSeries) -> float:
    """Pearson correlation of a pair series, from exact integer sums.

    On a degree series Σx = Σ_v D+·D^α and m·Σx² − (Σx)² = variance_gap, so
    the division sees the operands of the vertex form, the tests' oracle.
    """
    m = _pair_count(len(p), 1, "pearson")
    sx = exact_power_sum(p.x, 1)
    sy = exact_power_sum(p.y, 1)
    sxx = exact_power_sum(p.x, 2)
    syy = exact_power_sum(p.y, 2)
    sxy = exact_dot(p.x, p.y)
    vx = m * sxx - sx * sx
    vy = m * syy - sy * sy
    if vx == 0 or vy == 0:
        raise ZeroVarianceError("constant coordinate in pair series")
    return (m * sxy - sx * sy) / math.sqrt(vx * vy)


def _rho_from_permutation_ranks(rx: np.ndarray, ry: np.ndarray, m: int) -> float:
    s = exact_dot(rx, ry)
    num = 12 * s - 3 * m * (m + 1) ** 2
    den = m**3 - m
    return num / den


def spearman_uniform(g: DirectedGraph, t: DependencyType, seed: int) -> float:
    """Spearman's rho with ties broken uniformly at random, reproducibly.

    Two independent streams are derived from the seed: child 0 breaks ties on
    the source side, child 1 on the target side. That assignment is part of
    the reproducibility contract.
    """
    return _spearman_uniform_seeded(*_sides(edge_degree_pairs(g, t)), [np.random.SeedSequence(seed)])[0]


def _sides(p: PairSeries) -> tuple[Side, Side]:
    return _codes_and_counts(p.x), _codes_and_counts(p.y)


def _spearman_uniform_seeded(sx: Side, sy: Side, seeds: list[np.random.SeedSequence]) -> list[float]:
    """spearman_uniform of a pair series once per seed, from its sides."""
    m = _pair_count(sx[0].size, 2, "spearman")
    rhos = []
    for ss in seeds:
        src_ss, tgt_ss = ss.spawn(2)
        rx = permutation_ranks(sx[0], "uniform_random", np.random.default_rng(src_ss))
        ry = permutation_ranks(sy[0], "uniform_random", np.random.default_rng(tgt_ss))
        rhos.append(_rho_from_permutation_ranks(rx, ry, m))
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
    (cx, _), (cy, _) = _sides(edge_degree_pairs(g, t))
    m = _pair_count(cx.size, 2, "spearman")
    rx = permutation_ranks(cx, source_policy)
    ry = permutation_ranks(cy, target_policy)
    return _rho_from_permutation_ranks(rx, ry, m)


def spearman_uniform_mean(
    g: DirectedGraph, t: DependencyType, repetitions: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of spearman_uniform over derived seeds."""
    _check_repetitions("repetitions", repetitions, 2)
    seeds = np.random.SeedSequence(seed).spawn(repetitions)
    vals = np.array(_spearman_uniform_seeded(*_sides(edge_degree_pairs(g, t)), seeds))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(repetitions))
    return mean, stderr


def spearman_average(g: DirectedGraph, t: DependencyType) -> float:
    """Spearman's rho with average resolution of ties; deterministic.

    Works on doubled ranks so every sum is an exact integer; a single float
    division produces the result.
    """
    p = edge_degree_pairs(g, t)
    return _spearman_average(average_ranks_doubled(p.x), average_ranks_doubled(p.y))


def _spearman_average(u: np.ndarray, v: np.ndarray) -> float:
    """spearman_average from the doubled average ranks of both sides."""
    m = _pair_count(u.size, 2, "spearman")
    shift = m * (m + 1) ** 2
    sx2 = exact_power_sum(u, 2) - shift
    sy2 = exact_power_sum(v, 2) - shift
    if sx2 == 0 or sy2 == 0:
        raise ZeroVarianceError("all ranks tied on one side")
    num = exact_dot(u, v) - shift
    return num / math.sqrt(sx2 * sy2)


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
    return _concordance_counts(*_sides(p))


def _concordance_counts(sx: Side, sy: Side) -> tuple[int, int]:
    (xi, xn), (yi, yn) = sx, sy
    m = xi.size
    if m < 2:
        return 0, 0
    a, b = xn.size, yn.size
    # A degree series always fits. A side with k distinct positive values
    # has k(k+1)/2 <= m (see _codes_and_counts) and at most k+1 values, so
    # a*b <= (k+1)^2 <= 2k(k+1) <= 4m since k >= 1. So every kendall_tau
    # call takes the table path.
    if a * b > 4 * m:
        return _merge_concordance_counts(xi, yi, b)
    table = np.bincount(xi.astype(np.intp) * b + yi, minlength=a * b).reshape(a, b)
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
    return _kendall_tau(*_sides(edge_degree_pairs(g, t)))


def _kendall_tau(sx: Side, sy: Side) -> float:
    m = _pair_count(sx[0].size, 2, "kendall")
    nc, nd = _concordance_counts(sx, sy)
    return 2 * (nc - nd) / (m * (m - 1))


def row_values(
    g: DirectedGraph,
    t: DependencyType,
    names: tuple[str, ...],
    ss: np.random.SeedSequence,
    rho_reps: int,
    d: DegreeTable | None = None,
) -> list[tuple[float | None, str | None]]:
    """One report row: per name in order, (value, None), or (None, reason).

    d is g's DegreeTable, built here when not given. The edge series of
    (g, t) is built once, and so are the dense codes and counts of each
    side when a selected measure reads them. reason is "zero_variance" or
    "degenerate_size". spearman_uniform is the mean over rho_reps tie-break
    instances on children of ss. They are spawned before anything can
    raise, so the streams of later cells that share ss do not depend on
    whether this one is defined.
    """
    p = edge_degree_pairs(g, t, d)
    # pearson reads the series itself; every other measure reads the sides
    sx, sy = _sides(p) if any(name != "pearson" for name in names) else (None, None)
    row = []
    for name in names:
        # an if-chain, not a dict built at import, so rebound attributes see every call
        try:
            if name == "spearman_uniform":
                children = ss.spawn(rho_reps)
                row.append((float(np.mean(_spearman_uniform_seeded(sx, sy, children))), None))
            elif name == "pearson":
                row.append((pearson_from_pairs(p), None))
            elif name == "spearman_average":
                row.append((_spearman_average(_doubled_ranks(*sx), _doubled_ranks(*sy)), None))
            elif name == "kendall":
                row.append((_kendall_tau(sx, sy), None))
            else:
                raise ValueError(f"unknown measure {name!r}")
        except ZeroVarianceError:
            row.append((None, "zero_variance"))
        except (EmptyGraphError, DegenerateSizeError):
            row.append((None, "degenerate_size"))
    return row
