"""The four directed degree-degree dependency measures.

Every measure is a function of the per-edge series (source-side degree,
target-side degree) of one DependencyType; row_values builds it once for a
whole report row. All numerators and variance
terms are accumulated in exact integer arithmetic; division happens once at
the end, so results are deterministic and reproduce closed forms to float
precision.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._exact import exact_dot, exact_power_sum
from .errors import DegenerateSizeError, EmptyGraphError, ZeroVarianceError
from .graph import DegreeTable, DependencyType, DirectedGraph, PairSeries, edge_degree_pairs, vertex_moment_sum
from .ranking import average_ranks_doubled, permutation_ranks

MEASURES = ("pearson", "spearman_uniform", "spearman_average", "kendall")

# A repetition count is spawned as one list of SeedSequence children, about
# 370 bytes each, before any work runs, and numpy cannot spawn 2**63 at all.
# The budget turns a count that cannot be spawned into an input error.
MAX_REPETITIONS = 2**20


def _check_repetitions(what: str, count: int, least: int) -> None:
    if not least <= count <= MAX_REPETITIONS:
        raise ValueError(f"{what} must be between {least} and {MAX_REPETITIONS}, got {count}")


def _pair_count(p: PairSeries, least: int, measure: str) -> int:
    m = len(p)
    if m == 0:
        raise EmptyGraphError("graph has no edges")
    if m < least:
        raise DegenerateSizeError(f"{measure} needs at least {least} edges")
    return m


def _weighted_moment(d: DegreeTable, weight: str, value: str, k: int) -> int:
    """Sum over nodes of D^weight * (D^value)^k, as vertex moment sums."""
    if weight == "out":
        return vertex_moment_sum(d, 1 + k, 0) if value == "out" else vertex_moment_sum(d, 1, k)
    return vertex_moment_sum(d, k, 1) if value == "out" else vertex_moment_sum(d, 0, 1 + k)


def variance_gap(d: DegreeTable, weight_kind: str, value_kind: str) -> int:
    """|E| * sum(D^w * (D^v)^2) - (sum(D^w * D^v))^2, an exact non-negative int.

    Zero exactly when every pair of nodes carrying positive D^weight shares
    the same D^value; this is the condition under which the corresponding
    edge-series variance vanishes and Pearson is undefined.
    """
    m = int(exact_power_sum(d.out_degree, 1))
    s1 = _weighted_moment(d, weight_kind, value_kind, 1)
    s2 = _weighted_moment(d, weight_kind, value_kind, 2)
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
    m = _pair_count(p, 1, "pearson")
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
    return _spearman_uniform_seeded(edge_degree_pairs(g, t), [np.random.SeedSequence(seed)])[0]


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Index of each non-negative value among the distinct values, ascending,
    as int16.

    Ranks depend only on the order of the values, so ranking the codes gives
    the ranks of the values. A degree series of m edges has at most
    sqrt(2m) + 1 distinct values (the bound in concordance_counts), fewer
    than 2^15 for every m <= graph.MAX_EDGES = 2^28. The check keeps a code
    from ever wrapping.
    """
    code_of = np.cumsum(np.bincount(values) > 0) - 1
    distinct = int(code_of[-1]) + 1 if code_of.size else 0
    if distinct >= 2**15:
        raise ValueError(f"{distinct} distinct degrees do not fit int16 codes")
    return code_of[values].astype(np.int16)


def _spearman_uniform_seeded(p: PairSeries, seeds: list[np.random.SeedSequence]) -> list[float]:
    """spearman_uniform of p once per seed, on dense codes built once."""
    m = _pair_count(p, 2, "spearman")
    cx, cy = _dense_codes(p.x), _dense_codes(p.y)
    rhos = []
    for ss in seeds:
        src_ss, tgt_ss = ss.spawn(2)
        rx = permutation_ranks(cx, "uniform_random", np.random.default_rng(src_ss))
        ry = permutation_ranks(cy, "uniform_random", np.random.default_rng(tgt_ss))
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
    depend on the particular ordering of tied entries.
    """
    p = edge_degree_pairs(g, t)
    m = _pair_count(p, 2, "spearman")
    rx = permutation_ranks(p.x, source_policy)
    ry = permutation_ranks(p.y, target_policy)
    return _rho_from_permutation_ranks(rx, ry, m)


def spearman_uniform_mean(
    g: DirectedGraph, t: DependencyType, repetitions: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of spearman_uniform over derived seeds."""
    _check_repetitions("repetitions", repetitions, 2)
    vals = np.array(_spearman_uniform_seeded(edge_degree_pairs(g, t), np.random.SeedSequence(seed).spawn(repetitions)))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(repetitions))
    return mean, stderr


def spearman_average(g: DirectedGraph, t: DependencyType) -> float:
    """Spearman's rho with average resolution of ties; deterministic.

    Works on doubled ranks so every sum is an exact integer; a single float
    division produces the result.
    """
    return _spearman_average(edge_degree_pairs(g, t))


def _spearman_average(p: PairSeries) -> float:
    m = _pair_count(p, 2, "spearman")
    u = average_ranks_doubled(p.x)
    v = average_ranks_doubled(p.y)
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
    m = len(p)
    if m < 2:
        return 0, 0
    xs, xi = np.unique(p.x, return_inverse=True)
    ys, yi = np.unique(p.y, return_inverse=True)
    a, b = xs.size, ys.size
    # A degree series always fits. The k distinct positive values on one
    # side are degrees of k distinct nodes, so 1 + 2 + ... + k <= m, i.e.
    # k(k+1)/2 <= m. With a possible 0 a side has at most k+1 values, and
    # a*b <= (k+1)^2 <= 2k(k+1) <= 4m since k >= 1. So every kendall_tau
    # call takes the table path.
    if a * b > 4 * m:
        return _merge_concordance_counts(p.x, yi)
    table = np.bincount(xi * b + yi, minlength=a * b).reshape(a, b)
    # before[i, j] = P[i-1, j]: pairs in rows before i and columns up to j.
    # Every product and both sums are at most m^2: exact in int64 for m < 3e9.
    before = np.zeros_like(table)
    before[1:] = table.cumsum(axis=0).cumsum(axis=1)[:-1]
    nc = int((table[:, 1:] * before[:, :-1]).sum())
    nd = int((table * (before[:, -1:] - before)).sum())
    return nc, nd


def _merge_concordance_counts(x: np.ndarray, r: np.ndarray) -> tuple[int, int]:
    """Knight's (1966) merge count; r is the dense rank of y.

    In (x, r) order a pair tied in x is sorted by r, and a pair tied in y is
    no strict inversion, so the strict inversions of r are exactly the
    discordant pairs. By the same argument the strict inversions of -r in
    (x, -r) order are the concordant pairs. Negating ranks, not values,
    cannot overflow at -2^63.
    """
    nd = _kernels.count_strict_inversions(r[np.lexsort((r, x))])
    nc = _kernels.count_strict_inversions(-r[np.lexsort((-r, x))])
    return nc, nd


def kendall_tau(g: DirectedGraph, t: DependencyType) -> float:
    """Kendall's tau (tau-a): 2(Nc - Nd) / (|E| (|E|-1)).

    No tie correction in the denominator: with many tied degrees the value
    shrinks, which is part of what the measure reports.
    """
    return _kendall_tau(edge_degree_pairs(g, t))


def _kendall_tau(p: PairSeries) -> float:
    m = _pair_count(p, 2, "kendall")
    nc, nd = concordance_counts(p)
    return 2 * (nc - nd) / (m * (m - 1))


def row_values(
    g: DirectedGraph, t: DependencyType, names: tuple[str, ...], ss: np.random.SeedSequence, rho_reps: int
) -> list[tuple[float | None, str | None]]:
    """One report row: per name in order, (value, None), or (None, reason).

    The edge series of (g, t) is built once and every measure reads it.
    reason is "zero_variance" or "degenerate_size". spearman_uniform is the
    mean over rho_reps tie-break instances on children of ss. They are
    spawned before anything can raise, so the streams of later cells that
    share ss do not depend on whether this one is defined.
    """
    p = edge_degree_pairs(g, t)
    row = []
    for name in names:
        # an if-chain, not a dict built at import, so rebound attributes see every call
        try:
            if name == "spearman_uniform":
                children = ss.spawn(rho_reps)
                row.append((float(np.mean(_spearman_uniform_seeded(p, children))), None))
            elif name == "pearson":
                row.append((pearson_from_pairs(p), None))
            elif name == "spearman_average":
                row.append((_spearman_average(p), None))
            elif name == "kendall":
                row.append((_kendall_tau(p), None))
            else:
                raise ValueError(f"unknown measure {name!r}")
        except ZeroVarianceError:
            row.append((None, "zero_variance"))
        except (EmptyGraphError, DegenerateSizeError):
            row.append((None, "degenerate_size"))
    return row
