"""The four directed degree-degree dependency measures.

Every function takes a graph and a DependencyType and works on the per-edge
series (source-side degree, target-side degree). All numerators and variance
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
from .graph import DegreeTable, DependencyType, DirectedGraph, PairSeries, degrees, edge_degree_pairs, vertex_moment_sum
from .ranking import average_ranks_doubled, permutation_ranks

MEASURES = ("pearson", "spearman_uniform", "spearman_average", "kendall")

# A repetition count is spawned as one list of SeedSequence children, about
# 370 bytes each, before any work runs, and numpy cannot spawn 2**63 at all.
# The budget turns a count that cannot be spawned into an input error.
MAX_REPETITIONS = 2**20


def _check_repetitions(what: str, count: int, least: int) -> None:
    if not least <= count <= MAX_REPETITIONS:
        raise ValueError(f"{what} must be between {least} and {MAX_REPETITIONS}, got {count}")


def _edge_count(g: DirectedGraph) -> int:
    if g.edge_count == 0:
        raise EmptyGraphError("graph has no edges")
    return g.edge_count


def _edge_pairs(g: DirectedGraph, t: DependencyType, measure: str) -> tuple[int, PairSeries]:
    """Edge count and pair series of a rank measure, which needs 2 edges."""
    m = _edge_count(g)
    if m <= 1:
        raise DegenerateSizeError(f"{measure} needs at least 2 edges")
    return m, edge_degree_pairs(g, t)


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
    """Pearson correlation of the per-edge degree pairs, via vertex sums.

    The variance and mean terms reduce to degree-moment sums; only the cross
    term needs the edge list. Raises ZeroVarianceError when either side of
    the series is constant (e.g. any directed cycle).
    """
    m = _edge_count(g)
    d = degrees(g)
    gap_src = variance_gap(d, "out", t.source_kind)
    gap_tgt = variance_gap(d, "in", t.target_kind)
    if gap_src == 0 or gap_tgt == 0:
        raise ZeroVarianceError(f"degenerate degree series for {t.wire_name}")
    x = d.kind(t.source_kind)[g.src]
    y = d.kind(t.target_kind)[g.tgt]
    sxy = exact_dot(x, y)
    s_src = _weighted_moment(d, "out", t.source_kind, 1)
    s_tgt = _weighted_moment(d, "in", t.target_kind, 1)
    num = m * sxy - s_src * s_tgt
    return num / math.sqrt(gap_src * gap_tgt)


def pearson_from_pairs(p: PairSeries) -> float:
    """Edge-form Pearson, computed directly from the joint series.

    Independent of the vertex-sum route in pearson(); the two must agree to
    float precision on every graph where both are defined.
    """
    m = len(p)
    if m == 0:
        raise EmptyGraphError("empty pair series")
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
    return _spearman_uniform_seeded(g, t, [np.random.SeedSequence(seed)])[0]


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Index of each value among the distinct values, ascending, as int16.

    Ranks depend only on the order of the values, so ranking the codes gives
    the ranks of the values. A degree series of m edges has at most
    sqrt(2m) + 1 distinct values (the bound in concordance_counts), fewer
    than 2^15 for every m <= graph.MAX_EDGES = 2^28. The check keeps a code
    from ever wrapping.
    """
    distinct, codes = np.unique(values, return_inverse=True)
    if distinct.size >= 2**15:
        raise ValueError(f"{distinct.size} distinct degrees do not fit int16 codes")
    return codes.astype(np.int16)


def _spearman_uniform_seeded(
    g: DirectedGraph, t: DependencyType, seeds: list[np.random.SeedSequence]
) -> list[float]:
    """spearman_uniform once per seed, on dense codes built once."""
    m, p = _edge_pairs(g, t, "spearman")
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
    m, p = _edge_pairs(g, t, "spearman")
    rx = permutation_ranks(p.x, source_policy)
    ry = permutation_ranks(p.y, target_policy)
    return _rho_from_permutation_ranks(rx, ry, m)


def spearman_uniform_mean(
    g: DirectedGraph, t: DependencyType, repetitions: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of spearman_uniform over derived seeds."""
    _check_repetitions("repetitions", repetitions, 2)
    vals = np.array(_spearman_uniform_seeded(g, t, np.random.SeedSequence(seed).spawn(repetitions)))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(repetitions))
    return mean, stderr


def spearman_average(g: DirectedGraph, t: DependencyType) -> float:
    """Spearman's rho with average resolution of ties; deterministic.

    Works on doubled ranks so every sum is an exact integer; a single float
    division produces the result.
    """
    m, p = _edge_pairs(g, t, "spearman")
    u = average_ranks_doubled(p.x)
    v = average_ranks_doubled(p.y)
    shift = m * (m + 1) ** 2
    sx2 = exact_power_sum(u, 2) - shift
    sy2 = exact_power_sum(v, 2) - shift
    if sx2 == 0 or sy2 == 0:
        raise ZeroVarianceError(f"all ranks tied on one side for {t.wire_name}")
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
    m, p = _edge_pairs(g, t, "kendall")
    nc, nd = concordance_counts(p)
    return 2 * (nc - nd) / (m * (m - 1))


def cell_value(
    g: DirectedGraph, t: DependencyType, name: str, ss: np.random.SeedSequence, rho_reps: int
) -> tuple[float | None, str | None]:
    """One report cell: (value, None), or (None, reason) when undefined.

    reason is "zero_variance" or "degenerate_size". spearman_uniform is the
    mean over rho_reps tie-break instances on children of ss. They are
    spawned before anything can raise, so the streams of later cells that
    share ss do not depend on whether this one is defined.
    """
    try:
        if name == "spearman_uniform":
            children = ss.spawn(rho_reps)
            return float(np.mean(_spearman_uniform_seeded(g, t, children))), None
        if name == "pearson":
            return pearson(g, t), None
        if name == "spearman_average":
            return spearman_average(g, t), None
        if name == "kendall":
            return kendall_tau(g, t), None
    except ZeroVarianceError:
        return None, "zero_variance"
    except (EmptyGraphError, DegenerateSizeError):
        return None, "degenerate_size"
    raise ValueError(f"unknown measure {name!r}")
