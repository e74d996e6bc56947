"""Closed forms, limit constants, scaling-law utilities and empirical studies
for the bridge families and heavy-tailed degree sequences.

The bridge-graph closed forms are evaluated from the family's block
structure (three edge classes for the connected graph, four for the
disconnected one) in exact integer arithmetic, never from an explicit edge
list. That keeps them independent of the measure implementations they are
tested against, and keeps them exact at small n where tied degree values
merge blocks and naive polynomial displays stop being valid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import PowerLawSpec, iid_degree_sequence, random_bridge_collection
from .graph import DependencyType, _moment_exponents
from .measures import _check_repetitions, pearson

# ---------------------------------------------------------------------------
# bridge-family block structure
# ---------------------------------------------------------------------------
# Each entry is (x value, y value, count) of the In/Out joint series, in edge
# order: fan-in class, fan-out class, bridge edge(s).


def _bridge_classes(n: int, a: int, variant: str = "connected") -> list[tuple[int, int, int]]:
    if variant not in ("connected", "disconnected"):
        raise ValueError(f"variant must be 'connected' or 'disconnected', got {variant!r}")
    if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (n, a)):
        raise ValueError(f"n and a must be integers >= 1, got n={n!r}, a={a!r}")
    m = a * n
    if variant == "disconnected":
        return [(0, 1, n), (1, 0, m), (n, 1, 1), (1, m, 1)]
    return [(0, 1, n), (1, 0, m), (n, m, 1)]


def _doubled_average_ranks(classes, coord) -> dict[int, int]:
    """Doubled average rank per distinct value of one coordinate."""
    by_value: dict[int, int] = {}
    for cls in classes:
        v = cls[coord]
        by_value[v] = by_value.get(v, 0) + cls[2]
    ranks = {}
    for v, cnt in by_value.items():
        greater = sum(c for u, c in by_value.items() if u > v)
        ranks[v] = 2 * greater + cnt + 1
    return ranks


def closed_form_pearson_bridge(n: int, a: int) -> float:
    """Pearson In/Out value of the connected bridge graph G(n, a*n).

    Exact integer moments, one float division: tends to 1 as n grows for any
    fixed a, driven entirely by the single bridge edge.
    """
    classes = _bridge_classes(n, a)
    return _pearson_from_classes(classes)


def closed_form_pearson_bridge_disconnected(n: int, a: int) -> float:
    """Pearson In/Out of the disconnected variant; tends to 0 as n grows."""
    return _pearson_from_classes(_bridge_classes(n, a, "disconnected"))


def _pearson_from_classes(classes) -> float:
    e = sum(c for _, _, c in classes)
    sx = sum(x * c for x, _, c in classes)
    sy = sum(y * c for _, y, c in classes)
    sxy = sum(x * y * c for x, y, c in classes)
    sxx = sum(x * x * c for x, _, c in classes)
    syy = sum(y * y * c for _, y, c in classes)
    num = e * sxy - sx * sy
    vx = e * sxx - sx * sx
    vy = e * syy - sy * sy
    return num / math.sqrt(vx * vy)


def closed_form_spearman_bridge(n: int, a: int, variant: str = "connected") -> float:
    """Average-tie Spearman In/Out closed form for G(n, a*n) or its
    disconnected variant. Both tend to -1 as n grows."""
    suv, sx2, sy2 = _average_rank_sums(n, a, variant)
    return suv / math.sqrt(sx2 * sy2)


def sigma_products_bridge(n: int, a: int, variant: str = "connected") -> tuple[int, int]:
    """Exact squared average-rank deviations (sigma_x^2, sigma_y^2) of the family."""
    return _average_rank_sums(n, a, variant)[1:]


def _average_rank_sums(n: int, a: int, variant: str) -> tuple[int, int, int]:
    """Centred sums (uv, u^2, v^2) over the In/Out series of the doubled
    average ranks u, v: each is the plain sum minus e(e+1)^2, since both
    sides have the doubled mean rank e + 1."""
    classes = _bridge_classes(n, a, variant)
    e = sum(c for _, _, c in classes)
    rx = _doubled_average_ranks(classes, 0)
    ry = _doubled_average_ranks(classes, 1)
    shift = e * (e + 1) ** 2
    suv = sum(c * rx[x] * ry[y] for x, y, c in classes) - shift
    sx2 = sum(c * rx[x] ** 2 for x, _, c in classes) - shift
    sy2 = sum(c * ry[y] ** 2 for _, y, c in classes) - shift
    return suv, sx2, sy2


def closed_form_spearman_ranked(n: int, a: int, ordering: str = "by_index") -> float:
    """Spearman In/Out of G(n, a*n) under deterministic tie order.

    ``by_index`` orders ties by edge position on both sides; its large-n
    limit is (a^3 - 3a^2 - 3a + 1) / (a+1)^3, which turns positive at a >= 4.
    ``by_reverse_index`` reverses the tie order on the target side only and
    keeps the source side; its limit is -1 for every a.
    """
    if ordering not in ("by_index", "by_reverse_index"):
        raise ValueError("ordering must be 'by_index' or 'by_reverse_index'")
    classes = _bridge_classes(n, a)
    e = sum(c for _, _, c in classes)
    rx = _class_rank_lines(classes, coord=0, reverse=False)
    ry = _class_rank_lines(classes, coord=1, reverse=(ordering == "by_reverse_index"))
    s = 0
    for (x0, dx), (y0, dy), (_, _, c) in zip(rx, ry, classes):
        # sum over t=1..c of (x0 + dx*t)(y0 + dy*t)
        st = c * (c + 1) // 2
        st2 = c * (c + 1) * (2 * c + 1) // 6
        s += c * x0 * y0 + (x0 * dy + y0 * dx) * st + dx * dy * st2
    num = 12 * s - 3 * e * (e + 1) ** 2
    den = e**3 - e
    return num / den


def _class_rank_lines(classes, coord: int, reverse: bool) -> list[tuple[int, int]]:
    """Per class, the descending rank of its t-th member as (offset, slope).

    Members are indexed t = 1..count in edge order. Ranks come from a stable
    ascending sort by (value, index), with ties in reversed index order if
    asked; classes are contiguous index blocks, so one sort of the classes
    by (value, +-class index) lays them out. A class of c members that
    starts after `before` members ascends as before + t, or before + c + 1 - t
    reversed, and its descending rank is e + 1 minus that.
    """
    e = sum(c for _, _, c in classes)
    lines: list[tuple[int, int]] = [(0, 0)] * len(classes)
    before = 0
    for i in sorted(range(len(classes)), key=lambda i: (classes[i][coord], -i if reverse else i)):
        c = classes[i][2]
        lines[i] = (e - before - c, 1) if reverse else (e + 1 - before, -1)
        before += c
    return lines


def tau_counts_bridge(n: int, a: int, variant: str = "connected") -> tuple[int, int]:
    """Exact (concordant, discordant) pair counts of the In/Out series.

    For n >= 2 the connected family gives ((a+1)n, a n^2); the disconnected
    one has a single extra discordant pair from its two half-bridge edges.
    """
    classes = _bridge_classes(n, a, variant)
    nc = nd = 0
    for i in range(len(classes)):
        xi, yi, ci = classes[i]
        for j in range(i + 1, len(classes)):
            xj, yj, cj = classes[j]
            s = (xi - xj) * (yi - yj)
            if s > 0:
                nc += ci * cj
            elif s < 0:
                nd += ci * cj
    return nc, nd


def closed_form_tau_bridge(n: int, a: int) -> float:
    """Kendall tau of G(n, a*n); the limit -2a/(a+1)^2 also serves the
    disconnected variant, whose extra edge pair washes out."""
    nc, nd = tau_counts_bridge(n, a)
    e = (a + 1) * n + 1
    return 2 * (nc - nd) / (e * (e - 1))


def tau_limit_bridge(a: float) -> float:
    """Large-n Kendall tau of G(n, a*n): -2a/(a+1)^2. Tends to 0 as a grows
    because the tie count grows with a while tau's denominator counts all
    pairs."""
    if not 0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")
    return -2.0 * a / (a + 1.0) ** 2


def spearman_uniform_mean_limit(a: float) -> float:
    """Large-n mean (over tie-break randomness) of the uniformly tie-broken
    Spearman value on G(n, a*n): -3a/(a+1)^2.

    Follows from the expectation identity E[rho] = 3 sigma_x sigma_y /
    (E^3 - E) * rho_average with sigma_x^2 = sigma_y^2 ~ (a^2+a) n^3,
    E ~ (a+1) n and rho_average -> -1; Monte Carlo confirms the factor 3.
    Also tends to 0 as a grows, 1.5x the tau limit along the way.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")
    return -3.0 * a / (a + 1.0) ** 2


# ---------------------------------------------------------------------------
# scaling exponents and the vanishing region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaPair:
    """Tail exponents of the out- and in-degree distributions."""

    gamma_out: float
    gamma_in: float

    def __post_init__(self):
        if not (self.gamma_out > 0 and self.gamma_in > 0):
            raise ValueError("tail exponents must be positive")


@dataclass(frozen=True)
class LimitExponents:
    """Growth exponents of the four moment sequences entering the squared
    mean-to-variance ratio: a, b for the squared means over |E|, c, d for
    the second moments (source side: a, c; target side: b, d)."""

    a: float
    b: float
    c: float
    d: float


def scaling_exponent(p: float, q: float, g: GammaPair) -> float:
    """Growth exponent of sum_v (D+)^p (D-)^q over n nodes:
    max(p/gamma_out, q/gamma_in, 1)."""
    return max(p / g.gamma_out, q / g.gamma_in, 1.0)


def limit_exponents(t: DependencyType, g: GammaPair) -> LimitExponents:
    """Exponents (a, b, c, d) for one dependency type.

    a and b are squared-sum exponents divided by the edge growth (linear for
    tail exponents above 1), c and d are plain sum exponents.
    """
    a = 2 * scaling_exponent(*_moment_exponents("out", t.source_kind, 1), g) - 1
    b = 2 * scaling_exponent(*_moment_exponents("in", t.target_kind, 1), g) - 1
    c = scaling_exponent(*_moment_exponents("out", t.source_kind, 2), g)
    d = scaling_exponent(*_moment_exponents("in", t.target_kind, 2), g)
    return LimitExponents(a, b, c, d)


def region_contains(t: DependencyType, g: GammaPair) -> bool:
    """Whether (gamma_out, gamma_in) lies in the open region where the
    Pearson value of this type is forced non-negative in the large-graph
    limit. Boundaries are excluded."""
    x, y = g.gamma_out, g.gamma_in
    if t is DependencyType.IN_OUT:
        return (1 < x < 2 and y > 1) or (1 < y < 2 and x > 1)
    if t is DependencyType.OUT_IN:
        return (1 < x < 3 and y > 1) or (1 < y < 3 and x > 1)
    if t is DependencyType.OUT_OUT:
        return 1 < x < 3 and y > 1
    return 1 < y < 3 and x > 1  # IN_IN


def exponent_criterion(t: DependencyType, g: GammaPair) -> bool:
    """The sufficient condition on (a, b, c, d) for the squared mean ratio to
    vanish: (a < c and b <= d) or (a <= c and b < d)."""
    ex = limit_exponents(t, g)
    return (ex.a < ex.c and ex.b <= ex.d) or (ex.a <= ex.c and ex.b < ex.d)


# ---------------------------------------------------------------------------
# random-collection limit support
# ---------------------------------------------------------------------------


def support_function_f(x: float, a: float) -> float:
    """f(x) = (1 + a x) / (sqrt(1 + x) * sqrt(1 + a^2 x)) on x > 0.

    The shape of the random Pearson limit of bridge collections as a
    function of the component mixture ratio; 1 at both boundaries, minimum
    at x = 1/a.
    """
    if not (0 < x < math.inf and 0 < a < math.inf):
        raise ValueError(f"x and a must be positive and finite, got x={x}, a={a}")
    return (1.0 + a * x) / (math.sqrt(1.0 + x) * math.sqrt(1.0 + a * a * x))


def argmin_support_function(a: float) -> float:
    """Location of the minimum of f(., a): exactly 1/a."""
    if not 0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")
    return 1.0 / a


def solve_support_minimum(eps: float) -> float:
    """The a >= 1 with min_x f(x, a) = eps, in closed form.

    The minimum value f(1/a, a) = 2 sqrt(a) / (a + 1) decreases from 1 to 0
    on a in [1, inf), so any eps in (0, 1] has a unique solution with a >= 1:
    a = s^2 for the root s = (1 + sqrt(1 - eps^2)) / eps >= 1 of
    eps s^2 - 2 s + eps = 0, that is a = (2 - eps^2 + 2 sqrt(1 - eps^2)) / eps^2.
    Squaring s avoids dividing by an eps^2 that underflows to 0; an a too
    large for a float comes back as inf.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    s = (1.0 + math.sqrt(1.0 - eps * eps)) / eps
    return s * s


# ---------------------------------------------------------------------------
# empirical scaling study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    """Fitted growth of one moment sum against the predicted exponent."""

    p: float
    q: float
    predicted: float
    slope: float
    points: tuple[tuple[int, float], ...]  # (n, median sum)


def scaling_study(
    spec_out: PowerLawSpec,
    spec_in: PowerLawSpec,
    sizes,
    pq_pairs,
    repetitions: int,
    seed: int,
) -> list[ScalingRow]:
    """Regress log median moment sums against log n over a size grid.

    For each size, `repetitions` independent i.i.d. degree sequences are
    drawn with generators.iid_degree_sequence, each on a child of the size's
    seed sequence, and the median of each moment sum is recorded; the slope
    of the log-log regression is compared with the scaling_exponent
    prediction for the two specs' tail exponents.
    """
    sizes = [int(n) for n in sizes]
    if len(set(sizes)) < max(3, len(sizes)):
        raise ValueError("need at least 3 grid sizes, without repeats")
    _check_repetitions("repetitions", repetitions, 1)
    if len(set(pq_pairs)) < len(pq_pairs):
        raise ValueError("need (p, q) pairs without repeats")
    if not all(math.isfinite(v) for pq in pq_pairs for v in pq):
        raise ValueError(f"p and q must be finite, got {pq_pairs}")
    gammas = GammaPair(spec_out.gamma, spec_in.gamma)
    root = np.random.SeedSequence(seed)
    medians = {pq: [] for pq in pq_pairs}
    for n, size_ss in zip(sizes, root.spawn(len(sizes))):
        sums = {pq: [] for pq in pq_pairs}
        for rep_ss in size_ss.spawn(repetitions):
            pairs = iid_degree_sequence(n, spec_out, spec_in, rep_ss)
            out = pairs[:, 0].astype(np.float64)
            inn = pairs[:, 1].astype(np.float64)
            for p, q in pq_pairs:
                sums[(p, q)].append(float(np.sum(out**p * inn**q)))
        for pq in pq_pairs:
            medians[pq].append(float(np.median(sums[pq])))

    logn = np.log(np.asarray(sizes, dtype=np.float64))
    rows = []
    for (p, q), med in medians.items():
        if not all(0 < v < math.inf for v in med):  # the regression takes logarithms
            raise ValueError(f"median moment sums of (p, q) = ({p}, {q}) must be finite positive, got {med}")
        slope = float(np.polyfit(logn, np.log(np.asarray(med)), 1)[0])
        rows.append(
            ScalingRow(
                p,
                q,
                scaling_exponent(p, q, gammas),
                slope,
                tuple(zip(sizes, med)),
            )
        )
    return rows


def bridge_distribution_study(
    n: int, a: float, spec: PowerLawSpec, realizations: int, seed: int
) -> list[float]:
    """In/Out Pearson value of independent random bridge collections.

    Realization i is random_bridge_collection(n, a, spec, s_i), where s_i is
    the first word of the i-th child spawned from the seed's SeedSequence.
    """
    _check_repetitions("realizations", realizations, 1)
    values = []
    for ss in np.random.SeedSequence(seed).spawn(realizations):
        g = random_bridge_collection(n, a, spec, int(ss.generate_state(1)[0]))
        values.append(pearson(g, DependencyType.IN_OUT))
    return values
