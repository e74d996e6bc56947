"""Rank vectors with explicit tie handling.

Ranks follow the descending convention throughout: the largest value gets
rank 1. Most statistics libraries rank ascending; correlation values are
unchanged when both sides of a pair use the same convention, so results
line up with rank formulas stated descending.

Tie policies:

* ``average``           tied values share the mean of their rank range,
                        yielding exact half-integer ranks;
* ``uniform_random``    ties ordered by i.i.d. uniform draws (seeded);
* ``by_index``          ties keep their sequence order in the underlying
                        ascending sort (ranks then reflected to descending);
* ``by_reverse_index``  ties take reversed sequence order.

Every policy preserves the total rank sum n*(n+1)/2.

A permutation policy orders the series by (value, tiebreak) ascending,
which ``np.lexsort((tiebreak, values))`` states directly. The ranking sorts
twice instead: an unstable argsort of the tiebreak, then a stable argsort of
the values taken in that order, so equal values keep their tiebreak order.
When the values are small integers, such as the int16 dense codes that
spearman_uniform and spearman_ranked pass, numpy radix-sorts them in O(n). The two sorts give
the lexsort order whenever the tiebreaks are distinct. An unstable sort may
reorder equal tiebreaks, so if the sorted tiebreak has a zero gap the
ranking falls back to the lexsort itself.
"""
from __future__ import annotations

import numpy as np

TiePolicy = str


def _codes_and_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, counts): each value's index among the distinct values,
    ascending, and how often each distinct value occurs.

    Codes keep the order of the values, so any rank of the codes is the same
    rank of the values. Non-negative integers no larger than the series
    length, such as a degree series (a degree is at most m), are counted
    with one bincount of at most size + 1 bins. Their codes are int16
    whenever at most 2^15 values are distinct, so the highest code is 32767
    and numpy radix-sorts them. Every degree series qualifies: the k
    distinct positive degrees on one side belong to k distinct nodes, so
    k(k+1)/2 <= m and a side has at most sqrt(2m) + 1 distinct values,
    fewer than 2^15 for every m <= graph.MAX_EDGES = 2^28. With more
    distinct values the codes stay intp; they rank the same, only slower.
    Anything else (negative values, floats, a maximum above the size) takes
    np.unique, so no input asks for more bins than it has elements.
    """
    values = np.asarray(values)
    if (
        values.ndim == 1
        and values.dtype.kind in "iu"
        and values.min(initial=0) >= 0
        and values.max(initial=0) <= values.size
    ):
        hist = np.bincount(values.astype(np.intp, copy=False))
        present = hist > 0
        counts = hist[present]
        code_of = (np.cumsum(present) - 1).astype(np.int16 if counts.size <= 2**15 else np.intp)
        return code_of[values], counts
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return inverse.reshape(values.shape), counts


def _doubled_ranks(codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Doubled average ranks of the values that _codes_and_counts described.

    Per distinct value, ascending, 2*rank = 2 * (values above) + count + 1
    = 2m + 1 - 2 * cumsum(counts) + counts; gathered back by code.
    """
    per_value = 2 * codes.size + 1 - 2 * np.cumsum(counts) + counts
    return per_value.astype(np.int64, copy=False)[codes]


def average_ranks_doubled(values: np.ndarray) -> np.ndarray:
    """Doubled average ranks (2*rank) as exact int64.

    2*rank(v) = 2 * |{u : u > v}| + |{u : u == v}| + 1.
    """
    return _doubled_ranks(*_codes_and_counts(values))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Average-tie ranks as float64 (exact, all values are halves)."""
    return average_ranks_doubled(values) / 2.0


def _reflected_permutation_ranks(values: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Descending ranks from the ascending (value, tiebreak) order."""
    values = np.asarray(values)
    m = values.size
    o = np.argsort(tiebreak)
    ordered = tiebreak[o]
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.lexsort((tiebreak, values))
    else:
        order = o[np.argsort(values[o], kind="stable")]
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(m, 0, -1)
    return ranks


def permutation_ranks(
    values: np.ndarray,
    policy: TiePolicy,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Integer ranks 1..n (a permutation), ties resolved per policy."""
    values = np.asarray(values)
    m = values.size
    if policy == "by_index":
        tiebreak = np.arange(m)
    elif policy == "by_reverse_index":
        tiebreak = -np.arange(m)
    elif policy == "uniform_random":
        if rng is None:
            raise ValueError("uniform_random ranking needs an rng")
        tiebreak = rng.random(m)
    else:
        raise ValueError(f"unknown permutation tie policy {policy!r}")
    return _reflected_permutation_ranks(values, tiebreak)


def rank_with_ties(values, policy: TiePolicy, seed: int | None = None) -> np.ndarray:
    """Rank a sequence with the given tie policy (descending convention).

    ``uniform_random`` requires a seed and is reproducible for equal seeds.
    Average ranks come back as float64 halves; the other policies return an
    integer permutation of 1..n (as float64 for a uniform return type).
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("cannot rank an empty sequence")
    if policy == "average":
        return average_ranks(values)
    if policy == "uniform_random":
        if seed is None:
            raise ValueError("uniform_random ranking needs a seed")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return permutation_ranks(values, "uniform_random", rng).astype(np.float64)
    return permutation_ranks(values, policy).astype(np.float64)
