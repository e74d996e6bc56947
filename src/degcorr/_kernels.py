"""Strict inversion counting for Kendall's tau on high-cardinality series.

`measures.concordance_counts` reads degree series off the joint degree
table and never comes here; this merge count serves `PairSeries` whose
joint table would be too large. `BACKEND` names the implementation.
"""
from __future__ import annotations

import numpy as np

from .graph import _as_int64
from .ranking import _codes_and_counts

BACKEND = "python"


def count_strict_inversions(values) -> int:
    """Number of pairs i < j with values[i] > values[j] (ties excluded).

    Bottom-up merge sort on dense ranks r < n, one numpy pass per width w.
    The key pair * n + r keeps each pair of adjacent w-blocks apart, so the
    left blocks' keys are one sorted array. Each right-block element counts
    the larger keys of its own left block with two searchsorted calls, and
    one sort of the keys merges every pair of blocks. Keys stay below n^2.
    """
    r = _codes_and_counts(_as_int64(values))[0]
    n = r.size
    pos = np.arange(n)
    total = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        right = pos % (2 * width) >= width
        keys = pair * n + r
        left = keys[~right]
        larger = np.searchsorted(left, (pair[right] + 1) * n) - np.searchsorted(left, keys[right], "right")
        total += int(larger.sum())
        r = np.sort(keys) - pair * n
        width *= 2
    return total
