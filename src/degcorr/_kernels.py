"""Strict inversion counting for Kendall's tau on high-cardinality series.

`measures.concordance_counts` reads degree series off the joint degree
table and never comes here; this merge count serves `PairSeries` whose
joint table would be too large. `BACKEND` names the implementation.
"""
from __future__ import annotations

import numpy as np

BACKEND = "python"


def count_strict_inversions(values) -> int:
    """Number of pairs i < j with values[i] > values[j] (ties excluded).

    Bottom-up merge over plain Python lists of ints.
    """
    a = np.asarray(values, dtype=np.int64).tolist()
    n = len(a)
    b = [0] * n
    total = 0
    width = 1
    while width < n:
        lo = 0
        while lo + width < n:
            mid = lo + width
            hi = min(mid + width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[j] < a[i]:
                    total += mid - i
                    b[k] = a[j]
                    j += 1
                else:
                    b[k] = a[i]
                    i += 1
                k += 1
            b[k:hi] = a[i:mid] if i < mid else a[j:hi]
            a[lo:hi] = b[lo:hi]
            lo += 2 * width
        width *= 2
    return total
