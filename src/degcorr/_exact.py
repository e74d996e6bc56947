"""Overflow-safe exact integer reductions over numpy arrays.

All correlation numerators and variance terms are integers before the final
division, so they are accumulated exactly. Every reduction is one sum of
products, taken by `_exact_sum` (`_block_sum` sums given products): in int64
over blocks short enough that no block sum can overflow, with the block sums
added as Python ints. Products are formed as Python ints only when a single
product can reach 2**62. Both paths are exact, hence deterministic.
"""
from __future__ import annotations

import numpy as np

_INT64_SAFE = 2**62


def _exact_sum(factors: list[tuple[np.ndarray, int]]) -> int:
    """Sum over i of the product of a[i]**k for (a, k) in factors, 0**0 == 1.

    The arrays have equal length and the exponents are non-negative ints.
    """
    size = factors[0][0].size
    bound = 1  # the largest possible |product|
    for a, k in factors:
        # from the extremes as Python ints: np.abs copies and wraps at -2**63
        bound *= max(int(a.max(initial=0)), -int(a.min(initial=0))) ** k
    if bound >= _INT64_SAFE:
        big = np.ones(size, dtype=object)
        for a, k in factors:
            big *= a.astype(object) ** k
        return int(big.sum())
    prod = np.ones(size, dtype=np.int64)
    for a, k in factors:
        for _ in range(k):
            # an int64 loop casts a in chunks: no widened copy, no uint64 -> float64
            np.multiply(prod, a, out=prod, dtype=np.int64, casting="unsafe")
    return _block_sum(prod, bound)


def _block_sum(prod: np.ndarray, bound: int) -> int:
    """Exact sum of int64 values whose magnitude is at most bound < 2**62."""
    # each block sum is at most block * bound <= 2**62
    starts = np.arange(0, prod.size, _INT64_SAFE // max(bound, 1))
    return int(np.add.reduceat(prod, starts).astype(object).sum())


def exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of elementwise products of two integer arrays."""
    return _exact_sum([(a, 1), (b, 1)])


def exact_power_sum(arr: np.ndarray, k: int) -> int:
    """Exact sum of arr**k for non-negative integer k."""
    return _exact_sum([(arr, k)])


def exact_product_moment(a: np.ndarray, b: np.ndarray, p: int, q: int) -> int:
    """Exact sum of a**p * b**q over paired integer arrays, with 0**0 == 1."""
    return _exact_sum([(a, p), (b, q)])
