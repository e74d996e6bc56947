import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import degcorr
from degcorr import _kernels


def brute_inversions(vals):
    n = len(vals)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if vals[i] > vals[j]
    )


@given(st.lists(st.integers(-20, 20), min_size=0, max_size=120))
def test_count_matches_brute_force(vals):
    assert _kernels.count_strict_inversions(vals) == brute_inversions(vals)
    assert _kernels.count_strict_inversions(np.array(vals, dtype=np.int64)) == brute_inversions(vals)


def test_large_input_matches_numpy_count():
    rng = np.random.default_rng(3)
    vals = rng.integers(-1000, 1000, 2500)
    # pairs i < j with vals[i] > vals[j], from the full comparison matrix
    expected = int(np.triu(vals[:, None] > vals[None, :], k=1).sum())
    assert _kernels.count_strict_inversions(vals) == expected


def test_random_int64_matches_numpy_count():
    rng = np.random.default_rng(11)
    vals = rng.integers(-(2**63), 2**63 - 1, 10_000, endpoint=True)
    # the full comparison matrix, 1000 rows at a time: pairs i < j with vals[i] > vals[j]
    cols = np.arange(vals.size)
    expected = sum(
        int(((vals[i : i + 1000, None] > vals) & (cols > cols[i : i + 1000, None])).sum())
        for i in range(0, vals.size, 1000)
    )
    assert _kernels.count_strict_inversions(vals) == expected


def test_int64_extremes():
    lo, hi = -(2**63), 2**63 - 1
    assert _kernels.count_strict_inversions([hi, lo]) == 1
    assert _kernels.count_strict_inversions([lo, hi, lo, 0, hi]) == 2
    assert _kernels.count_strict_inversions(np.array([hi, hi, 0, lo, lo], dtype=np.int64)) == 8


def test_ties_never_counted():
    assert _kernels.count_strict_inversions(np.array([3, 3, 3, 3])) == 0


def test_reversed_sequence_counts_all_pairs():
    n = 500
    vals = np.arange(n)[::-1].copy()
    assert _kernels.count_strict_inversions(vals) == n * (n - 1) // 2


def test_backend_is_pure_python():
    assert degcorr.kernel_backend == _kernels.BACKEND == "python"
