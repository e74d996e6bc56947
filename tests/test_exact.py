"""The exact reductions against sums of Python ints.

Every case runs all three public reductions. The oracles convert to Python
ints element by element, so they cannot overflow.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from degcorr._exact import exact_dot, exact_power_sum, exact_product_moment


def oracle(a, b, p, q):
    return sum(int(x) ** p * int(y) ** q for x, y in zip(a.tolist(), b.tolist()))


def check_all(a, b, p, q):
    assert exact_product_moment(a, b, p, q) == oracle(a, b, p, q)
    assert exact_power_sum(a, p) == oracle(a, a, p, 0)
    assert exact_power_sum(b, q) == oracle(b, b, q, 0)
    assert exact_dot(a, b) == oracle(a, b, 1, 1)


def arr(values):
    return np.array(values, dtype=np.int64)


def test_empty():
    e = arr([])
    for p, q in [(0, 0), (1, 0), (2, 3)]:
        check_all(e, e, p, q)
    assert exact_product_moment(e, e, 0, 0) == 0


def test_all_zero():
    z = arr([0] * 7)
    check_all(z, z, 2, 1)
    # 0**0 == 1
    assert exact_power_sum(z, 0) == 7
    assert exact_product_moment(z, z, 0, 0) == 7
    assert exact_product_moment(z, z, 0, 3) == 0


def test_zero_exponents():
    a, b = arr([3, -5, 0, 11]), arr([2, 2, 9, -4])
    for p, q in [(0, 0), (0, 2), (3, 0)]:
        check_all(a, b, p, q)
    assert exact_power_sum(a, 0) == 4


def test_total_crosses_int64_over_several_blocks():
    # each product is 2**60, below 2**62, but 40 of them sum to 40 * 2**60:
    # the int64 blocks hold at most 4 products each
    a = arr([2**30] * 40)
    check_all(a, a, 1, 1)
    assert exact_dot(a, a) == 40 * 2**60
    assert exact_power_sum(a, 2) == 40 * 2**60


def test_negative_products_over_several_blocks():
    a = arr([2**30, -(2**30)] * 20 + [2**30])
    b = arr([2**30] * 41)
    check_all(a, b, 1, 1)
    assert exact_dot(a, b) == 2**60


def test_single_product_past_int64():
    a = arr([2**40, 3, 1])
    b = arr([2**30, 5, 7])
    check_all(a, b, 2, 1)
    assert exact_power_sum(a, 3) == 2**120 + 27 + 1
    assert exact_product_moment(a, b, 1, 1) == 2**70 + 15 + 7


def test_clipped_samples():
    big = arr([2**62, 2**62, 1])
    check_all(big, big, 1, 0)
    assert exact_power_sum(big, 1) == 2**63 + 1
    # 3 * 2**62 is one product past int64 that a wider threshold would wrap
    check_all(arr([2**62, 5]), arr([3, 1]), 1, 1)
    assert exact_dot(arr([2**62, 5]), arr([3, 1])) == 3 * 2**62 + 5


@given(
    st.lists(st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 2**62)), max_size=40),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_matches_python_ints(pairs, p, q):
    a = arr([x for x, _ in pairs])
    b = arr([y for _, y in pairs])
    check_all(a, b, p, q)


@pytest.mark.parametrize("scale", [1, 2**20, 2**31])
def test_large_array_matches_oracle(scale):
    rng = np.random.default_rng(scale)
    a = rng.integers(0, 1000, 5000) * scale
    b = rng.integers(0, 1000, 5000)
    check_all(a, b, 2, 1)


DTYPES = [np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@given(st.sampled_from(DTYPES), st.sampled_from(DTYPES), st.data())
def test_every_integer_dtype_matches_python_ints(da, db, data):
    # the dtype's extremes included: an unsigned 64-bit factor must neither
    # wrap nor promote the products to float64
    def values(dtype):
        info = np.iinfo(dtype)
        elements = st.one_of(st.sampled_from([info.min, info.max, 0, 1]), st.integers(info.min, info.max))
        return data.draw(st.lists(elements, min_size=size, max_size=size))

    size = data.draw(st.integers(0, 30))
    a, b = np.array(values(da), dtype=da), np.array(values(db), dtype=db)
    assert exact_dot(a, b) == oracle(a, b, 1, 1)
    for k in range(4):
        assert exact_power_sum(a, k) == oracle(a, a, k, 0)


def test_int64_minimum_is_no_small_factor():
    # |-2**63| wraps to -2**63 in int64, which once made the bound negative
    # and this product wrap to -2**63
    low = arr([-(2**63)])
    assert exact_dot(low, arr([-1])) == 2**63
    check_all(low, arr([-1]), 1, 1)


def test_int32_factors_are_not_widened_whole():
    # the int64 product array is the one series-sized allocation; a widened
    # copy of either int32 factor would add another 8 bytes per value
    m = 2**20
    a = np.arange(m, dtype=np.int32)
    b = a[::-1].copy()
    tracemalloc.start()
    try:
        got = exact_dot(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == oracle(a, b, 1, 1)
    assert 8 * m <= peak < 8 * m + m
