import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import degcorr as dc
from degcorr import ranking
from degcorr.measures import concordance_counts
from degcorr.ranking import (
    _codes_and_counts,
    _key_bits,
    _packed_order,
    _rank_buffers,
    average_ranks,
    average_ranks_doubled,
    permutation_ranks,
    rank_with_ties,
)

from helpers import brute_concordance


def test_average_ranks_worked_example():
    # (1, 2, 1, 3, 3): the tied 3s share (1+2)/2, the tied 1s share (4+5)/2
    got = rank_with_ties([1, 2, 1, 3, 3], "average")
    assert got.tolist() == [4.5, 3.0, 4.5, 1.5, 1.5]


def test_distinct_values_policy_independent():
    vals = [10, 3, 7, 1]
    expected = [1.0, 3.0, 2.0, 4.0]
    for policy in ("average", "by_index", "by_reverse_index"):
        assert rank_with_ties(vals, policy).tolist() == expected
    assert rank_with_ties(vals, "uniform_random", seed=5).tolist() == expected


def test_uniform_same_seed_same_ranking():
    vals = [2, 2, 2, 1, 1, 3]
    a = rank_with_ties(vals, "uniform_random", seed=99)
    b = rank_with_ties(vals, "uniform_random", seed=99)
    assert a.tolist() == b.tolist()


def test_uniform_pair_frequencies():
    # (5, 5): both orders should appear about half the time over seeds
    hits = 0
    trials = 10_000
    for seed in range(trials):
        r = rank_with_ties([5, 5], "uniform_random", seed=seed)
        if r.tolist() == [1.0, 2.0]:
            hits += 1
    freq = hits / trials
    # 3 sigma for a fair coin over 10^4 trials is 0.015
    assert abs(freq - 0.5) < 0.015


def test_uniform_requires_seed():
    with pytest.raises(ValueError):
        rank_with_ties([1, 2], "uniform_random")


def test_empty_rejected():
    with pytest.raises(ValueError):
        rank_with_ties([], "average")


@pytest.mark.parametrize("policy", ["average", "by_index", "by_reverse_index", "uniform_random"])
@pytest.mark.parametrize("values", [np.array([[1, 2], [3, 4]]), np.array(5)], ids=["2-d", "0-d"])
def test_only_one_dimensional_series_ranked(policy, values):
    with pytest.raises(ValueError, match="1-d sequence"):
        rank_with_ties(values, policy, seed=0)
    if policy != "average":
        with pytest.raises(ValueError, match="1-d sequence"):
            permutation_ranks(values, policy, np.random.default_rng(0))


def test_descending_convention():
    assert rank_with_ties([5, 1], "average").tolist() == [1.0, 2.0]


def test_by_index_vs_reverse_on_tie_block():
    # tied values: by_index keeps sequence order in the ascending sort,
    # so after reflection the later entry holds the smaller rank number
    assert permutation_ranks(np.array([7, 7]), "by_index").tolist() == [2, 1]
    assert permutation_ranks(np.array([7, 7]), "by_reverse_index").tolist() == [1, 2]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=50))
def test_rank_sum_preserved(vals):
    n = len(vals)
    total = n * (n + 1) / 2
    assert float(np.sum(average_ranks(np.array(vals)))) == total
    for policy in ("by_index", "by_reverse_index"):
        assert int(np.sum(permutation_ranks(np.array(vals), policy))) == total


@given(st.lists(st.integers(0, 6), min_size=1, max_size=50), st.integers(0, 2**32))
def test_permutation_policies_yield_permutations(vals, seed):
    arr = np.array(vals)
    rng = np.random.default_rng(seed)
    for ranks in (
        permutation_ranks(arr, "by_index"),
        permutation_ranks(arr, "by_reverse_index"),
        permutation_ranks(arr, "uniform_random", rng),
    ):
        assert sorted(ranks.tolist()) == list(range(1, len(vals) + 1))
        # larger values always outrank smaller ones, ties aside
        for i in range(len(vals)):
            for j in range(len(vals)):
                if vals[i] > vals[j]:
                    assert ranks[i] < ranks[j]


@given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
def test_doubled_ranks_match_definition(vals):
    doubled = average_ranks_doubled(np.array(vals))
    for i, v in enumerate(vals):
        greater = sum(1 for u in vals if u > v)
        ties = sum(1 for u in vals if u == v)
        assert doubled[i] == 2 * greater + ties + 1


def lexsort_ranks(values, tiebreak):
    """Reference: descending ranks from one lexsort by (value, tiebreak)."""
    m = len(values)
    asc = np.empty(m, dtype=np.int64)
    asc[np.lexsort((tiebreak, values))] = np.arange(1, m + 1)
    return m + 1 - asc


class RepeatedDraws:
    """A uniform_random rng whose draws repeat, so the tiebreak has ties.

    Each call fills the next slice of draws; it is its own bit_generator,
    whose state is the position in draws, so the run fix-up redraws from a
    saved state as it does on any generator that cannot jump."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)
        self.bit_generator = self
        self.state = 0

    def random(self, out):
        assert self.state + out.size <= self.draws.size
        out[:] = self.draws[self.state : self.state + out.size]
        self.state += out.size
        return out


def spy_runs(monkeypatch):
    """Record the pairs handed to ranking._reorder_runs."""
    reorder = ranking._reorder_runs
    calls = []

    def spy(keys, pairs, *args):
        calls.append(pairs.tolist())
        return reorder(keys, pairs, *args)

    monkeypatch.setattr(ranking, "_reorder_runs", spy)
    return calls


def test_tied_draws_take_the_lexsort(monkeypatch):
    # 0.5 repeats inside the tie group of 3s, 0.25 across the groups of 1
    # and 2; the equal draws of one value share a key prefix, and the
    # fix-up orders them (4000 values leave 50 draw bits, so it runs)
    values = np.array([3, 1, 3, 2, 3, 1, 2, 3, 1, 3] * 400)
    draws = np.array([0.5, 0.25, 0.5, 0.25, 0.75, 0.125, 0.625, 0.5, 0.875, 0.375] * 400)
    calls = spy_runs(monkeypatch)
    got = permutation_ranks(values, "uniform_random", RepeatedDraws(draws))
    assert len(calls) == 1
    assert got.tolist() == lexsort_ranks(values, draws).tolist()
    # distinct draws need no fix-up
    permutation_ranks(values, "uniform_random", RepeatedDraws(np.arange(values.size) / values.size))
    assert len(calls) == 1


@pytest.mark.parametrize("tied_at", [1, 4095, 4096, 4097, 8192, 9999])
def test_tie_anywhere_in_the_sorted_draws_takes_the_lexsort(monkeypatch, tied_at):
    # with one value the sorted keys follow the draws; the keys are built
    # and their neighbours compared 4096 at a time here, and the one tie, at
    # sorted positions tied_at - 1 and tied_at, is found across every chunk
    # boundary
    rng = np.random.default_rng(8)
    values = np.full(10_000, 7, dtype=np.int16)
    draws = rng.permutation(10_000) / 10_000
    draws[draws == tied_at / 10_000] = (tied_at - 1) / 10_000
    calls = spy_runs(monkeypatch)
    buffers = _rank_buffers(values.size)[:2] + (np.empty(4096, np.uint64), np.arange(4096, dtype=np.uint64))
    got = _packed_order(values, RepeatedDraws(draws), buffers)
    assert calls == [[tied_at - 1]]
    assert got.tolist() == np.lexsort((draws, values)).tolist()


@pytest.mark.parametrize("m", [2**14 - 1, 2**14, 2**14 + 1, 2 * 2**14 + 1])
@pytest.mark.parametrize("draw_bits", [3, 8])
def test_chunked_draws_take_the_lexsort_of_one_draw(m, draw_bits):
    # 5 codes and 3 or 8 draw bits: runs of a shared (code, draw prefix)
    # gather members from every 2^14-value chunk of the stream, which the
    # fix-up draws again; the generator ends where one random(m) leaves it
    codes = np.random.default_rng(m).integers(0, 5, m).astype(np.int16)
    whole = np.random.default_rng(draw_bits)
    draws = whole.random(m)
    rng = np.random.default_rng(draw_bits)
    order = _packed_order(codes, rng, _rank_buffers(m), draw_bits=draw_bits)
    assert order.tolist() == np.lexsort((draws, codes)).tolist()
    assert rng.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("tied_chunk", [0, 1, 2])
def test_fix_up_reads_the_chunk_of_its_run(monkeypatch, bit_generator, tied_chunk):
    # every code its own but 40 zeros in one chunk of the stream, whose draws
    # share 8 prefixes: only that chunk holds runs. A PCG64 jumps to it, any
    # other generator draws the chunks before it again
    m, size = 3 * 2**14, 2**14
    codes = np.arange(1, m + 1)
    codes[tied_chunk * size + 100 : tied_chunk * size + 140] = 0
    whole = np.random.Generator(bit_generator(5))
    draws = whole.random(m)
    rng = np.random.Generator(bit_generator(5))
    calls = spy_runs(monkeypatch)
    order = _packed_order(codes, rng, _rank_buffers(m), draw_bits=3)
    assert len(calls) == 1
    assert order.tolist() == np.lexsort((draws, codes)).tolist()
    assert rng.random(4).tolist() == whole.random(4).tolist()


def draw_ranks(codes, draws, draw_bits=53):
    """Descending ranks from _packed_order of codes and draws, in fresh buffers."""
    order = _packed_order(codes, RepeatedDraws(draws), _rank_buffers(codes.size), draw_bits=draw_bits)
    ranks = np.empty(codes.size, np.int64)
    ranks[order] = np.arange(codes.size, 0, -1)
    return ranks


def test_permutation_ranks_stay_int64():
    values = np.array([3, 1, 3, 2], dtype=np.int16)
    for policy in ("by_index", "by_reverse_index", "uniform_random"):
        assert permutation_ranks(values, policy, np.random.default_rng(0)).dtype == np.int64
    # spearman_uniform's order is an int64 view of the keys, with no copy
    draws = np.random.default_rng(1).random(5000)
    codes = np.random.default_rng(2).integers(0, 9, 5000).astype(np.int16)
    buffers = _rank_buffers(codes.size)
    order = _packed_order(codes, RepeatedDraws(draws), buffers)
    assert order.dtype == np.int64 and order.base is buffers[1]
    assert order.tolist() == np.lexsort((draws, codes)).tolist()


def test_by_index_allocates_no_draws_or_keys():
    # codes (2 B), the stable sort's order, the descending ranks it
    # scatters and the result (8 B each): 24.8 MiB at 10^6 values, with no
    # float64 draws or uint64 keys
    values = np.random.default_rng(0).integers(0, 1000, 10**6)
    tracemalloc.start()
    try:
        ranks = permutation_ranks(values, "by_index")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * 2**20
    assert ranks.tolist() == lexsort_ranks(values, np.arange(values.size)).tolist()


def tie_draws(kind, m, rng):
    """m random() values, k / 2**53, of one kind: plain draws, draws on a
    grid of 1/64 (exact ties), draws k / 2**53 and (k + 1) / 2**53 around
    eight ks (they differ only below any truncated prefix), or half zeros."""
    if kind == "grid":
        return np.floor(rng.random(m) * 64) / 64
    if kind == "adjacent":
        ks = rng.integers(0, 2**53 - 1, 8)
        return (ks[rng.integers(0, 8, m)] + rng.integers(0, 2, m)) / 2**53
    if kind == "zeros":
        return np.where(rng.random(m) < 0.5, 0.0, rng.random(m))
    return rng.random(m)


@given(
    st.sampled_from([1, 2, 2**14 - 1, 2**14, 2**14 + 1]),
    st.integers(0, 2**15 - 1),
    st.integers(1, 64),
    st.sampled_from(["plain", "grid", "adjacent", "zeros"]),
    st.integers(0, 2**32),
)
def test_packed_keys_rank_like_the_lexsort(m, top, levels, kind, seed):
    # k levels of codes up to top, in every policy
    rng = np.random.default_rng(seed)
    codes = np.append(rng.integers(0, top + 1, levels - 1), top).astype(np.int16)[rng.integers(0, levels, m)]
    draws = tie_draws(kind, m, rng)
    want = lexsort_ranks(codes, draws).tolist()
    assert draw_ranks(codes, draws).tolist() == want
    assert permutation_ranks(codes, "uniform_random", RepeatedDraws(draws)).tolist() == want
    for policy, tiebreak in (("by_index", np.arange(m)), ("by_reverse_index", -np.arange(m))):
        assert permutation_ranks(codes, policy).tolist() == lexsort_ranks(codes, tiebreak).tolist()


@pytest.mark.parametrize("m", [2000, 2**14, 2**14 + 1])
def test_one_prefix_run_per_code(monkeypatch, m):
    # draw_bits = ib - 11 (at least 1) and every draw below 2**-draw_bits:
    # all keys of a code share their prefix, so each code is one run
    ib = (m - 1).bit_length()
    bits = max(1, ib - 11)
    rng = np.random.default_rng(m)
    codes = rng.integers(0, 5, m).astype(np.int16)
    for draws in (np.floor(rng.random(m) * 64) / 64 / 2**bits, rng.random(m) / 2**bits):
        calls = spy_runs(monkeypatch)
        got = draw_ranks(codes, draws, bits)
        assert [len(pairs) for pairs in calls] == [m - 5]
        assert got.tolist() == lexsort_ranks(codes, draws).tolist()
        monkeypatch.undo()


def test_thousands_of_short_runs_take_the_lexsort(monkeypatch):
    # 12 draw bits over 3 * 2^14 values: over 10k runs of 2 to 6 keys that
    # share (code, draw prefix), some next to each other and some with
    # equal draws, and a longer one across sorted positions 2^14 - 2 to
    # 2^14 + 1, where the neighbour scan moves to its second 2^14 chunk
    m, db, chunk = 3 * 2**14, 12, 2**14
    rng = np.random.default_rng(17)
    lengths = rng.integers(1, 7, m)
    starts = np.cumsum(lengths) - lengths
    lengths[np.searchsorted(starts, chunk - 2, side="right") - 1] += 4
    lengths = lengths[: np.searchsorted(np.cumsum(lengths), m) + 1]
    # each run its own (code, prefix), ascending, so runs follow in sorted order
    cells = np.sort(rng.choice(8 << db, lengths.size, replace=False))
    cell = np.repeat(cells, lengths)[:m]
    low = rng.integers(0, 2 ** (53 - db), m)
    low[rng.random(m) < 0.2] = 0
    draws_sorted = ((cell % (1 << db)) * 2 ** (53 - db) + low) / 2**53
    order = rng.permutation(m)
    codes = (cell >> db).astype(np.int16)[order]
    draws = draws_sorted[order]
    # the pairs of sorted neighbours in one run, found from the construction
    want_pairs = np.flatnonzero(cell[1:] == cell[:-1])
    assert np.count_nonzero(np.bincount(cell) > 1) > 10_000 and {chunk - 2, chunk - 1, chunk} <= set(want_pairs.tolist())
    calls = spy_runs(monkeypatch)
    got = draw_ranks(codes, draws, db)
    assert calls == [want_pairs.tolist()]
    assert got.tolist() == lexsort_ranks(codes, draws).tolist()


def test_keys_without_draw_bits_take_the_lexsort(monkeypatch):
    # 52 code bits at 4096 values leave no draw bits, so the keys of each of
    # the four codes form one run, which the fix-up orders by (draw, index),
    # equal draws included
    rng = np.random.default_rng(51)
    codes = np.array([0, 2**49, 2**50, 2**51])[rng.integers(0, 4, 4096)]
    codes[:4] = [0, 2**49, 2**50, 2**51]
    assert _key_bits(codes) == (12, 0)
    draws = np.floor(rng.random(4096) * 64) / 64
    calls = spy_runs(monkeypatch)
    got = draw_ranks(codes, draws)
    assert [len(pairs) for pairs in calls] == [4096 - 4]
    assert got.tolist() == lexsort_ranks(codes, draws).tolist()


def test_codes_that_do_not_fit_a_key_are_refused():
    # 63 code bits leave no room for two index bits
    assert _key_bits(np.array([2**61, 0, 0, 0])) == (2, 0)
    with pytest.raises(ValueError, match="64-bit rank key"):
        _key_bits(np.array([2**62, 0, 0, 0]))


SPECIAL_FLOATS = [np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, -1.5]
INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
sizes = st.integers(1, 2000)
rankable = st.one_of(
    arrays(np.int64, sizes, elements=st.sampled_from(INT64_EXTREMES)),
    arrays(np.int64, sizes, elements=st.integers(-(2**63), 2**63 - 1)),
    arrays(np.int64, sizes, elements=st.integers(0, 3)),
    arrays(np.int16, sizes, elements=st.integers(0, 40)),
    arrays(np.float64, sizes, elements=st.sampled_from(SPECIAL_FLOATS)),
    arrays(np.float64, sizes, elements=st.floats(allow_nan=True, allow_infinity=True)),
)


@given(rankable, st.integers(0, 2**32))
def test_permutation_ranks_match_the_lexsort(values, seed):
    m = values.size
    tiebreaks = {
        "by_index": np.arange(m),
        "by_reverse_index": -np.arange(m),
        "uniform_random": np.random.default_rng(seed).random(m),
    }
    for policy, tiebreak in tiebreaks.items():
        got = permutation_ranks(values, policy, np.random.default_rng(seed))
        assert got.tolist() == lexsort_ranks(values, tiebreak).tolist()


def unique_doubled_ranks(values):
    """Reference: doubled average ranks from np.unique's inverse and counts."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    doubled = 2 * (values.size - np.cumsum(counts)) + counts + 1
    return doubled[inverse.reshape(-1)]


# Values no bincount of at most size + 1 bins can take: a maximum far above
# the size, a negative value, both int64 extremes, and floats, even those
# between 0 and the size.
OUTSIDE_BINCOUNT = {
    "huge": np.array([0, 2**62, 0]),
    "negative": np.array([-1, 3, 3, -1, 0]),
    "int64 extremes": np.array(INT64_EXTREMES + INT64_EXTREMES[::2]),
    "uint64 top": np.array([0, 2**64 - 1, 2**64 - 1], dtype=np.uint64),
    "special floats": np.array(SPECIAL_FLOATS * 2),
    "small floats": np.array([0.5, 1.5, 0.25, 1.0, 0.5, 3.0]),
}


@pytest.mark.parametrize("name", list(OUTSIDE_BINCOUNT))
def test_codes_outside_bincount_take_unique(name, monkeypatch):
    values = OUTSIDE_BINCOUNT[name]
    unique = np.unique
    calls = []

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return unique(*args, **kwargs)

    # a PairSeries holds int64, so the other inputs reach average_ranks_doubled only
    pairs = dc.PairSeries(values, values[::-1].copy()) if values.dtype == np.int64 else None
    monkeypatch.setattr(np, "unique", spy)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        doubled = average_ranks_doubled(values)
        counts = None if pairs is None else concordance_counts(pairs)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert elapsed < 1.0
    assert peak < 2**20
    # one fallback per side of each call
    assert calls == [values.size] * (1 if pairs is None else 3)
    assert doubled.tolist() == unique_doubled_ranks(values).tolist()
    if values.dtype.kind != "f":
        py = values.tolist()
        assert doubled.tolist() == [2 * sum(u > v for u in py) + py.count(v) + 1 for v in py]
    if pairs is not None:
        assert counts == brute_concordance(pairs.tuples())


@st.composite
def non_negative_series(draw):
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int32]))
    size = draw(st.integers(0, 80))
    # a maximum up to the size takes the bincount, a larger one np.unique
    top = draw(st.sampled_from([0, 1, 5, size, size + 1, 2**16, 2**31 - 1, 2**63 - 1]))
    if dtype is np.int32:
        top = min(top, 2**31 - 1)
    return np.array(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)), dtype=dtype)


@given(non_negative_series())
def test_codes_and_counts_match_unique(values):
    codes, counts, distinct = _codes_and_counts(values)
    ref_distinct, inverse, ref_counts = np.unique(values, return_inverse=True, return_counts=True)
    assert codes.tolist() == inverse.reshape(-1).tolist()
    assert counts.tolist() == ref_counts.tolist()
    assert distinct.tolist() == ref_distinct.tolist()
