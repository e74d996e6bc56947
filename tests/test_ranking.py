import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from degcorr.ranking import average_ranks, average_ranks_doubled, permutation_ranks, rank_with_ties


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
    """A uniform_random rng whose draws repeat, so the tiebreak has ties."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, m):
        assert m == self.draws.size
        return self.draws.copy()


def test_tied_draws_take_the_lexsort(monkeypatch):
    # 0.5 repeats inside the tie group of 3s, 0.25 across the groups of 1
    # and 2; an unstable sort of the draws may swap either pair
    values = np.array([3, 1, 3, 2, 3, 1, 2, 3, 1, 3] * 4)
    draws = np.array([0.5, 0.25, 0.5, 0.25, 0.75, 0.125, 0.625, 0.5, 0.875, 0.375] * 4)
    lexsort = np.lexsort
    calls = []

    def spy(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    got = permutation_ranks(values, "uniform_random", RepeatedDraws(draws))
    assert calls == [2]
    monkeypatch.undo()
    assert got.tolist() == lexsort_ranks(values, draws).tolist()
    # distinct draws never reach the lexsort
    monkeypatch.setattr(np, "lexsort", spy)
    permutation_ranks(values, "uniform_random", RepeatedDraws(np.arange(values.size) / values.size))
    assert calls == [2]


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
