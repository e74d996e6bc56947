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

A permutation policy orders the series by (value, tiebreak) ascending, the
order of ``np.lexsort((tiebreak, values))``: by_index and by_reverse_index
with one sort, a stable one of int16 codes or one of code * m + index for
wider codes, uniform_random with one in-place sort of a uint64 key per
value: from the high bits down, its dense code, the top db bits of its draw
(a random() draw is exactly k / 2**53, so they carry no rounding) and its
index, from which the order is read; the keys are built 2^14 draws at a
time. Neighbours whose keys differ only in the index form runs, and one
lexsort of every run's members by (run, draw, index), their draws drawn
again from the generator's state before the keys, puts them in the
lexsort's order even for equal draws. A degree series leaves db >= 21,
and such runs hold a handful of members.
"""
from __future__ import annotations

import numpy as np

from .graph import _shaped, _sorted_edge_keys

TiePolicy = str


def _codes_and_counts(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """(codes, counts, distinct) of a 1-d array: each value's index among the
    distinct values, ascending, how often each distinct value occurs, and the
    distinct values themselves.

    Codes keep the order of the values, so any rank of the codes is the same
    rank of the values. Non-negative integers no larger than the series
    length, such as one side of an edge degree series (a degree is at most
    m), are counted with one bincount of at most size + 1 bins. Their codes
    are int16 whenever at most 2^15 values are distinct, so the highest code
    is 32767 and takes at most 15 bits of a rank key. Every degree series
    qualifies: the k distinct positive degrees on one side belong to k
    distinct nodes, so k(k+1)/2 <= m and a side has at most sqrt(2m) + 1
    distinct values, fewer than 2^15 for every m <= graph.MAX_EDGES = 2^28.
    With more distinct values the codes stay intp; they rank the same.
    Anything else (negative values, floats, a maximum above the size) takes
    np.unique, so no input asks for more bins than it has elements.
    """
    if values.dtype.kind in "iu" and values.min(initial=0) >= 0 and values.max(initial=0) <= values.size:
        hist = np.bincount(values.astype(np.intp, copy=False))
        present = hist > 0
        counts = hist[present]
        code_of = (np.cumsum(present) - 1).astype(np.int16 if counts.size <= 2**15 else np.intp)
        return code_of[values], counts, np.flatnonzero(present)
    distinct, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return inverse, counts, distinct


def _doubled_ranks(counts: np.ndarray) -> np.ndarray:
    """Doubled average ranks of the distinct values that _codes_and_counts
    described, ascending: 2*rank = 2 * (values above) + count + 1."""
    return (2 * (counts.sum() - np.cumsum(counts)) + counts + 1).astype(np.int64, copy=False)


def average_ranks_doubled(values: np.ndarray) -> np.ndarray:
    """Doubled average ranks (2*rank) as exact int64.

    2*rank(v) = 2 * |{u : u > v}| + |{u : u == v}| + 1.
    """
    codes, counts, _ = _codes_and_counts(_shaped(values))
    return _doubled_ranks(counts)[codes]


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Average-tie ranks as float64 (exact, all values are halves)."""
    return average_ranks_doubled(values) / 2.0


def _key_bits(codes: np.ndarray, draw_bits: int = 53) -> tuple[int, int]:
    """(ib, db): a rank key holds code << (db + ib) | draw prefix << ib | index.

    The index takes ib = (m - 1).bit_length() bits, and db <= draw_bits draw
    bits lie between it and the code. A degree series leaves db >= 21 (codes
    below 2^15, m <= 2^28). Codes whose bits and the index's exceed 64 are
    refused.
    """
    ib = (codes.size - 1).bit_length()
    cb = int(codes.max(initial=0)).bit_length()
    db = min(draw_bits, 64 - ib - cb)
    if db < 0:
        raise ValueError(f"{codes.size} values with {cb}-bit codes do not fit a 64-bit rank key")
    return ib, db


def _rank_buffers(m: int) -> tuple[np.ndarray, ...]:
    """(draws, keys, scratch, index) for _packed_order: m uint64 keys, and a
    chunk of up to 2^14 float64 draws, uint64 values and their indices, in
    which the keys are built and their neighbours compared."""
    chunk = min(max(m, 1), 2**14)
    return np.empty(chunk), np.empty(m, np.uint64), np.empty(chunk, np.uint64), np.arange(chunk, dtype=np.uint64)


def _packed_order(codes: np.ndarray, rng: np.random.Generator, buffers: tuple, *, draw_bits: int = 53) -> np.ndarray:
    """np.lexsort((draws, codes)), draws = rng.random(m) in chunks, as an int64
    view of the keys of buffers (see _rank_buffers), all of which it overwrites;
    the key takes the top db <= draw_bits bits of each draw (see _key_bits)."""
    ib, db = _key_bits(codes, draw_bits)
    draws, keys, scratch, index = buffers
    start = rng.bit_generator.state
    for j in range(0, keys.size, scratch.size):
        part = keys[j : j + scratch.size]
        chunk = scratch[: part.size]
        # draw * 2**db = k * 2**(db - 53) exactly; the cast keeps k's top db bits
        np.multiply(rng.random(out=draws[: part.size]), 2.0**db, out=part, casting="unsafe")
        np.left_shift(part, ib, out=part)
        np.left_shift(codes[j : j + part.size], db + ib, out=chunk, dtype=np.uint64, casting="unsafe")
        np.bitwise_or(chunk, index[: part.size], out=chunk)
        np.bitwise_or(part, chunk, out=part)
        if j:
            part += j
    keys.sort()
    # Neighbours whose keys differ only in the index share (code, draw
    # prefix); with all 53 draw bits they are in order already.
    mask = (1 << ib) - 1
    pairs = []
    for j in range(0, keys.size - 1 if db < 53 else 0, scratch.size):
        gap = scratch[: keys.size - 1 - j]
        np.bitwise_xor(keys[j + 1 : j + 1 + gap.size], keys[j : j + gap.size], out=gap)
        if gap.min() <= mask:
            pairs.append(np.flatnonzero(gap <= mask) + j)
    if pairs:
        _reorder_runs(keys, np.concatenate(pairs), ib, rng, start, draws)
    np.bitwise_and(keys, mask, out=keys)
    return keys.view(np.int64)


def _reorder_runs(keys: np.ndarray, pairs: np.ndarray, ib: int, rng, start: dict, chunk: np.ndarray) -> None:
    """Sort every run of keys that share (code, draw prefix) by (draw, index)
    in one lexsort, keeping only the index bits. pairs holds, ascending, each
    p whose keys p and p + 1 share them; a run starts where p - 1 is not one
    and ends at its last p + 1. A scan finds both (np.isin would hash). Their
    draws come again from state start into chunk: a PCG64 jumps to the next
    member not drawn yet (one output per draw), any other rng draws on."""
    first = np.diff(pairs, prepend=-2) != 1
    last = np.append(np.flatnonzero(first[1:]), pairs.size - 1)
    members = np.insert(pairs, last + 1, pairs[last] + 1)
    run = np.cumsum(np.insert(first, last + 1, False))
    index = keys[members] & ((1 << ib) - 1)
    bits, by_index, draws = rng.bit_generator, np.argsort(index), np.empty(index.size)
    # int64: against a Python int, searchsorted would cast uint64 to float64 at each call
    jumps, ordered, at, i = isinstance(bits, np.random.PCG64), index[by_index].view(np.int64), 0, 0
    end, bits.state = bits.state, start
    while i < index.size:
        s = int(ordered[i]) if jumps else at
        if jumps:
            bits.advance(s - at)
        j = int(np.searchsorted(ordered, s + chunk.size))
        at = int(ordered[j - 1]) + 1 if j > i else s + chunk.size
        draws[by_index[i:j]] = rng.random(out=chunk[: at - s])[ordered[i:j] - s]
        i = j
    bits.state = end
    keys[members] = index[np.lexsort((index, draws, run))]


def permutation_ranks(
    values: np.ndarray,
    policy: TiePolicy,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Int64 ranks 1..n (a permutation) of a 1-d series, ties resolved per policy."""
    values = _shaped(values)
    if policy not in ("by_index", "by_reverse_index", "uniform_random"):
        raise ValueError(f"unknown permutation tie policy {policy!r}")
    if policy == "uniform_random" and rng is None:
        raise ValueError("uniform_random ranking needs an rng")
    # by_reverse_index ranks the reversed series by index
    step = -1 if policy == "by_reverse_index" else 1
    codes = _codes_and_counts(values[::step])[0]
    if policy == "uniform_random":
        order = _packed_order(codes, rng, _rank_buffers(values.size))
    elif codes.dtype == np.int16:
        # a radix sort on the int16 codes of every degree series
        order = np.argsort(codes, kind="stable")
    else:
        # a stable sort of wider codes is a timsort; codes < m, so code * m + index cannot wrap
        order = _sorted_edge_keys(values.size, codes, np.arange(values.size)) % values.size
    ranks = np.empty(values.size, np.int64)
    ranks[order] = np.arange(values.size, 0, -1)
    return ranks[::step]


def rank_with_ties(values, policy: TiePolicy, seed: int | None = None) -> np.ndarray:
    """Rank a 1-d sequence with the given tie policy (descending convention).

    ``uniform_random`` requires a seed and is reproducible for equal seeds.
    Average ranks come back as float64 halves; the other policies return an
    integer permutation of 1..n (as float64 for a uniform return type).
    """
    values = _shaped(values)
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
