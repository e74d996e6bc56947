"""Erased directed configuration model and the randomized-baseline study.

Stub matching is a single uniform shuffle of the in-stub multiset zipped
against out-stubs in canonical node order, which is equivalent to drawing
the perfect matching uniformly. Erasure removes self-loops first, then
collapses parallel edges; the resulting graph is always simple.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import measures
from .errors import BalanceFailedError, EmptyGraphError, UnbalancedStubsError
from ._exact import _exact_sum, exact_power_sum
from .generators import PowerLawSpec, _floor_cut, _pareto_transform
from .graph import ALL_TYPES, MAX_EDGES, DirectedGraph, _as_int64, _count, _sorted_edge_keys, degrees


@dataclass(frozen=True)
class RewireReport:
    """Erasure accounting for one configuration-model draw."""

    edges_before: int
    self_loops_removed: int
    multi_edges_collapsed: int
    edges_after: int

    def __post_init__(self):
        expected = self.edges_before - self.self_loops_removed - self.multi_edges_collapsed
        if self.edges_after != expected:
            raise ValueError("inconsistent rewire report")


@dataclass(frozen=True)
class CellStats:
    """Randomized baseline for one (dependency type, measure) cell."""

    mean: float | None
    sigma: float | None
    repetitions: int
    defined: int


@dataclass(frozen=True)
class RandomizationSummary:
    """Mean and sample sigma per (type, measure) over reconfigurations."""

    repetitions: int
    cells: dict[tuple[str, str], CellStats] = field(repr=False)

    def cell(self, type_wire: str, measure: str) -> CellStats:
        return self.cells[(type_wire, measure)]


def erased_configuration_model(
    degree_pairs: np.ndarray, seed_or_rng
) -> tuple[DirectedGraph, RewireReport]:
    """Uniform stub matching followed by erasure to a simple graph.

    degree_pairs is an (n, 2) array of prescribed (out, in) degrees with
    equal column sums. Node degrees in the output never exceed the
    prescription; they fall short exactly by the erased edges.
    """
    pairs = _as_int64(degree_pairs, columns=2)
    out, inn = pairs[:, 0], pairs[:, 1]
    # exact sums: degrees clipped at 2**62 can wrap an int64 total
    stubs, in_stubs = exact_power_sum(out, 1), exact_power_sum(inn, 1)
    if stubs != in_stubs:
        raise UnbalancedStubsError(f"sum(out)={stubs} != sum(in)={in_stubs}")
    if stubs > MAX_EDGES:
        raise ValueError(f"{stubs} stubs exceed the budget of {MAX_EDGES}")
    rng = np.random.default_rng(seed_or_rng)
    n = pairs.shape[0]
    src = np.repeat(np.arange(n, dtype=np.int64), out)
    tgt = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), inn))

    keep = src != tgt
    loops = stubs - int(np.count_nonzero(keep))
    # drop the stub arrays before the sort; n * n < 2**63 for any n in memory
    src, tgt = src[keep], tgt[keep]
    key = _sorted_edge_keys(n, src, tgt)
    # the graph copies the endpoints it is given, so every other array goes first
    del src, tgt, keep
    key = key[np.diff(key, prepend=-1) != 0]
    src, tgt = np.divmod(key, n)
    del key
    graph = DirectedGraph(n, src, tgt)
    return graph, RewireReport(stubs, loops, stubs - loops - graph.edge_count, graph.edge_count)


def _exact_row_sum(row: np.ndarray) -> int:
    """Exact sum of a float64 row of integers below 2**63, converted 4096 at
    a time: a worker thread that converts a whole row grows its own malloc
    arena by the row's size."""
    return sum(
        _exact_sum([(row[j : j + 4096].astype(np.int64), 1)]) for j in range(0, row.size, 4096)
    )


def _floor_row_sums(spec: PowerLawSpec, block: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Int64 row sums, modulo 2**64, of the draws a C-contiguous block of uniforms maps to; the block is kept.
    tail is float64 scratch of block.size elements; the mask shares it, read before tail is written."""
    n, low = block.shape[1], spec.x_min  # a draw below the cut maps to x_min
    mask = np.greater_equal(block, _floor_cut(spec), out=tail.view(bool)[: block.size].reshape(block.shape))
    mask[:, 0] = True  # each row keeps a mapped draw: reduceat does not sum an empty row to 0
    idx = np.flatnonzero(mask)
    mapped = _pareto_transform(spec, np.take(block, idx, out=tail[: idx.size], mode="clip"))  # "raise" copies out first
    bounds = np.searchsorted(idx, np.arange(0, block.size + 1, n))  # each row's first mapped draw, and the end
    starts = bounds[:-1]
    floored = (n - (bounds[1:] - starts)) * low
    sums = np.add.reduceat(mapped, starts) + floored
    if sums.max() < 2.0**53:
        return sums.astype(np.int64)
    return np.add.reduceat(mapped.astype(np.int64), starts) + floored  # a float sum past 2**53 may round


def balance_iid_sequence(
    pairs: np.ndarray,
    spec_out: PowerLawSpec,
    spec_in: PowerLawSpec,
    seed: int,
    max_attempts: int = 100_000,
    *,
    _workers: int | None = None,
) -> tuple[np.ndarray, int]:
    """Resample a full i.i.d. (out, in) sequence until the sums match.

    Returns (balanced_pairs, resample_count). The initial sequence counts as
    attempt zero and is returned unchanged when already balanced. Attempt k
    takes the k-th n draws of each of the two streams spawned from seed.

    Attempts are drawn a block of rows at a time into two reused float64
    buffers of at most 2**16 elements each (one row when n is larger), so the
    block stays in cache; row r of a block is one attempt, one uniform per
    element in C order. A uniform below _floor_cut maps to x_min with a
    margin of 1e-9 in X, far above rounding, so only those at or above it
    (18% at gamma = 2.5, x_min = 1) and each row's first are mapped: a row
    sums in float64 to x_min times its unmapped draws plus its mapped draws.
    These are non-negative integers, so a sum below 2**53 is exact in any
    order; when a sum of the block reaches 2**53, the block's rows are
    summed again from the same mapped draws as int64, modulo 2**64, in any
    order too. A row is a candidate when its two sums are equal; only
    candidates are mapped in full, in place, and confirmed with exact
    integer sums.

    Blocks are shared out in turn between up to two threads, one per core
    the process may use; each thread jumps its own copies of the streams
    past the other's blocks with PCG64.advance (one 64-bit output per
    double). The lowest balanced attempt wins, so the pair and the count do
    not depend on the number of threads.

    Raises BalanceFailedError when the budget runs out; the match
    probability per attempt is small but positive for non-degenerate specs,
    so the budget is a configuration knob rather than a correctness
    parameter.
    """
    max_attempts = _count(max_attempts, "max_attempts", 1)
    pairs = _as_int64(pairs, columns=2)
    if exact_power_sum(pairs[:, 0], 1) == exact_power_sum(pairs[:, 1], 1):
        return pairs, 0
    n = pairs.shape[0]
    rows = max(1, min(max_attempts, 2**16 // n))
    workers = min(_workers or measures._core_count(), -(-max_attempts // rows))
    seeds = np.random.SeedSequence(seed).spawn(2)
    # the calling thread allocates every block and gather buffer: a thread
    # that allocates its own gets its own malloc arena, which raised the peak
    # RSS of `generate iid-cm --n 100000` by ~12%
    blocks = [(np.empty((rows, n)), np.empty((rows, n)), np.empty(rows * n)) for _ in range(workers)]
    # worker w writes only hits[w], its balanced attempt index; a stale read
    # of min(hits) costs one more block, never a different result
    hits = [max_attempts] * workers

    def work(w: int, failures: list[BaseException]) -> None:
        # calls no public function: perfbench traces those on one span stack
        bits = [np.random.PCG64(ss) for ss in seeds]
        for b in bits:
            b.advance(w * rows * n)
        out_rng, in_rng = (np.random.Generator(b) for b in bits)
        out_block, in_block, tail = blocks[w]
        for start in range(w * rows, max_attempts, workers * rows):
            if start >= min(hits) or failures:
                return
            take = min(rows, max_attempts - start)
            out_sums = _floor_row_sums(spec_out, out_rng.random(out=out_block[:take]), tail)
            in_sums = _floor_row_sums(spec_in, in_rng.random(out=in_block[:take]), tail)
            for i in np.flatnonzero(out_sums == in_sums).tolist():
                out_row, in_row = _pareto_transform(spec_out, out_block[i]), _pareto_transform(spec_in, in_block[i])
                if _exact_row_sum(out_row) == _exact_row_sum(in_row):
                    hits[w] = start + i
                    return
            for b in bits:
                b.advance((workers - 1) * rows * n)

    # a failure stops the other workers at their next block
    measures._in_parallel(work, workers)
    hit = min(hits)
    if hit == max_attempts:
        raise BalanceFailedError(max_attempts)
    # the winner stopped at once, so its block still holds the balanced row
    out_block, in_block, _ = blocks[hits.index(hit)]
    i = hit % rows
    return np.column_stack([out_block[i].astype(np.int64), in_block[i].astype(np.int64)]), hit + 1


def randomization_study(
    g: DirectedGraph,
    repetitions: int,
    seed: int,
    rho_inner: int = 3,
) -> RandomizationSummary:
    """Reconfigure a graph's degree sequence repeatedly and measure each draw.

    Per repetition: redraw an erased configuration model on g's degree pairs
    and evaluate all four dependency types under all four measures, with
    spearman_uniform averaged over rho_inner tie-break instances. Cells that
    come out undefined (zero variance on a draw) are excluded from that
    cell's mean and counted in `defined`.
    """
    repetitions = _count(repetitions, "repetitions", 2, measures.MAX_REPETITIONS, "repetition budget")
    rho_inner = _count(rho_inner, "rho_inner", 1, measures.MAX_REPETITIONS, "repetition budget")
    if g.edge_count == 0:
        raise EmptyGraphError("cannot randomize an empty graph")
    d = degrees(g)
    pairs = np.column_stack([d.out_degree, d.in_degree])
    del d

    samples: dict[tuple[str, str], list[float]] = {
        (t.wire_name, m): [] for t in ALL_TYPES for m in measures.MEASURES
    }
    for rep_ss in np.random.SeedSequence(seed).spawn(repetitions):
        ecm_ss, rho_ss = rep_ss.spawn(2)
        drawn, _ = erased_configuration_model(pairs, np.random.default_rng(ecm_ss))
        rows = measures.row_values(drawn, ALL_TYPES, measures.MEASURES, [rho_ss] * len(ALL_TYPES), rho_inner)
        for t, row in zip(ALL_TYPES, rows):
            for name, (value, _) in zip(measures.MEASURES, row):
                if value is not None:
                    samples[(t.wire_name, name)].append(value)
        del drawn, rows  # before the next draw

    cells = {}
    for key, vals in samples.items():
        k = len(vals)
        if k == 0:
            cells[key] = CellStats(None, None, repetitions, 0)
        else:
            arr = np.asarray(vals)
            # sample sigma needs two defined draws
            sigma = float(arr.std(ddof=1)) if k >= 2 else None
            cells[key] = CellStats(float(arr.mean()), sigma, repetitions, k)
    return RandomizationSummary(repetitions, cells)

