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
from ._exact import exact_power_sum
from .generators import PowerLawSpec, _as_rng, _pareto_floor
from .graph import ALL_TYPES, MAX_EDGES, DirectedGraph, _sorted_edge_keys, degrees


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
    pairs = np.asarray(degree_pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("degree_pairs must have shape (n, 2)")
    out, inn = pairs[:, 0], pairs[:, 1]
    # exact sums: degrees clipped at 2**62 can wrap an int64 total
    stubs, in_stubs = exact_power_sum(out, 1), exact_power_sum(inn, 1)
    if stubs != in_stubs:
        raise UnbalancedStubsError(f"sum(out)={stubs} != sum(in)={in_stubs}")
    if stubs > MAX_EDGES:
        raise ValueError(f"{stubs} stubs exceed the budget of {MAX_EDGES}")
    rng = _as_rng(seed_or_rng)
    n = pairs.shape[0]
    src = np.repeat(np.arange(n, dtype=np.int64), out)
    tgt = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), inn))

    keep = src != tgt
    loops = stubs - int(np.count_nonzero(keep))
    # drop the stub arrays before the sort; n * n < 2**63 for any n in memory
    src, tgt = src[keep], tgt[keep]
    key = _sorted_edge_keys(n, src, tgt)
    key = key[np.diff(key, prepend=-1) != 0]
    graph = DirectedGraph(n, key // n, key % n)
    report = RewireReport(stubs, loops, stubs - loops - key.size, graph.edge_count)
    return graph, report


def balance_iid_sequence(
    pairs: np.ndarray,
    spec_out: PowerLawSpec,
    spec_in: PowerLawSpec,
    seed: int,
    max_attempts: int = 100_000,
) -> tuple[np.ndarray, int]:
    """Resample a full i.i.d. (out, in) sequence until the sums match.

    Returns (balanced_pairs, resample_count). The initial sequence counts as
    attempt zero and is returned unchanged when already balanced. Attempt k
    takes the k-th n draws of each of the two streams spawned from seed.

    Attempts are drawn a block of rows at a time into two reused float64
    buffers of at most 2**16 elements each (one row when n is larger), so the
    block stays in cache; row r of a block is one attempt. Row sums are taken
    in float64: all terms are non-negative integers, so a sum below 2**53 is
    exact, and a row is a candidate when its two sums are equal. When either
    sum reaches 2**53, the row is a candidate when its two int64 sums agree
    modulo 2**64 instead. Every candidate is confirmed with exact integer
    sums before it is returned.

    Raises BalanceFailedError when the budget runs out; the match
    probability per attempt is small but positive for non-degenerate specs,
    so the budget is a configuration knob rather than a correctness
    parameter.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    pairs = np.asarray(pairs, dtype=np.int64)
    if exact_power_sum(pairs[:, 0], 1) == exact_power_sum(pairs[:, 1], 1):
        return pairs, 0
    n = pairs.shape[0]
    out_rng, in_rng = (
        np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(2)
    )
    rows = max(1, min(max_attempts, 2**16 // n))
    out_block, in_block = np.empty((rows, n)), np.empty((rows, n))
    attempts = 0
    while attempts < max_attempts:
        take = min(rows, max_attempts - attempts)
        outs = _pareto_floor(spec_out, out_rng, out_block[:take])
        inns = _pareto_floor(spec_in, in_rng, in_block[:take])
        out_sums, in_sums = outs.sum(axis=1), inns.sum(axis=1)
        candidates = out_sums == in_sums
        # past 2**53 the float sums may round; exact sums that agree also
        # agree modulo 2**64, as int64 sums
        big = np.maximum(out_sums, in_sums) >= 2.0**53
        if big.any():
            candidates[big] = (
                outs[big].astype(np.int64).sum(axis=1) == inns[big].astype(np.int64).sum(axis=1)
            )
        for i in np.flatnonzero(candidates).tolist():
            out, inn = outs[i].astype(np.int64), inns[i].astype(np.int64)
            if exact_power_sum(out, 1) == exact_power_sum(inn, 1):
                return np.column_stack([out, inn]), attempts + i + 1
        attempts += take
    raise BalanceFailedError(attempts)


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
    measures._check_repetitions("repetitions", repetitions, 2)
    measures._check_repetitions("rho_inner", rho_inner, 1)
    if g.edge_count == 0:
        raise EmptyGraphError("cannot randomize an empty graph")
    d = degrees(g)
    pairs = np.column_stack([d.out_degree, d.in_degree])

    samples: dict[tuple[str, str], list[float]] = {
        (t.wire_name, m): [] for t in ALL_TYPES for m in measures.MEASURES
    }
    for rep_ss in np.random.SeedSequence(seed).spawn(repetitions):
        ecm_ss, rho_ss = rep_ss.spawn(2)
        drawn, _ = erased_configuration_model(pairs, np.random.default_rng(ecm_ss))
        drawn_degrees = degrees(drawn)
        for t in ALL_TYPES:
            row = measures.row_values(drawn, t, measures.MEASURES, rho_ss, rho_inner, drawn_degrees)
            for name, (value, _) in zip(measures.MEASURES, row):
                if value is not None:
                    samples[(t.wire_name, name)].append(value)

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

