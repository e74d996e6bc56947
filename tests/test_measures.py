import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import degcorr as dc
from degcorr import (
    DegenerateSizeError,
    EmptyGraphError,
    ZeroVarianceError,
    _kernels,
    config_model,
    graph,
    measures,
    report,
)
from degcorr.measures import (
    MAX_REPETITIONS,
    MEASURES,
    _rho_from_permutation_ranks,
    _sides,
    _spearman_uniform_seeded,
    concordance_counts,
    row_values,
    variance_gap,
)
from degcorr.ranking import _codes_and_counts, permutation_ranks
from degcorr.report import compute_report

from helpers import brute_concordance, brute_pearson, random_multigraph, vertex_pearson

IN_OUT = dc.DependencyType.IN_OUT
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_graphs():
    return [dc.load_edge_list(str(f)).graph for f in sorted(GOLDEN.glob("*.txt"))]


def lexsort_rho(p, ss):
    """spearman_uniform of p on the documented streams of ss: child 0 draws
    the source-side tiebreak, child 1 the target-side one; ranks come from
    one lexsort on the raw degrees."""

    def lexsort_ranks(values, draws):
        ranks = np.empty(values.size, dtype=np.int64)
        ranks[np.lexsort((draws, values))] = np.arange(values.size, 0, -1)
        return ranks

    m = len(p)
    src, tgt = (np.random.default_rng(c).random(m) for c in ss.spawn(2))
    s = int(lexsort_ranks(p.x, src) @ lexsort_ranks(p.y, tgt))
    return (12 * s - 3 * m * (m + 1) ** 2) / (m**3 - m)


def measure_defined(fn, *args):
    try:
        return fn(*args)
    except (ZeroVarianceError, EmptyGraphError, DegenerateSizeError):
        return None


class TestPearson:
    def test_cycle_zero_variance(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        for t in dc.ALL_TYPES:
            with pytest.raises(ZeroVarianceError):
                dc.pearson(g, t)

    def test_bridge_2_2(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        assert dc.pearson(g, IN_OUT) == pytest.approx(2 / 7, abs=1e-12)

    def test_bridge_3_6(self):
        g = dc.bridge_graph(dc.BridgeParams(3, 6))
        assert dc.pearson(g, IN_OUT) == pytest.approx(99 / math.sqrt(21321), abs=1e-12)

    def test_empty_graph(self):
        g = dc.DirectedGraph.from_edges(2, [])
        with pytest.raises(EmptyGraphError):
            dc.pearson(g, IN_OUT)

    def test_single_edge_zero_variance(self):
        g = dc.DirectedGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ZeroVarianceError):
            dc.pearson(g, IN_OUT)

    def test_vertex_and_edge_forms_agree(self, corpus):
        # the edge sums are the vertex-moment sums, so the bits agree
        for g in corpus:
            for t in dc.ALL_TYPES:
                assert measure_defined(dc.pearson, g, t) == vertex_pearson(g, t)

    def test_matches_brute_force(self, corpus):
        for g in corpus:
            for t in dc.ALL_TYPES:
                got = measure_defined(dc.pearson, g, t)
                if got is not None:
                    want = brute_pearson(dc.edge_degree_pairs(g, t).tuples())
                    assert got == pytest.approx(want, abs=1e-12)


class TestVarianceGap:
    def test_cycle_gap_zero(self):
        d = dc.degrees(dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert variance_gap(d, "out", "in") == 0
        assert variance_gap(d, "in", "out") == 0

    def test_bridge_gap_positive(self):
        d = dc.degrees(dc.bridge_graph(dc.BridgeParams(2, 2)))
        assert variance_gap(d, "out", "in") > 0

    def test_gap_refuses_unknown_kinds(self):
        d = dc.degrees(dc.bridge_graph(dc.BridgeParams(2, 3)))
        for kinds in (("sideways", "in"), ("out", "OUT"), ("in", None)):
            with pytest.raises(ValueError, match="'out' or 'in'"):
                variance_gap(d, *kinds)

    def test_gap_identity_against_double_loop(self, corpus):
        for g in corpus[:8]:
            d = dc.degrees(g)
            for w in ("out", "in"):
                for v in ("out", "in"):
                    gap = variance_gap(d, w, v)
                    assert gap >= 0
                    dw = d.kind(w).tolist()
                    dv = d.kind(v).tolist()
                    n = len(dw)
                    double = sum(
                        dw[i] * dw[j] * (dv[i] - dv[j]) ** 2
                        for i in range(n)
                        for j in range(n)
                        if i != j
                    )
                    assert 2 * gap == double

    def test_gap_zero_iff_pearson_undefined(self, corpus):
        for g in corpus:
            if g.edge_count == 0:
                continue
            d = dc.degrees(g)
            for t in dc.ALL_TYPES:
                gap_zero = (
                    variance_gap(d, "out", t.source_kind) == 0
                    or variance_gap(d, "in", t.target_kind) == 0
                )
                assert gap_zero == (measure_defined(dc.pearson, g, t) is None)


class TestSpearmanAverage:
    def test_bridge_2_2(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        assert dc.spearman_average(g, IN_OUT) == pytest.approx(1 / 9, abs=1e-12)

    def test_disconnected_bridge_2_2(self):
        g = dc.disconnected_bridge_graph(dc.BridgeParams(2, 2))
        assert dc.spearman_average(g, IN_OUT) == pytest.approx(-0.1, abs=1e-12)

    def test_cycle_zero_variance(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ZeroVarianceError):
            dc.spearman_average(g, IN_OUT)

    def test_single_edge_degenerate(self):
        g = dc.DirectedGraph.from_edges(2, [(0, 1)])
        with pytest.raises(DegenerateSizeError):
            dc.spearman_average(g, IN_OUT)


class TestSpearmanUniform:
    def test_deterministic_given_seed(self):
        g = dc.bridge_graph(dc.BridgeParams(3, 4))
        assert dc.spearman_uniform(g, IN_OUT, 5) == dc.spearman_uniform(g, IN_OUT, 5)

    def test_no_ties_equals_average(self):
        # the 2-path has injective coordinates on both sides
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        avg = dc.spearman_average(g, IN_OUT)
        for seed in range(5):
            assert dc.spearman_uniform(g, IN_OUT, seed) == avg
        mean, stderr = dc.spearman_uniform_mean(g, IN_OUT, 10, 3)
        assert mean == avg and stderr == 0.0

    @pytest.mark.parametrize("k", [8, 1000])
    def test_mean_matches_average_rank_identity(self, k):
        # E[rho] = 3 sigma_x sigma_y / (E^3 - E) * rho_average, checked by MC
        g = dc.bridge_graph(dc.BridgeParams(k, k))
        reps = 400 if k == 8 else 200
        mean, stderr = dc.spearman_uniform_mean(g, IN_OUT, reps, 17)
        from degcorr.ranking import average_ranks_doubled

        p = dc.edge_degree_pairs(g, IN_OUT)
        m = len(p)
        shift = m * (m + 1) ** 2
        sx2 = int(np.sum(average_ranks_doubled(p.x).astype(object) ** 2)) - shift
        sy2 = int(np.sum(average_ranks_doubled(p.y).astype(object) ** 2)) - shift
        expected = (
            3 * math.sqrt(sx2 * sy2) / (m**3 - m) * dc.spearman_average(g, IN_OUT)
        )
        assert abs(mean - expected) < 3 * stderr + 1e-12

    def test_mean_near_large_n_limit(self):
        # the k = m = n family has mean uniform-tie rho near -3a/(a+1)^2
        from degcorr.theory import spearman_uniform_mean_limit

        g = dc.bridge_graph(dc.BridgeParams(1000, 1000))
        mean, _ = dc.spearman_uniform_mean(g, IN_OUT, 200, 23)
        assert mean == pytest.approx(spearman_uniform_mean_limit(1), abs=0.01)

    def test_degenerate_sizes(self):
        with pytest.raises(EmptyGraphError):
            dc.spearman_uniform(dc.DirectedGraph.from_edges(1, []), IN_OUT, 0)
        with pytest.raises(DegenerateSizeError):
            dc.spearman_uniform(dc.DirectedGraph.from_edges(2, [(0, 1)]), IN_OUT, 0)

    def test_mean_needs_two_reps(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        with pytest.raises(ValueError):
            dc.spearman_uniform_mean(g, IN_OUT, 1, 0)

    @pytest.mark.parametrize("reps", [MAX_REPETITIONS + 1, 2**63])
    def test_mean_refuses_counts_it_cannot_spawn(self, reps):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        with pytest.raises(ValueError, match="repetitions"):
            dc.spearman_uniform_mean(g, IN_OUT, reps, 0)

    def test_replays_the_documented_streams(self, corpus):
        for g in corpus:
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                if len(p) < 2:
                    continue
                assert dc.spearman_uniform(g, t, 41) == lexsort_rho(p, np.random.SeedSequence(41))
                mean = float(np.mean([lexsort_rho(p, ss) for ss in np.random.SeedSequence(41).spawn(5)]))
                row = row_values(g, t, MEASURES, np.random.SeedSequence(41), 5)
                assert row[MEASURES.index("spearman_uniform")] == (mean, None)
                assert dc.spearman_uniform_mean(g, t, 5, 41)[0] == mean

    def test_intp_codes_replay_the_documented_streams(self):
        # 2**15 + 1 distinct source values: too many for int16, so the codes
        # stay intp and take the slower sorts, with the same ranks
        rng = np.random.default_rng(15)
        distinct = np.arange(2**15 + 1)
        x = rng.permutation(np.concatenate([distinct, rng.integers(0, distinct.size, 1000)]))
        p = dc.PairSeries(x, rng.integers(0, 50, x.size))
        sx, sy = _sides(p)
        assert sx[0].dtype == np.intp and sy[0].dtype == np.int16
        got = _spearman_uniform_seeded(sx, sy, np.random.SeedSequence(3).spawn(3))
        assert got == [lexsort_rho(p, ss) for ss in np.random.SeedSequence(3).spawn(3)]


class TestSpearmanRanked:
    def test_by_index_matches_table_value(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        assert dc.spearman_ranked(g, IN_OUT) == pytest.approx(0.2, abs=1e-12)

    def test_reverse_target_matches_table_value(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        got = dc.spearman_ranked(g, IN_OUT, "by_index", "by_reverse_index")
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_tie_order_changes_value(self):
        g = dc.bridge_graph(dc.BridgeParams(3, 3))
        a = dc.spearman_ranked(g, IN_OUT, "by_index", "by_index")
        b = dc.spearman_ranked(g, IN_OUT, "by_index", "by_reverse_index")
        assert a == pytest.approx(1 / 28, abs=1e-12)
        assert b == pytest.approx(-1 / 4, abs=1e-12)

    def test_codes_rank_as_the_degrees(self, corpus):
        # spearman_ranked ranks dense codes; they must give the degrees' ranks
        policies = ("by_index", "by_reverse_index")
        for g in corpus + golden_graphs():
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                raw = {}
                for name, side in (("x", p.x), ("y", p.y)):
                    for policy in policies:
                        raw[name, policy] = permutation_ranks(side, policy)
                        codes = _codes_and_counts(side)[0]
                        assert permutation_ranks(codes, policy).tolist() == raw[name, policy].tolist()
                if len(p) < 2:
                    continue
                for sp in policies:
                    for tp in policies:
                        want = _rho_from_permutation_ranks(raw["x", sp], raw["y", tp], len(p))
                        assert dc.spearman_ranked(g, t, sp, tp) == want


class TestKendall:
    def test_monotone_pairs(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        # pairs (0,1) and (1,0) for In/Out: one discordant pair
        assert dc.kendall_tau(g, IN_OUT) == -1.0

    def test_bridge_2_2_counts_cancel(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        assert concordance_counts(dc.edge_degree_pairs(g, IN_OUT)) == (4, 4)
        assert dc.kendall_tau(g, IN_OUT) == 0.0

    def test_bridge_2_4(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 4))
        assert concordance_counts(dc.edge_degree_pairs(g, IN_OUT)) == (6, 8)
        assert dc.kendall_tau(g, IN_OUT) == pytest.approx(-2 / 21, abs=1e-15)

    def test_counts_match_brute_force_on_corpus(self, corpus):
        for g in corpus:
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                assert concordance_counts(p) == brute_concordance(p.tuples())

    def test_concordance_bound(self, corpus):
        for g in corpus:
            p = dc.edge_degree_pairs(g, IN_OUT)
            m = len(p)
            nc, nd = concordance_counts(p)
            assert nc + nd <= m * (m - 1) // 2

    def test_random_pairs_vs_brute(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 12, 200)
        y = rng.integers(0, 12, 200)
        p = dc.PairSeries(x, y)
        assert concordance_counts(p) == brute_concordance(p.tuples())

    def test_table_cells_beyond_int16(self):
        # 200 distinct values per side: a*b = 40000 cells, more than an int16
        # cell index holds, yet within 4m, so the table path counts them
        rng = np.random.default_rng(12)
        p = dc.PairSeries(rng.integers(0, 200, 20_000), rng.integers(0, 200, 20_000))
        got = concordance_counts(p)
        yi = np.unique(p.y, return_inverse=True)[1]
        assert got == measures._merge_concordance_counts(p.x, yi, 200)

    def test_degenerate(self):
        with pytest.raises(EmptyGraphError):
            dc.kendall_tau(dc.DirectedGraph.from_edges(1, []), IN_OUT)
        with pytest.raises(DegenerateSizeError):
            dc.kendall_tau(dc.DirectedGraph.from_edges(2, [(0, 1)]), IN_OUT)

    def test_all_concordant(self):
        p = dc.PairSeries(np.array([1, 2, 3]), np.array([4, 5, 6]))
        assert concordance_counts(p) == (3, 0)

    def test_high_cardinality_takes_merge_count(self, monkeypatch):
        # 300 distinct values per side: a*b = 90000 > 4m = 1200; the y of
        # -2**63 would overflow a merge count that negated values
        rng = np.random.default_rng(8)
        y = rng.permutation(300) ** 2
        y[17] = -(2**63)
        p = dc.PairSeries(rng.permutation(300) * 7 - 900, y)
        calls = []
        count = _kernels.count_strict_inversions

        def spy(values):
            calls.append(len(values))
            return count(values)

        monkeypatch.setattr(_kernels, "count_strict_inversions", spy)
        assert concordance_counts(p) == brute_concordance(p.tuples())
        assert calls == [300, 300]

    def test_merge_count_with_ties_matches_brute_force(self, monkeypatch):
        # ties on both sides: 20 x values, ~200 y values (a*b > 4m = 1200)
        rng = np.random.default_rng(9)
        y = rng.integers(-(2**63), 2**63 - 1, 300, endpoint=True) // 2**56
        p = dc.PairSeries(rng.integers(0, 20, 300), y)
        calls = []
        count = _kernels.count_strict_inversions

        def spy(values):
            calls.append(len(values))
            return count(values)

        monkeypatch.setattr(_kernels, "count_strict_inversions", spy)
        assert concordance_counts(p) == brute_concordance(p.tuples())
        assert calls == [300, 300]

    def test_degree_series_fit_the_table(self, corpus, monkeypatch):
        # the bound a*b <= 4m that keeps every degree series on the table path
        graphs = corpus + golden_graphs()

        def no_merge(values):
            raise AssertionError("degree series reached the merge count")

        monkeypatch.setattr(_kernels, "count_strict_inversions", no_merge)
        for g in graphs:
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                a, b = np.unique(p.x).size, np.unique(p.y).size
                assert a * b <= 4 * len(p)
                concordance_counts(p)
                # and the dense codes every rank-based measure reads are int16
                for side, (codes, _) in zip((p.x, p.y), _sides(p)):
                    assert codes.dtype == np.int16
                    assert codes.tolist() == np.unique(side, return_inverse=True)[1].tolist()

    def test_codes_are_int16_up_to_2_15_distinct_values(self):
        codes, counts = _codes_and_counts(np.arange(2**15))
        assert codes.dtype == np.int16 and codes.max() == 2**15 - 1
        assert counts.size == 2**15
        # one more and code 2**15 would wrap to -2**15 in int16
        codes, _ = _codes_and_counts(np.arange(2**15 + 1))
        assert codes.dtype == np.intp and codes.max() == 2**15


class TestCellValue:
    def test_values_and_reasons(self):
        cycle = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        one_edge = dc.DirectedGraph.from_edges(2, [(0, 1)])
        empty = dc.DirectedGraph.from_edges(2, [])
        ss = np.random.SeedSequence(0)
        assert row_values(cycle, IN_OUT, ("pearson", "kendall"), ss, 3) == [(None, "zero_variance"), (0.0, None)]
        assert row_values(one_edge, IN_OUT, ("spearman_average",), ss, 3) == [(None, "degenerate_size")]
        assert row_values(one_edge, IN_OUT, ("kendall", "pearson"), ss, 3) == [
            (None, "degenerate_size"),
            (None, "zero_variance"),
        ]
        assert row_values(empty, IN_OUT, MEASURES, ss, 3) == [(None, "degenerate_size")] * 4
        with pytest.raises(ValueError, match="unknown measure"):
            row_values(cycle, IN_OUT, ("nope",), ss, 3)

    def test_spearman_uniform_spawns_even_when_undefined(self):
        # later cells sharing the stream must not shift with definedness
        ss = np.random.SeedSequence(5)
        one_edge = dc.DirectedGraph.from_edges(2, [(0, 1)])
        assert row_values(one_edge, IN_OUT, ("spearman_uniform",), ss, 4) == [(None, "degenerate_size")]
        assert ss.n_children_spawned == 4

    def test_one_series_per_row(self, monkeypatch):
        calls = []
        tables = []

        def spy(g, t, d=None):
            calls.append(t)
            return dc.edge_degree_pairs(g, t, d)

        def degrees_spy(g):
            tables.append(g)
            return dc.degrees(g)

        monkeypatch.setattr(measures, "edge_degree_pairs", spy)
        # every binding of graph.degrees: a degree table is built once per graph
        for module in (graph, report, config_model):
            monkeypatch.setattr(module, "degrees", degrees_spy)
        g = dc.bridge_graph(dc.BridgeParams(3, 4))
        compute_report(g, "g")
        assert calls == list(dc.ALL_TYPES)
        assert tables == [g]
        calls.clear()
        tables.clear()
        compute_report(g, "g", types=("out_out",))
        assert calls == [dc.DependencyType.OUT_OUT]
        calls.clear()
        tables.clear()
        dc.randomization_study(g, 3, 0)
        assert calls == list(dc.ALL_TYPES) * 3
        # the input graph, then one table per ECM draw
        assert len(tables) == 1 + 3 and tables[0] is g
        # pearson reads the series alone; the other measures read both sides
        codes = []

        def codes_spy(values):
            codes.append(len(values))
            return _codes_and_counts(values)

        monkeypatch.setattr(measures, "_codes_and_counts", codes_spy)
        compute_report(g, "g", which=("pearson",))
        assert codes == []
        for names in MEASURES[1:], MEASURES:
            compute_report(g, "g", types=("out_out",), which=names)
            assert codes == [g.edge_count] * 2
            codes.clear()

    def test_report_path_never_sorts_for_codes(self, monkeypatch):
        # codes, ranks and tables come from bincount; np.unique is only the
        # fallback for inputs that are not degree series
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return unique(*args, **kwargs)

        g = dc.load_edge_list(str(GOLDEN / "ecm_2000.txt")).graph
        monkeypatch.setattr(np, "unique", spy)
        compute_report(g, "ecm_2000")
        dc.randomization_study(g, 3, 0)
        assert calls == []


class TestInvariants:
    def test_values_in_unit_interval(self, corpus):
        for g in corpus:
            for t in dc.ALL_TYPES:
                for fn in (
                    lambda: dc.pearson(g, t),
                    lambda: dc.spearman_average(g, t),
                    lambda: dc.kendall_tau(g, t),
                    lambda: dc.spearman_uniform(g, t, 3),
                    lambda: dc.spearman_ranked(g, t),
                ):
                    v = measure_defined(fn)
                    if v is not None:
                        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_node_relabeling_invariance(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            g = random_multigraph(rng)
            perm = rng.permutation(g.node_count)
            g2 = dc.DirectedGraph(g.node_count, perm[g.src], perm[g.tgt])
            for t in dc.ALL_TYPES:
                for fn in (dc.pearson, dc.spearman_average, dc.kendall_tau):
                    a = measure_defined(fn, g, t)
                    b = measure_defined(fn, g2, t)
                    if a is None:
                        assert b is None
                    else:
                        assert a == pytest.approx(b, abs=1e-12)

    def test_edge_order_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_multigraph(rng)
            perm = rng.permutation(g.edge_count)
            g2 = dc.DirectedGraph(g.node_count, g.src[perm], g.tgt[perm])
            for t in dc.ALL_TYPES:
                for fn in (dc.pearson, dc.spearman_average, dc.kendall_tau):
                    a = measure_defined(fn, g, t)
                    b = measure_defined(fn, g2, t)
                    if a is None:
                        assert b is None
                    else:
                        assert a == pytest.approx(b, abs=1e-12)

    def test_per_edge_mean_uniform_rank_converges_to_average_rank(self):
        # the MC mean of the uniformly tie-broken rank approaches the
        # average rank, edge by edge
        from degcorr.ranking import average_ranks, permutation_ranks

        g = dc.bridge_graph(dc.BridgeParams(3, 3))
        vals = dc.edge_degree_pairs(g, IN_OUT).x
        seeds = 4000
        rng = np.random.default_rng(2)
        samples = np.empty((seeds, len(vals)))
        for s in range(seeds):
            samples[s] = permutation_ranks(vals, "uniform_random", rng)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(seeds)
        target = average_ranks(vals)
        assert np.all(np.abs(mean - target) <= 3 * stderr + 1e-12)


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=35
    )
)
def test_concordance_counts_property(pairs):
    p = dc.PairSeries(
        np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
    )
    assert concordance_counts(p) == brute_concordance(pairs)
