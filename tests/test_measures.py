import functools
import inspect
import math
import operator
import os
import sys
import threading
import time
import tracemalloc
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
    ranking,
    report,
)
from degcorr.cli import main
from degcorr.measures import (
    MAX_REPETITIONS,
    MEASURES,
    _rho_from_permutation_ranks,
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


def _sides(p):
    """The coded (source, target) sides of a pair series."""
    return _codes_and_counts(p.x), _codes_and_counts(p.y)


def tied_series(m, seed=0):
    """A pair series of m edges with about sqrt(m) distinct values per side."""
    rng = np.random.default_rng(seed)
    k = math.isqrt(m) + 1
    return dc.PairSeries(rng.integers(0, k, m), rng.integers(0, k, m))


def rhos_by_workers(p, reps, seed=41):
    """_spearman_uniform_seeded of p on one and on two workers, each on
    fresh children of seed."""
    return [
        _spearman_uniform_seeded([(*_sides(p), np.random.SeedSequence(seed).spawn(reps))], _workers=w)
        for w in (1, 2)
    ]


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
                row = row_values(g, [t], MEASURES, [np.random.SeedSequence(41)], 5)[0]
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
        got = _spearman_uniform_seeded([(sx, sy, np.random.SeedSequence(3).spawn(3))])
        assert got == [lexsort_rho(p, ss) for ss in np.random.SeedSequence(3).spawn(3)]


class TestSpearmanUniformThreads:
    def test_golden_rhos_do_not_depend_on_the_thread_count(self):
        for g in golden_graphs():
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                if len(p) < 2:
                    continue
                for reps in (1, 2, 3, 5):
                    one, two = rhos_by_workers(p, reps)
                    assert one == two
                    assert one == [lexsort_rho(p, ss) for ss in np.random.SeedSequence(41).spawn(reps)]

    def test_golden_reports_and_baselines_do_not_depend_on_the_thread_count(self, monkeypatch):
        seeded = measures._spearman_uniform_seeded
        for g in golden_graphs():
            got = []
            for workers in (1, 2):
                monkeypatch.setattr(measures, "_spearman_uniform_seeded", functools.partial(seeded, _workers=workers))
                got.append((compute_report(g, "g", seed=3).cells, dc.randomization_study(g, 3, 5).cells))
            assert got[0] == got[1]

    @pytest.mark.parametrize(
        "m, reps, batches",
        [(2**16, 3, [2, 1]), (2**16 + 7, 2, [1, 1]), (1000, 200, [100, 100]), (100, 1400, [700, 700])],
    )
    def test_batches_do_not_change_the_rhos(self, monkeypatch, m, reps, batches):
        # the calling thread is dealt seeds 0, 2, 4, ... and the helper 1, 3,
        # 5, ...; within a seed the target side is ranked before the source
        # side is ordered. Of an odd count, the last seed's source side is
        # ranked on the calling thread and its target side on the helper.
        # batches counts the source sides each thread takes; each rho lands
        # in its seed's slot
        default_rng = np.random.default_rng
        dealt = {True: [], False: []}

        def recording(ss):
            # a child's spawn key ends in (seed index, side), side 0 the source
            dealt[threading.current_thread() is threading.main_thread()].append(tuple(ss.spawn_key[-2:]))
            return default_rng(ss)

        p = tied_series(m)
        monkeypatch.setattr(np.random, "default_rng", recording)
        two = _spearman_uniform_seeded([(*_sides(p), np.random.SeedSequence(5).spawn(reps))], _workers=2)
        monkeypatch.undo()
        main = [(i, side) for i in range(0, reps, 2) for side in (1, 0)]
        helper = [(i, side) for i in range(1, reps, 2) for side in (1, 0)]
        if reps % 2:
            main.remove((reps - 1, 1))
            helper.append((reps - 1, 1))
        assert dealt == {True: main, False: helper}
        assert [sum(side == 0 for _, side in dealt[t]) for t in (True, False)] == batches
        one = _spearman_uniform_seeded([(*_sides(p), np.random.SeedSequence(5).spawn(reps))], _workers=1)
        assert one == two == [lexsort_rho(p, ss) for ss in np.random.SeedSequence(5).spawn(reps)]

    def test_tied_draws_take_the_lexsort_in_the_helper(self, monkeypatch):
        # draws on a grid of 1/64 tie, so both sides' keys have runs that the
        # fix-up orders like np.lexsort (5000 edges leave fewer than 53 draw
        # bits in a key, so it runs)
        default_rng, reorder = np.random.default_rng, ranking._reorder_runs
        fix_up_threads = []

        class GridDraws:
            def __init__(self, ss):
                self.rng = default_rng(ss)

            def random(self, m=None, out=None):
                grid = np.floor(self.rng.random(m if out is None else out.size) * 64) / 64
                if out is None:
                    return grid
                out[:] = grid
                return out

        def spy(*args):
            fix_up_threads.append(threading.current_thread())
            return reorder(*args)

        p = tied_series(5000)
        monkeypatch.setattr(np.random, "default_rng", GridDraws)
        monkeypatch.setattr(ranking, "_reorder_runs", spy)
        one, two = rhos_by_workers(p, 4)
        want = [lexsort_rho(p, ss) for ss in np.random.SeedSequence(41).spawn(4)]
        monkeypatch.undo()
        assert one == two == want
        assert any(t is not threading.main_thread() for t in fix_up_threads)

    @pytest.mark.parametrize(
        "fail_on_main, exc", [(False, MemoryError("rank")), (True, KeyboardInterrupt("rank"))]
    )
    def test_failure_raised_in_caller(self, monkeypatch, fail_on_main, exc):
        # 4000 seeds of m = 1000 are 2000 per worker. One worker fails once
        # the other has begun its first ranking, which waits until the
        # failure has had time to be recorded; then that worker finishes the
        # seed's two sides and stops at its next seed (one more seed is
        # allowed for a slow recording). The call runs on its own thread, so
        # that a lost exception fails the join instead of hanging.
        rank = measures._packed_order
        began, failed = threading.Event(), threading.Event()
        other_ranks = []
        raised = []

        def failing(*args):
            if (threading.current_thread() is caller) == fail_on_main:
                began.wait(timeout=60)
                failed.set()
                raise exc
            if not other_ranks:
                began.set()
                failed.wait(timeout=60)
                time.sleep(0.05)
            other_ranks.append(1)
            return rank(*args)

        def call():
            try:
                _spearman_uniform_seeded([(*sides, np.random.SeedSequence(0).spawn(4000))], _workers=2)
            except BaseException as got:
                raised.append(got)

        monkeypatch.setattr(measures, "_packed_order", failing)
        sides = _sides(tied_series(1000))
        threads = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == [exc]
        assert threading.active_count() == threads
        assert len(other_ranks) <= 2 * 2

    def test_helper_calls_no_public_function(self, monkeypatch):
        # perfbench's tracer wraps every public function and keeps one span
        # stack with no lock; record any call made off the main thread
        off_main = []

        def guarded(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(f"{fn.__module__}.{fn.__name__}")
                return fn(*args, **kwargs)

            return call

        modules = [mod for name, mod in sys.modules.items() if name == "degcorr" or name.startswith("degcorr.")]
        wrappers = {
            id(value): (value, guarded(value))
            for mod in modules
            for name, value in vars(mod).items()
            if inspect.isfunction(value) and value.__module__ == mod.__name__ and not name.startswith("_")
        }
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(mod, name, hit[1])
        rank = measures._packed_order
        helper_ranks = []

        def spy(*args):
            if threading.current_thread() is not threading.main_thread():
                helper_ranks.append(1)
            return rank(*args)

        monkeypatch.setattr(measures, "_packed_order", spy)
        monkeypatch.setattr(
            measures, "_spearman_uniform_seeded", functools.partial(measures._spearman_uniform_seeded, _workers=2)
        )
        g = dc.load_edge_list(str(GOLDEN / "ecm_2000.txt")).graph
        assert report.compute_report is not compute_report
        report.compute_report(g, "ecm_2000")
        config_model.randomization_study(g, 3, 0)
        # four rows of three reps, then 3 draws of four rows of three reps
        assert len(helper_ranks) == 4 * 3 + 3 * 4 * 3
        assert off_main == []

    def test_more_threads_than_cores_under_fast_switching(self):
        # three workers share the slots; a lost or misplaced rho would change
        # the list
        p = tied_series(1000, 3)
        seeds = np.random.SeedSequence(3).spawn(300)
        want = _spearman_uniform_seeded([(*_sides(p), seeds)], _workers=1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                seeds = np.random.SeedSequence(3).spawn(300)
                assert _spearman_uniform_seeded([(*_sides(p), seeds)], _workers=3) == want
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("cores, m, started", [(2, 2**14, 1), (2, 2**14 - 1, 0), (1, 2**14, 0)])
    def test_helper_starts_with_two_cores_from_2_14_edges(self, monkeypatch, cores, m, started):
        threads = []

        class Spy(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(measures, "_core_count", lambda: cores)
        monkeypatch.setattr(threading, "Thread", Spy)
        p = tied_series(m)
        got = _spearman_uniform_seeded([(*_sides(p), np.random.SeedSequence(2).spawn(2))])
        assert len(threads) == started
        assert got == [lexsort_rho(p, ss) for ss in np.random.SeedSequence(2).spawn(2)]

    def test_one_seed_ranks_its_sides_on_two_threads(self, monkeypatch):
        # a single tie-break, as the public spearman_uniform takes, ranks its
        # source side on the calling thread and its target side on the helper
        rank = measures._packed_order
        ranked = []

        def spy(codes, *args):
            ranked.append((threading.current_thread() is threading.main_thread(), codes.size))
            return rank(codes, *args)

        rng = np.random.default_rng(8)
        g = dc.DirectedGraph(3000, rng.integers(0, 3000, 2**14), rng.integers(0, 3000, 2**14))
        monkeypatch.setattr(measures, "_core_count", lambda: 2)
        monkeypatch.setattr(measures, "_packed_order", spy)
        got = dc.spearman_uniform(g, dc.DependencyType.OUT_IN, 4)
        assert sorted(ranked) == [(False, 2**14), (True, 2**14)]
        assert got == lexsort_rho(dc.edge_degree_pairs(g, dc.DependencyType.OUT_IN), np.random.SeedSequence(4))

    def test_one_helper_thread_per_graph(self, monkeypatch):
        # every row's tie-breaks of a graph share one helper, not one per row
        threads = []

        class Spy(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        rng = np.random.default_rng(6)
        g = dc.DirectedGraph(6000, rng.integers(0, 6000, 2**15), rng.integers(0, 6000, 2**15))
        monkeypatch.setattr(measures, "_core_count", lambda: 2)
        monkeypatch.setattr(threading, "Thread", Spy)
        compute_report(g, "g")
        assert len(threads) == 1
        dc.randomization_study(g, 2, 0)
        # one per ECM draw, each of which keeps at least 2^14 edges
        assert len(threads) == 1 + 2

    def test_report_temporaries_per_edge(self, monkeypatch):
        # beyond the graph: two workers' draws, keys and target ranks (20
        # B/edge each), the shared desc (4) and four int16 sides (8), about
        # 52 B/edge. A source-side rank buffer per worker would add 8 and a
        # degree table held through the tie-breaks 16 B per node (12 here).
        spec = dc.PowerLawSpec(2.5, 1)
        rng = np.random.default_rng(7)
        out, inn = (dc.sample_integer_power_law(spec, rng, 100_000) for _ in range(2))
        short = inn if out.sum() > inn.sum() else out
        short[: abs(int(out.sum()) - int(inn.sum()))] += 1
        g, _ = dc.erased_configuration_model(np.column_stack([out, inn]), rng)
        assert g.edge_count >= 2**17
        monkeypatch.setattr(measures, "_core_count", lambda: 2)
        tracemalloc.start()
        try:
            compute_report(g, "g", seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * g.edge_count

    @pytest.mark.parametrize("cpus, cores", [({0}, 1), ({0, 1}, 2), (set(range(8)), 2)])
    def test_core_count(self, monkeypatch, cpus, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert measures._core_count() == cores
        monkeypatch.delattr(os, "sched_getaffinity")
        assert measures._core_count() == 1


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
                        prod = np.empty(len(p), np.int64)
                        want = _rho_from_permutation_ranks(raw["x", sp], raw["y", tp], prod)
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

    def test_tau_matches_brute_force(self, corpus):
        # kendall_tau reads the same joint table as a row, so only an
        # independent count can check either
        for g in corpus + golden_graphs():
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                m = len(p)
                if m < 2:
                    continue
                nc, nd = brute_concordance(p.tuples())
                assert dc.kendall_tau(g, t) == 2 * (nc - nd) / (m * (m - 1))

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
                for side, (codes, _, _) in zip((p.x, p.y), _sides(p)):
                    assert codes.dtype == np.int16
                    assert codes.tolist() == np.unique(side, return_inverse=True)[1].tolist()

    def test_codes_are_int16_up_to_2_15_distinct_values(self):
        codes, counts, _ = _codes_and_counts(np.arange(2**15))
        assert codes.dtype == np.int16 and codes.max() == 2**15 - 1
        assert counts.size == 2**15
        # one more and code 2**15 would wrap to -2**15 in int16
        codes, _, _ = _codes_and_counts(np.arange(2**15 + 1))
        assert codes.dtype == np.intp and codes.max() == 2**15


def cell_of(fn, *args):
    """fn's value as a report cell: (value, None) or (None, reason)."""
    try:
        return fn(*args), None
    except ZeroVarianceError:
        return None, "zero_variance"
    except (EmptyGraphError, DegenerateSizeError):
        return None, "degenerate_size"


def public_row(g, t, reps, seed):
    """The cells of (g, t) from the public functions, in MEASURES order."""
    return [
        cell_of(dc.pearson, g, t),
        cell_of(lambda: dc.spearman_uniform_mean(g, t, reps, seed)[0]),
        cell_of(dc.spearman_average, g, t),
        cell_of(dc.kendall_tau, g, t),
    ]


def spy_sides(monkeypatch):
    """Record every DegreeTable built, every _side coded, as (end, kind),
    and every edge_degree_pairs call, through each module's binding."""
    tables, sides, series = [], [], []
    side, pairs = measures._side, dc.edge_degree_pairs

    def degrees_spy(g):
        tables.append(g)
        return dc.degrees(g)

    def side_spy(g, d, end, kind):
        sides.append((end, kind))
        return side(g, d, end, kind)

    def series_spy(*args):
        series.append(args)
        return pairs(*args)

    for module in (graph, measures, config_model):
        monkeypatch.setattr(module, "degrees", degrees_spy)
    for module in (graph, measures):
        monkeypatch.setattr(module, "edge_degree_pairs", series_spy)
    monkeypatch.setattr(measures, "_side", side_spy)
    return tables, sides, series


class TestCellValue:
    def test_values_and_reasons(self):
        cycle = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        one_edge = dc.DirectedGraph.from_edges(2, [(0, 1)])
        empty = dc.DirectedGraph.from_edges(2, [])
        ss = np.random.SeedSequence(0)

        def row(g, names):
            return row_values(g, [IN_OUT], names, [ss], 3)[0]

        assert row(cycle, ("pearson", "kendall")) == [(None, "zero_variance"), (0.0, None)]
        assert row(cycle, ("spearman_average",)) == [(None, "zero_variance")]
        assert row(cycle, ("spearman_uniform",))[0][1] is None
        assert row(one_edge, ("spearman_average",)) == [(None, "degenerate_size")]
        assert row(one_edge, ("kendall", "pearson")) == [
            (None, "degenerate_size"),
            (None, "zero_variance"),
        ]
        assert row(empty, MEASURES) == [(None, "degenerate_size")] * 4
        with pytest.raises(ValueError, match="unknown measure"):
            row(cycle, ("nope",))

    def test_spearman_uniform_spawns_even_when_undefined(self):
        # later cells sharing the stream must not shift with definedness
        ss = np.random.SeedSequence(5)
        one_edge = dc.DirectedGraph.from_edges(2, [(0, 1)])
        assert row_values(one_edge, [IN_OUT], ("spearman_uniform",), [ss], 4) == [[(None, "degenerate_size")]]
        assert ss.n_children_spawned == 4
        assert row_values(one_edge, dc.ALL_TYPES, MEASURES, [ss] * 4, 2)[3][1] == (None, "degenerate_size")
        assert ss.n_children_spawned == 4 + 4 * 2

    def test_one_series_per_row(self, monkeypatch):
        # a report builds one degree table per graph, codes each of at most
        # four sides once per graph, and builds no edge series
        tables, sides, series = spy_sides(monkeypatch)
        g = dc.bridge_graph(dc.BridgeParams(3, 4))
        every_side = [("out", "out"), ("in", "in"), ("in", "out"), ("out", "in")]
        for which in MEASURES, ("pearson",), ("spearman_uniform",):
            compute_report(g, "g", which=which)
            assert tables == [g] and sides == every_side
            tables.clear()
            sides.clear()
        compute_report(g, "g", types=("out_out",))
        assert sides == [("out", "out"), ("in", "out")]
        tables.clear()
        sides.clear()
        dc.randomization_study(g, 3, 0)
        # the input graph, then one table and four sides per ECM draw
        assert len(tables) == 1 + 3 and tables[0] is g
        assert sorted(sides) == sorted(every_side * 3)
        tables.clear()
        sides.clear()
        # a bridge and a disconnected bridge per n, one in_out row each
        assert main(["study", "bridge-convergence", "--a", "2", "--n-grid", "3,10"]) == 0
        assert len(tables) == 2 * 2 and sides == [("out", "in"), ("in", "out")] * 4
        assert series == []

    def test_public_functions_code_two_sides(self, monkeypatch):
        # pearson, kendall_tau and the rank-based public functions code their
        # sides as a row does: one degree table and two _side calls per call
        tables, sides, series = spy_sides(monkeypatch)
        g = dc.bridge_graph(dc.BridgeParams(3, 4))
        calls = (
            lambda t: dc.pearson(g, t),
            lambda t: dc.kendall_tau(g, t),
            lambda t: dc.spearman_uniform(g, t, 3),
            lambda t: dc.spearman_uniform_mean(g, t, 3, 3),
            lambda t: dc.spearman_ranked(g, t, "by_index", "by_reverse_index"),
        )
        for call in calls:
            for t in dc.ALL_TYPES:
                call(t)
                assert tables == [g] and sides == [("out", t.source_kind), ("in", t.target_kind)]
                tables.clear()
                sides.clear()
        assert series == []

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


class TestRows:
    def test_rows_equal_the_public_functions(self):
        rng = np.random.default_rng(16)
        graphs = golden_graphs() + [random_multigraph(rng) for _ in range(300)]
        graphs.append(dc.DirectedGraph.from_edges(2, []))
        for g in graphs:
            rows = row_values(g, dc.ALL_TYPES, MEASURES, [np.random.SeedSequence(41) for _ in range(4)], 2)
            for t, row in zip(dc.ALL_TYPES, rows):
                assert row == public_row(g, t, 2, 41)

    def test_single_measure_rows_equal_the_full_row(self, corpus):
        for g in corpus + golden_graphs():
            full = row_values(g, dc.ALL_TYPES, MEASURES, [np.random.SeedSequence(7)] * 4, 3)
            for k, name in enumerate(MEASURES):
                rows = row_values(g, dc.ALL_TYPES, (name,), [np.random.SeedSequence(7)] * 4, 3)
                assert rows == [[row[k]] for row in full]
            # the deterministic measures in another order, one type at a time
            names = ("kendall", "spearman_average", "pearson")
            for t, row in zip(dc.ALL_TYPES, full):
                got = row_values(g, [t], names, [np.random.SeedSequence(7)], 3)[0]
                assert got == [row[MEASURES.index(name)] for name in names]

    def test_sides_are_the_series_codes(self, corpus):
        for g in corpus + golden_graphs():
            d = dc.degrees(g)
            for t in dc.ALL_TYPES:
                sides = measures._side(g, d, "out", t.source_kind), measures._side(g, d, "in", t.target_kind)
                for got, want in zip(sides, _sides(dc.edge_degree_pairs(g, t))):
                    assert got[0].dtype == want[0].dtype == np.int16
                    for a, b in zip(got, want):
                        assert a.tolist() == b.tolist()

    def test_rho_dot_is_exact_past_int64(self):
        # at m = 2^22 the rank dots reach about m^3 / 3 > 2^64: only the
        # block sums keep them exact
        m = 2**22
        desc = np.arange(m, 0, -1, dtype=np.int32)
        shuffled = np.random.default_rng(4).permutation(desc)
        prod = np.empty(m, np.int64)
        assert _rho_from_permutation_ranks(desc, desc, prod) == 1.0
        assert _rho_from_permutation_ranks(desc, desc[::-1], prod) == -1.0
        dot = 0
        for j in range(0, m, 2**16):
            dot += sum(map(operator.mul, desc[j : j + 2**16].tolist(), shuffled[j : j + 2**16].tolist()))
        assert dot > 2**63
        want = (12 * dot - 3 * m * (m + 1) ** 2) / (m**3 - m)
        assert _rho_from_permutation_ranks(desc, shuffled, prod) == want


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
