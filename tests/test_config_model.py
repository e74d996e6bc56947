import numpy as np
import pytest

import degcorr as dc
from degcorr import BalanceFailedError, PowerLawSpec, UnbalancedStubsError
from degcorr import config_model
from degcorr.config_model import RewireReport, erased_configuration_model, randomization_study


class TestErasedConfigurationModel:
    def test_forced_matching(self):
        g, rep = erased_configuration_model(np.array([[1, 0], [0, 1]]), 0)
        assert g.edges == [(0, 1)]
        assert rep.self_loops_removed == 0
        assert rep.multi_edges_collapsed == 0

    def test_single_node_self_loop_erased(self):
        g, rep = erased_configuration_model(np.array([[1, 1]]), 0)
        assert g.edge_count == 0
        assert rep.self_loops_removed == 1
        assert rep.edges_after == 0

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedStubsError):
            erased_configuration_model(np.array([[2, 0], [0, 1]]), 0)

    def test_unbalanced_by_wrapped_int64_sums_rejected(self):
        # sum(out) = 2**64 wraps to 0 == sum(in) in int64
        with pytest.raises(UnbalancedStubsError):
            erased_configuration_model(np.array([[2**62, 0]] * 4), 0)

    def test_stub_budget(self):
        with pytest.raises(ValueError, match="budget"):
            erased_configuration_model(np.array([[2**40, 2**40]]), 0)

    def test_kept_edges_are_the_sorted_non_loop_stub_pairs(self):
        rng = np.random.default_rng(8)
        collapsed = 0
        for seed in range(10):
            out = rng.integers(0, 6, 30)
            inn = rng.permutation(out)
            g, rep = erased_configuration_model(np.column_stack([out, inn]), seed)
            # the documented matching: the shuffled in-stubs zipped against
            # the out-stubs in node order
            src = np.repeat(np.arange(30), out).tolist()
            tgt = np.random.default_rng(seed).permutation(np.repeat(np.arange(30), inn)).tolist()
            loops = sum(s == t for s, t in zip(src, tgt))
            kept = sorted({(s, t) for s, t in zip(src, tgt) if s != t})
            assert g.node_count == 30
            assert g.edges == kept
            assert rep == RewireReport(len(src), loops, len(src) - loops - len(kept), len(kept))
            collapsed += rep.multi_edges_collapsed
        assert collapsed > 0

    def test_output_is_simple(self):
        rng = np.random.default_rng(5)
        for seed in range(25):
            out = rng.integers(0, 5, 40)
            inn = rng.permutation(out)  # balanced by construction
            g, rep = erased_configuration_model(np.column_stack([out, inn]), seed)
            assert g.self_loop_count() == 0
            assert g.duplicate_edge_count() == 0
            assert rep.edges_before - rep.self_loops_removed - rep.multi_edges_collapsed == g.edge_count

    def test_degree_domination(self):
        rng = np.random.default_rng(6)
        out = rng.integers(0, 6, 50)
        inn = rng.permutation(out)
        g, rep = erased_configuration_model(np.column_stack([out, inn]), 3)
        d = dc.degrees(g)
        assert np.all(d.out_degree <= out)
        assert np.all(d.in_degree <= inn)
        if rep.self_loops_removed == 0 and rep.multi_edges_collapsed == 0:
            assert np.array_equal(d.out_degree, out)
            assert np.array_equal(d.in_degree, inn)

    def test_matching_uniformity_on_tiny_instance(self):
        # degrees [(1,0),(1,0),(0,1),(0,1)]: exactly two perfect matchings
        pairs = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        hits = 0
        trials = 10_000
        for seed in range(trials):
            g, _ = erased_configuration_model(pairs, seed)
            if g.edges == [(0, 2), (1, 3)]:
                hits += 1
            else:
                assert g.edges == [(0, 3), (1, 2)]
        freq = hits / trials
        assert abs(freq - 0.5) < 3 * 0.005

    def test_determinism(self):
        pairs = np.array([[2, 1], [1, 2], [1, 1]])
        a, _ = erased_configuration_model(pairs, 42)
        b, _ = erased_configuration_model(pairs, 42)
        assert a == b

    def test_marginals_close_to_prescription(self):
        # rewiring the bridge graph keeps the degree marginals within 2% TV
        g0 = dc.bridge_graph(dc.BridgeParams(100, 100))
        d0 = dc.degrees(g0)
        pairs = np.column_stack([d0.out_degree, d0.in_degree])
        reps = 20
        tv_out = tv_in = 0.0
        want_out = np.bincount(d0.out_degree, minlength=300) / g0.node_count
        want_in = np.bincount(d0.in_degree, minlength=300) / g0.node_count
        got_out = np.zeros(300)
        got_in = np.zeros(300)
        for seed in range(reps):
            g, _ = erased_configuration_model(pairs, seed)
            d = dc.degrees(g)
            got_out += np.bincount(d.out_degree, minlength=300)[:300]
            got_in += np.bincount(d.in_degree, minlength=300)[:300]
        got_out /= reps * g0.node_count
        got_in /= reps * g0.node_count
        tv_out = 0.5 * np.abs(got_out - want_out).sum()
        tv_in = 0.5 * np.abs(got_in - want_in).sum()
        assert tv_out < 0.02 and tv_in < 0.02


class TestBalanceIidSequence:
    def test_already_balanced_untouched(self):
        pairs = np.array([[2, 1], [1, 2]])
        spec = PowerLawSpec(2.0, 1)
        got, attempts = dc.balance_iid_sequence(pairs, spec, spec, 0)
        assert attempts == 0
        assert np.array_equal(got, pairs)

    def test_wrapped_int64_sums_are_not_balanced(self):
        # sum(out) = 2**64 wraps to 0 == sum(in); draws pinned at 1 balance
        spec = PowerLawSpec(1e9, 1)
        got, attempts = dc.balance_iid_sequence(np.array([[2**62, 0]] * 4), spec, spec, 0)
        assert attempts == 1
        assert got.tolist() == [[1, 1]] * 4

    def test_wrapped_row_sums_are_not_a_hit(self, monkeypatch):
        # attempt 1 has equal int64 row sums (2**64 wraps to 0) but is not
        # balanced; attempt 2 is
        draws = iter([
            np.array([2**62] * 4 + [1] * 4),  # out-degrees of attempts 1 and 2
            np.array([0] * 4 + [1] * 4),  # in-degrees
        ])
        monkeypatch.setattr(config_model, "sample_integer_power_law", lambda spec, rng, count: next(draws))
        spec = PowerLawSpec(2.0, 1)
        got, attempts = dc.balance_iid_sequence(np.array([[1, 0]] * 4), spec, spec, 0, max_attempts=2)
        assert attempts == 2
        assert got.tolist() == [[1, 1]] * 4

    def test_deterministic_mismatch_fails(self):
        # x_min 2 vs 1 with a huge exponent pins draws at their minima
        out_spec = PowerLawSpec(1e9, 2)
        in_spec = PowerLawSpec(1e9, 1)
        pairs = np.array([[2, 1]])
        with pytest.raises(BalanceFailedError):
            dc.balance_iid_sequence(pairs, out_spec, in_spec, 0, max_attempts=50)

    def test_heavy_tail_balances_within_budget(self):
        spec = PowerLawSpec(2.5, 1)
        pairs = dc.iid_degree_sequence(10_000, spec, spec, 5)
        balanced, attempts = dc.balance_iid_sequence(pairs, spec, spec, 6, max_attempts=100_000)
        assert int(balanced[:, 0].sum()) == int(balanced[:, 1].sum())
        assert 0 < attempts <= 100_000

    def test_resample_determinism(self):
        spec = PowerLawSpec(2.5, 1)
        pairs = dc.iid_degree_sequence(300, spec, spec, 5)
        a, na = dc.balance_iid_sequence(pairs, spec, spec, 9)
        b, nb = dc.balance_iid_sequence(pairs, spec, spec, 9)
        assert na == nb and np.array_equal(a, b)


class TestRandomizationStudy:
    def test_smallest_legal_run(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        summary = randomization_study(g, 2, 0)
        assert summary.repetitions == 2
        for t in dc.ALL_TYPES:
            for m in ("pearson", "spearman_uniform", "spearman_average", "kendall"):
                cell = summary.cell(t.wire_name, m)
                assert cell.repetitions == 2
                assert 0 <= cell.defined <= 2
                if cell.defined >= 2:
                    assert cell.sigma is not None and cell.sigma >= 0

    def test_bitwise_determinism(self):
        g = dc.bridge_graph(dc.BridgeParams(4, 4))
        a = randomization_study(g, 3, 123)
        b = randomization_study(g, 3, 123)
        assert a == b

    def test_requires_two_reps(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        with pytest.raises(ValueError):
            randomization_study(g, 1, 0)

    @pytest.mark.parametrize("rho_inner", [0, -2])
    def test_requires_one_rho_rep(self, rho_inner):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        with pytest.raises(ValueError, match="rho_inner"):
            randomization_study(g, 2, 0, rho_inner=rho_inner)

    def test_null_model_self_consistency(self):
        # measuring a previous ECM draw against its own null should be small
        spec = PowerLawSpec(2.5, 1)
        pairs = dc.iid_degree_sequence(2000, spec, spec, 5)
        pairs, _ = dc.balance_iid_sequence(pairs, spec, spec, 6)
        g, _ = erased_configuration_model(pairs, 7)
        summary = randomization_study(g, 10, 8)
        for cell in summary.cells.values():
            if cell.mean is not None:
                assert abs(cell.mean) < 0.1
