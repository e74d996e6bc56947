import math
import re
import warnings

import numpy as np
import pytest

import degcorr as dc
from degcorr import BridgeParams, PowerLawSpec, generators
from degcorr.generators import _bridge_union
from degcorr.graph import MAX_EDGES

IN_OUT = dc.DependencyType.IN_OUT


class TestBridgeGraph:
    def test_sizes(self):
        g = dc.bridge_graph(BridgeParams(2, 3))
        assert g.node_count == 7
        assert g.edge_count == 6  # k + m + 1

    def test_edge_sequence(self):
        g = dc.bridge_graph(BridgeParams(2, 3))
        assert g.node_count == 7
        assert g.edges == [(2, 0), (3, 0), (1, 4), (1, 5), (1, 6), (0, 1)]

    def test_over_budget_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="budget"):
            dc.bridge_graph(BridgeParams(10**12, 1))
        with pytest.raises(ValueError, match="budget"):
            dc.bridge_graph(BridgeParams(10**30, 1))  # past int64 too

    def test_union_total_over_budget_rejected(self):
        # every component fits, their union does not
        with pytest.raises(ValueError, match="budget"):
            _bridge_union([MAX_EDGES // 2] * 3, [1] * 3)

    def test_path_when_minimal(self):
        g = dc.bridge_graph(BridgeParams(1, 1))
        assert g.edge_count == 3
        d = dc.degrees(g)
        assert int(d.out_degree.max()) == 1 and int(d.in_degree.max()) == 1

    def test_degree_table_full_sweep(self):
        for k in range(1, 51):
            for m in range(1, 51):
                g = dc.bridge_graph(BridgeParams(k, m))
                d = dc.degrees(g)
                assert d.in_degree[0] == k and d.out_degree[0] == 1
                assert d.out_degree[1] == m and d.in_degree[1] == 1
                assert np.all(d.out_degree[2 : k + 2] == 1)
                assert np.all(d.in_degree[2 : k + 2] == 0)
                assert np.all(d.out_degree[k + 2 :] == 0)
                assert np.all(d.in_degree[k + 2 :] == 1)

    def test_moment_identities_full_sweep(self):
        # exact integer identities of the (n, a) family, for every n, a
        from degcorr._exact import exact_dot
        from degcorr.graph import vertex_moment_sum

        for n in range(1, 101):
            for a in range(1, 6):
                g = dc.bridge_graph(BridgeParams(n, a * n))
                d = dc.degrees(g)
                p = dc.edge_degree_pairs(g, IN_OUT)
                assert exact_dot(p.x, p.y) == a * n * n
                assert vertex_moment_sum(d, 1, 1) == (1 + a) * n
                assert vertex_moment_sum(d, 1, 2) == n * n + a * n
                assert vertex_moment_sum(d, 2, 1) == n + a * a * n * n

    def test_pair_series(self):
        g = dc.bridge_graph(BridgeParams(2, 2))
        got = sorted(dc.edge_degree_pairs(g, IN_OUT).tuples())
        assert got == [(0, 1), (0, 1), (1, 0), (1, 0), (2, 2)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BridgeParams(0, 1)

    @pytest.mark.parametrize("k, m", [(2.5, 3), (2, 3.0), (np.float64(2.0), 3), ("2", 3)])
    def test_non_integer_sizes_refused(self, k, m):
        # k = 2.5 used to become 2, a 6-edge bridge graph
        with pytest.raises(ValueError, match=re.escape(f"got k={k!r}, m={m!r}")):
            BridgeParams(k, m)

    def test_numpy_integer_sizes_accepted(self):
        assert dc.bridge_graph(BridgeParams(np.int64(2), np.uint8(3))) == dc.bridge_graph(BridgeParams(2, 3))


class TestDisconnectedBridgeGraph:
    def test_sizes_and_middle_node(self):
        g = dc.disconnected_bridge_graph(BridgeParams(2, 2))
        assert g.node_count == 7
        assert g.edge_count == 6
        d = dc.degrees(g)
        u = 6
        assert d.out_degree[u] == 1 and d.in_degree[u] == 1
        # no node carries large degrees on both sides
        assert not np.any((d.out_degree >= 2) & (d.in_degree >= 2))

    def test_edge_sequence(self):
        g = dc.disconnected_bridge_graph(BridgeParams(2, 3))
        assert g.node_count == 8
        assert g.edges == [(2, 0), (3, 0), (1, 4), (1, 5), (1, 6), (0, 7), (7, 1)]

    def test_four_edge_path(self):
        g = dc.disconnected_bridge_graph(BridgeParams(1, 1))
        assert g.edge_count == 4

    def test_degree_table_full_sweep(self):
        for k in range(1, 51):
            for m in range(1, 51):
                g = dc.disconnected_bridge_graph(BridgeParams(k, m))
                d = dc.degrees(g)
                assert d.in_degree[0] == k and d.out_degree[0] == 1
                assert d.out_degree[1] == m and d.in_degree[1] == 1
                assert d.out_degree[k + m + 2] == 1 and d.in_degree[k + m + 2] == 1


class TestPowerLawSampler:
    def test_determinism(self):
        spec = PowerLawSpec(2.0, 1)
        a = dc.sample_integer_power_law(spec, 42, 1000)
        b = dc.sample_integer_power_law(spec, 42, 1000)
        assert np.array_equal(a, b)

    def test_minimum_value(self):
        spec = PowerLawSpec(1.2, 3)
        draws = dc.sample_integer_power_law(spec, 0, 10_000)
        assert int(draws.min()) >= 3

    def test_light_tail_degenerates_to_xmin(self):
        # P(X > 2) = 2^-50 for gamma = 50
        draws = dc.sample_integer_power_law(PowerLawSpec(50.0, 1), 7, 10_000)
        assert np.mean(draws == 1) >= 0.99

    def test_empirical_tail_slope(self):
        # survival function of the gamma=1.5 sampler on a log-log grid
        draws = dc.sample_integer_power_law(PowerLawSpec(1.5, 1), 11, 1_000_000)
        ts = np.unique(np.logspace(0.5, 2.5, 12).astype(np.int64))
        surv = np.array([(draws > t).mean() for t in ts])
        slope = np.polyfit(np.log(ts), np.log(surv), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.15)

    def test_mean_against_high_count_oracle(self):
        # gamma = 3: the mean exists; a 10^7-draw run is the reference
        spec = PowerLawSpec(3.0, 1)
        oracle = float(np.mean(dc.sample_integer_power_law(spec, 1234, 10_000_000)))
        sample = float(np.mean(dc.sample_integer_power_law(spec, 77, 100_000)))
        assert abs(sample - oracle) / oracle < 0.05

    @pytest.mark.parametrize("gamma, x_min", [(0.5, 1), (1.0, 1), (1.5, 3), (2.0, 1), (2.5, 2)])
    def test_matches_inverse_transform(self, gamma, x_min):
        u = np.random.default_rng(9).random(10_000)
        want = np.floor(np.minimum(x_min * (1.0 - u) ** (-1.0 / gamma), 2.0**62)).astype(np.int64)
        got = dc.sample_integer_power_law(PowerLawSpec(gamma, x_min), 9, 10_000)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_tiny_gamma_clamps_without_a_warning(self):
        # (1 - u)^(-1/gamma) overflows to inf, which the clamp cuts to 2^62
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = dc.sample_integer_power_law(PowerLawSpec(0.01), 0, 10_000)
        assert int(draws.max()) == 2**62

    def test_infinite_gamma_draws_xmin(self):
        draws = dc.sample_integer_power_law(PowerLawSpec(math.inf, 3), 5, 1000)
        assert draws.tolist() == [3] * 1000

    def test_invalid_spec(self):
        for gamma in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma"):
                PowerLawSpec(gamma, 1)
        with pytest.raises(ValueError):
            PowerLawSpec(2.0, 0)

    @pytest.mark.parametrize("x_min", [1.5, 2.0, np.float64(3.0)])
    def test_non_integer_x_min_rejected(self, x_min):
        # balancing counts each draw below the floor cut as exactly x_min
        with pytest.raises(ValueError, match=re.escape(f"x_min must be a positive integer, got {x_min!r}")):
            PowerLawSpec(2.5, x_min)

    def test_numpy_integer_x_min_accepted(self):
        draws = dc.sample_integer_power_law(PowerLawSpec(2.5, np.int64(2)), 3, 1000)
        assert draws.min() == 2

    def test_count_over_budget_refused_before_drawing(self, monkeypatch):
        # the float64 draws alone take 8 bytes each, and the int64 copy as much
        monkeypatch.setattr(generators, "MAX_EDGES", 100)
        assert dc.sample_integer_power_law(PowerLawSpec(2.5), 0, 100).size == 100
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="count must be from 1 to the edge budget 100, got 101"):
            dc.sample_integer_power_law(PowerLawSpec(2.5), rng, 101)
        assert rng.bit_generator.state == state


class TestIidDegreeSequence:
    def test_determinism(self):
        spec = PowerLawSpec(2.5, 1)
        a = dc.iid_degree_sequence(500, spec, spec, 3)
        b = dc.iid_degree_sequence(500, spec, spec, 3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 5, 555])
    def test_seed_sequence_gives_its_two_children(self, k):
        # the streams the scaling study drew from before it called this function
        spec = PowerLawSpec(1.5, 1)
        out_ss, in_ss = np.random.SeedSequence(k).spawn(2)
        expected = np.column_stack(
            [
                dc.sample_integer_power_law(spec, np.random.default_rng(out_ss), 300),
                dc.sample_integer_power_law(spec, np.random.default_rng(in_ss), 300),
            ]
        )
        ss = np.random.SeedSequence(k)
        assert np.array_equal(dc.iid_degree_sequence(300, spec, spec, ss), expected)
        assert ss.n_children_spawned == 2
        assert np.array_equal(dc.iid_degree_sequence(300, spec, spec, k), expected)

    def test_sides_independent(self):
        spec = PowerLawSpec(4.0, 1)
        pairs = dc.iid_degree_sequence(100_000, spec, spec, 8)
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_count_over_budget_rejected(self):
        spec = PowerLawSpec(2.5, 1)
        with pytest.raises(ValueError, match="budget"):
            dc.iid_degree_sequence(2**40, spec, spec, 0)

    def test_not_balanced_in_general(self):
        spec = PowerLawSpec(2.0, 1)
        diffs = [
            int(np.diff(dc.iid_degree_sequence(200, spec, spec, s).sum(axis=0))[0])
            for s in range(10)
        ]
        assert any(d != 0 for d in diffs)


class TestRandomBridgeCollection:
    def test_single_component_is_a_bridge(self):
        spec = PowerLawSpec(1.5, 1)
        g = dc.random_bridge_collection(1, 2.0, spec, 5)
        xs = dc.sample_integer_power_law(spec, np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0]), 1)
        ys = dc.sample_integer_power_law(spec, np.random.default_rng(np.random.SeedSequence(5).spawn(2)[1]), 1)
        k = int(xs[0] + ys[0])
        m = int(np.floor(xs[0] + 2.0 * ys[0]))
        assert g == dc.bridge_graph(BridgeParams(k, m))

    def test_three_component_edge_sequence(self):
        # sizes (W, Z) = (3, 3), (2, 2), (2, 2); node blocks start at 0, 8, 14
        g = dc.random_bridge_collection(3, 1.0, PowerLawSpec(1.5, 1), 1)
        assert g.node_count == 20
        assert g.edges == [
            (2, 0), (3, 0), (4, 0), (1, 5), (1, 6), (1, 7), (0, 1),
            (10, 8), (11, 8), (9, 12), (9, 13), (8, 9),
            (16, 14), (17, 14), (15, 18), (15, 19), (14, 15),
        ]

    def test_over_budget_rejected(self):
        # gamma = 0.1 draws components of up to 2**62 edges
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="budget"):
            dc.random_bridge_collection(50, 1.0, PowerLawSpec(0.1, 1), 0)
        with pytest.raises(ValueError, match="budget"):
            dc.random_bridge_collection(2**40, 1.0, PowerLawSpec(1.5, 1), 0)

    def test_total_edges_identity(self):
        spec = PowerLawSpec(1.5, 1)
        ss = np.random.SeedSequence(21).spawn(2)
        xs = dc.sample_integer_power_law(spec, np.random.default_rng(ss[0]), 50)
        ys = dc.sample_integer_power_law(spec, np.random.default_rng(ss[1]), 50)
        ws = xs + ys
        zs = np.floor(xs + 3.0 * ys).astype(np.int64)
        g = dc.random_bridge_collection(50, 3.0, spec, 21)
        assert g.edge_count == int((ws + zs + 1).sum())
        assert g.node_count == int((ws + zs + 2).sum())

    def test_component_blocks_contiguous(self):
        g = dc.random_bridge_collection(10, 1.0, PowerLawSpec(1.5, 1), 2)
        # every component block starts with its hub pair (v, w) = (off, off+1)
        d = dc.degrees(g)
        hubs = np.flatnonzero((d.out_degree == 1) & (d.in_degree >= 1))
        assert hubs.size >= 10

    def test_determinism(self):
        spec = PowerLawSpec(1.5, 1)
        assert dc.random_bridge_collection(20, 2.0, spec, 9) == dc.random_bridge_collection(20, 2.0, spec, 9)

    def test_gamma_warning_outside_heavy_tail_regime(self):
        with pytest.warns(UserWarning):
            dc.random_bridge_collection(2, 1.0, PowerLawSpec(3.0, 1), 0)
