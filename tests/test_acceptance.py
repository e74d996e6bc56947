"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are fixed here, not configurable.
"""
import math
import time

import numpy as np
import pytest

import degcorr as dc
from degcorr import theory
from degcorr.measures import concordance_counts, pearson_from_pairs
from degcorr.ranking import average_ranks, permutation_ranks

from helpers import brute_concordance

IN_OUT = dc.DependencyType.IN_OUT


def _criterion(num: int, description: str):
    """Context manager printing one pass/fail line per criterion."""

    class _Ctx:
        def __enter__(self):
            self.start = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.time() - self.start
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {num:2d} {status} ({elapsed:6.1f}s) {description}")
            return False

    return _Ctx()


def test_acceptance_01_pearson_closed_form():
    with _criterion(1, "Pearson closed form matches on G(n, an), n<=50, a<=5"):
        for n in range(1, 51):
            for a in range(1, 6):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                vertex = dc.pearson(g, IN_OUT)
                closed = theory.closed_form_pearson_bridge(n, a)
                assert abs(vertex - closed) <= 1e-9, (n, a, vertex, closed)
                edge = pearson_from_pairs(dc.edge_degree_pairs(g, IN_OUT))
                assert abs(vertex - edge) <= 1e-12, (n, a)


def test_acceptance_02_pearson_convergence():
    with _criterion(2, "Pearson tends to 1 on G and to 0 on the split variant"):
        n = 10**5
        g = dc.bridge_graph(dc.BridgeParams(n, n))
        assert dc.pearson(g, IN_OUT) >= 0.9999
        split_large = abs(dc.pearson(dc.disconnected_bridge_graph(dc.BridgeParams(n, n)), IN_OUT))
        assert split_large <= 0.01
        split_small = abs(
            dc.pearson(dc.disconnected_bridge_graph(dc.BridgeParams(10**3, 10**3)), IN_OUT)
        )
        assert split_large < split_small


def test_acceptance_03_spearman_closed_forms():
    with _criterion(3, "average-tie Spearman closed forms and the -1 limit"):
        for n in range(1, 51):
            for a in range(1, 6):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                assert abs(
                    dc.spearman_average(g, IN_OUT) - theory.closed_form_spearman_bridge(n, a)
                ) <= 1e-9, (n, a)
                gd = dc.disconnected_bridge_graph(dc.BridgeParams(n, a * n))
                assert abs(
                    dc.spearman_average(gd, IN_OUT)
                    - theory.closed_form_spearman_bridge(n, a, "disconnected")
                ) <= 1e-9, (n, a)
        n = 10**4
        for a in (1, 5):
            g = dc.bridge_graph(dc.BridgeParams(n, a * n))
            assert dc.spearman_average(g, IN_OUT) <= -0.998
            gd = dc.disconnected_bridge_graph(dc.BridgeParams(n, a * n))
            assert dc.spearman_average(gd, IN_OUT) <= -0.998


def test_acceptance_04_tie_order_sensitivity():
    with _criterion(4, "deterministic tie orders hit their closed forms; a=4 flip"):
        for n in range(1, 31):
            for a in range(1, 6):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                fwd = dc.spearman_ranked(g, IN_OUT, "by_index", "by_index")
                assert abs(fwd - theory.closed_form_spearman_ranked(n, a, "by_index")) <= 1e-9
                rev = dc.spearman_ranked(g, IN_OUT, "by_index", "by_reverse_index")
                assert abs(rev - theory.closed_form_spearman_ranked(n, a, "by_reverse_index")) <= 1e-9
        g = dc.bridge_graph(dc.BridgeParams(10**4, 4 * 10**4))
        val = dc.spearman_ranked(g, IN_OUT, "by_index", "by_index")
        assert val > 0
        assert abs(val - 0.04) <= 0.01


def test_acceptance_05_kendall_closed_form(corpus):
    with _criterion(5, "Kendall counts exact on G(n, an); brute-force agreement"):
        for n in range(1, 51):
            for a in range(1, 6):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                got = concordance_counts(dc.edge_degree_pairs(g, IN_OUT))
                assert got == theory.tau_counts_bridge(n, a), (n, a)
                assert dc.kendall_tau(g, IN_OUT) == theory.closed_form_tau_bridge(n, a)
        assert abs(dc.kendall_tau(dc.bridge_graph(dc.BridgeParams(1000, 1000)), IN_OUT) + 0.5) <= 0.002
        for g in corpus:
            assert g.edge_count <= 500
            for t in dc.ALL_TYPES:
                p = dc.edge_degree_pairs(g, t)
                assert concordance_counts(p) == brute_concordance(p.tuples())


def test_acceptance_06_uniform_mean_identities():
    with _criterion(6, "MC mean of uniform rho matches the average-rank identity"):
        n, a = 200, 1
        g = dc.bridge_graph(dc.BridgeParams(n, a * n))
        mean, stderr = dc.spearman_uniform_mean(g, IN_OUT, 200, 314)
        m = g.edge_count
        sigma_product = (a * a + a) * n**3 + (a + 1) ** 2 * n * n + (a + 1) * n
        expected = 3 * sigma_product / (m**3 - m) * theory.closed_form_spearman_bridge(n, a)
        assert abs(mean - expected) <= 3 * stderr + 1e-12, (mean, expected, stderr)

        g20 = dc.bridge_graph(dc.BridgeParams(7, 12))
        assert g20.edge_count == 20
        seeds = 10**4
        for coord in ("x", "y"):
            vals = getattr(dc.edge_degree_pairs(g20, IN_OUT), coord)
            rng = np.random.default_rng(99 if coord == "x" else 100)
            samples = np.empty((seeds, vals.size))
            for s in range(seeds):
                samples[s] = permutation_ranks(vals, "uniform_random", rng)
            mc_mean = samples.mean(axis=0)
            mc_err = samples.std(axis=0, ddof=1) / math.sqrt(seeds)
            target = average_ranks(vals)
            assert np.all(np.abs(mc_mean - target) <= 3 * mc_err + 1e-9)


def test_acceptance_07_vanishing_regions():
    with _criterion(7, "region membership matches the exponent criterion"):
        rng = np.random.default_rng(2718)
        checked = 0
        while checked < 10**4:
            x, y = rng.uniform(1 + 1e-6, 6, 2)
            if min(abs(x - 2), abs(x - 3), abs(y - 2), abs(y - 3)) < 1e-6:
                continue
            gp = theory.GammaPair(x, y)
            for t in dc.ALL_TYPES:
                assert theory.region_contains(t, gp) == theory.exponent_criterion(t, gp), (t, x, y)
            checked += 1
        for _ in range(200):
            gp = theory.GammaPair(*rng.uniform(1.01, 6, 2))
            ex = theory.limit_exponents(IN_OUT, gp)
            m1 = max(1 / gp.gamma_out, 1 / gp.gamma_in, 1)
            assert ex.a == ex.b == 2 * m1 - 1
            assert ex.c == max(1 / gp.gamma_out, 2 / gp.gamma_in, 1)
            assert ex.d == max(2 / gp.gamma_out, 1 / gp.gamma_in, 1)


def _iid_cm_graph(n: int, gamma: float, seed: int) -> dc.DirectedGraph:
    spec = dc.PowerLawSpec(gamma, 1)
    seq_ss, bal_ss, ecm_ss = np.random.SeedSequence(seed).spawn(3)
    pairs = dc.iid_degree_sequence(n, spec, spec, int(seq_ss.generate_state(1)[0]))
    pairs, _ = dc.balance_iid_sequence(
        pairs, spec, spec, int(bal_ss.generate_state(1)[0]), max_attempts=200_000
    )
    g, _ = dc.erased_configuration_model(pairs, int(ecm_ss.generate_state(1)[0]))
    return g


def test_acceptance_08_empirical_pearson_vanishing():
    # The iid-cm family is a null model: its population degree-degree
    # dependency is zero. Pearson medians must shrink with size, and a
    # consistent rank measure must approach the null value 0, so the
    # |spearman_average| medians must shrink as well: their noise decays like
    # m^-1/2 and the erasure artifact with the share of erased multi-edges.
    # A size-stable rank plateau exists only for families with a nonzero
    # limiting dependency.
    with _criterion(8, "Pearson medians shrink with size; rank medians approach the null value 0"):
        sizes = (10**3, 3 * 10**4)
        med_r = {}
        med_s = {}
        for n in sizes:
            absr = {t: [] for t in dc.ALL_TYPES}
            abss = {t: [] for t in dc.ALL_TYPES}
            for seed in range(10):
                g = _iid_cm_graph(n, 1.5, seed)
                for t in dc.ALL_TYPES:
                    absr[t].append(abs(dc.pearson(g, t)))
                    abss[t].append(abs(dc.spearman_average(g, t)))
            med_r[n] = {t: float(np.median(v)) for t, v in absr.items()}
            med_s[n] = {t: float(np.median(v)) for t, v in abss.items()}
        for t in dc.ALL_TYPES:
            small, large = med_r[sizes[0]][t], med_r[sizes[1]][t]
            print(f"    pearson median |r| {t.wire_name}: {small:.5f} -> {large:.5f}")
            assert large < small, (t.wire_name, small, large)
        failures = []
        for t in dc.ALL_TYPES:
            small, large = med_s[sizes[0]][t], med_s[sizes[1]][t]
            change = (large - small) / small
            print(
                f"    spearman median |rho| {t.wire_name}: {small:.5f} -> {large:.5f} "
                f"({change:+.0%} relative)"
            )
            if not large < small:
                failures.append((t.wire_name, small, large))
        assert not failures, (
            "spearman_average medians do not shrink towards the null value 0 "
            f"on the null family (type, small, large: {failures})"
        )


def test_acceptance_09_null_model_baseline():
    with _criterion(9, "randomized baseline of an iid-cm graph is flat"):
        g = _iid_cm_graph(10**4, 2.5, 424242)
        summary = dc.randomization_study(g, 20, 77)
        for (tname, mname), cell in summary.cells.items():
            assert cell.defined == 20, (tname, mname)
            assert abs(cell.mean) < 0.05, (tname, mname, cell.mean)
            assert cell.sigma < 0.05, (tname, mname, cell.sigma)


def test_acceptance_10_random_limit_support():
    with _criterion(10, "collection Pearson non-degenerate in (0,1); argmin of f"):
        spec = dc.PowerLawSpec(1.5, 1)
        vals = []
        for ss in np.random.SeedSequence(31337).spawn(100):
            g = dc.random_bridge_collection(2000, 10.0, spec, int(ss.generate_state(1)[0]))
            vals.append(dc.pearson(g, IN_OUT))
        vals = np.asarray(vals)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert float(vals.std(ddof=1)) > 0.05
        # golden-section search against the exact argmin 1/a
        a = 10.0
        lo, hi = 1e-9, 5.0
        phi = (math.sqrt(5) - 1) / 2
        c = hi - phi * (hi - lo)
        d = lo + phi * (hi - lo)
        for _ in range(120):
            if theory.support_function_f(c, a) < theory.support_function_f(d, a):
                hi = d
            else:
                lo = c
            c = hi - phi * (hi - lo)
            d = lo + phi * (hi - lo)
        assert abs(0.5 * (lo + hi) - theory.argmin_support_function(a)) <= 1e-6


def test_acceptance_11_moment_sum_scaling():
    with _criterion(11, "second-moment growth exponents match the scaling rule"):
        heavy, light = dc.PowerLawSpec(1.5, 1), dc.PowerLawSpec(5.0, 1)
        grid = [10**3, 10**4, 10**5]
        rows = theory.scaling_study(heavy, heavy, grid, [(2, 0)], 20, 555)
        assert abs(rows[0].slope - 4 / 3) <= 0.15, rows[0]
        rows = theory.scaling_study(light, light, grid, [(2, 0)], 20, 556)
        assert abs(rows[0].slope - 1.0) <= 0.05, rows[0]
