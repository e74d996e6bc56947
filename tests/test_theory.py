import math

import numpy as np
import pytest

import degcorr as dc
from degcorr import theory
from degcorr.theory import GammaPair

IN_OUT = dc.DependencyType.IN_OUT
OUT_IN = dc.DependencyType.OUT_IN
OUT_OUT = dc.DependencyType.OUT_OUT
IN_IN = dc.DependencyType.IN_IN


class TestScalingExponent:
    def test_out_moment_dominates(self):
        assert theory.scaling_exponent(3, 0, GammaPair(2.5, 2.0)) == 1.2

    def test_linear_when_moments_exist(self):
        assert theory.scaling_exponent(1, 1, GammaPair(3, 3)) == 1.0

    def test_heavier_side_wins(self):
        assert theory.scaling_exponent(2, 2, GammaPair(1.5, 4)) == pytest.approx(4 / 3)

    @pytest.mark.parametrize("gammas", [(math.nan, 2.0), (2.0, math.nan), (0.0, 2.0)])
    def test_non_positive_or_nan_gamma_rejected(self, gammas):
        with pytest.raises(ValueError):
            GammaPair(*gammas)


class TestLimitExponents:
    def test_in_out_heavy_both(self):
        ex = theory.limit_exponents(IN_OUT, GammaPair(1.5, 1.5))
        assert ex.a == 1 and ex.b == 1
        assert ex.c == pytest.approx(4 / 3)
        assert ex.d == pytest.approx(4 / 3)
        assert ex.a < ex.c and ex.b < ex.d

    def test_in_out_mixed(self):
        ex = theory.limit_exponents(IN_OUT, GammaPair(3, 1.5))
        assert (ex.a, ex.b, ex.d) == (1, 1, 1)
        assert ex.c == pytest.approx(4 / 3)

    def test_out_out_example(self):
        ex = theory.limit_exponents(OUT_OUT, GammaPair(2, 5))
        assert ex.c == pytest.approx(3 / 2)  # third out-moment
        assert ex.a == 1  # squared second moment over |E|

    def test_in_out_formulas_at_sampled_gammas(self):
        # the In/Out constants follow the printed maxima pattern
        rng = np.random.default_rng(4)
        for _ in range(200):
            gp = GammaPair(*rng.uniform(1.01, 6, 2))
            ex = theory.limit_exponents(IN_OUT, gp)
            m1 = max(1 / gp.gamma_out, 1 / gp.gamma_in, 1)
            assert ex.a == pytest.approx(2 * m1 - 1)
            assert ex.b == pytest.approx(2 * m1 - 1)
            assert ex.c == pytest.approx(max(1 / gp.gamma_out, 2 / gp.gamma_in, 1))
            assert ex.d == pytest.approx(max(2 / gp.gamma_out, 1 / gp.gamma_in, 1))


class TestRegion:
    def test_heavy_tailed_corner_all_types(self):
        for t in dc.ALL_TYPES:
            assert theory.region_contains(t, GammaPair(1.5, 1.5))

    def test_mixed_point(self):
        gp = GammaPair(2.5, 4.0)
        assert theory.region_contains(OUT_IN, gp)
        assert theory.region_contains(OUT_OUT, gp)
        assert not theory.region_contains(IN_IN, gp)
        assert not theory.region_contains(IN_OUT, gp)

    def test_light_tailed_outside_all(self):
        for t in dc.ALL_TYPES:
            assert not theory.region_contains(t, GammaPair(3.5, 3.5))

    def test_boundaries_excluded(self):
        assert not theory.region_contains(OUT_OUT, GammaPair(3.0, 2.0))

    def test_matches_exponent_criterion(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10_000:
            x, y = rng.uniform(1 + 1e-6, 6, 2)
            if min(abs(x - 2), abs(x - 3), abs(y - 2), abs(y - 3)) < 1e-6:
                continue
            gp = GammaPair(x, y)
            for t in dc.ALL_TYPES:
                assert theory.region_contains(t, gp) == theory.exponent_criterion(t, gp)
            checked += 1


class TestClosedFormsAgainstMeasures:
    def test_pearson_sweep(self):
        for n in (1, 2, 3, 5, 9):
            for a in (1, 2, 5):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                assert theory.closed_form_pearson_bridge(n, a) == pytest.approx(
                    dc.pearson(g, IN_OUT), abs=1e-12
                )

    def test_pearson_limit_is_one(self):
        assert theory.closed_form_pearson_bridge(10**6, 1) >= 0.999999 - 1e-6

    def test_disconnected_pearson_vanishes(self):
        assert abs(theory.closed_form_pearson_bridge_disconnected(10**5, 1)) < 1e-9

    def test_spearman_sweep_both_variants(self):
        for n in (1, 2, 3, 7):
            for a in (1, 2, 4):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                assert theory.closed_form_spearman_bridge(n, a) == pytest.approx(
                    dc.spearman_average(g, IN_OUT), abs=1e-12
                )
                gd = dc.disconnected_bridge_graph(dc.BridgeParams(n, a * n))
                assert theory.closed_form_spearman_bridge(n, a, "disconnected") == pytest.approx(
                    dc.spearman_average(gd, IN_OUT), abs=1e-12
                )

    def test_spearman_limit_minus_one(self):
        assert theory.closed_form_spearman_bridge(10**4, 3) == pytest.approx(-1, abs=1e-3)

    def test_ranked_sweep(self):
        for n in (1, 2, 3, 8):
            for a in (1, 2, 4):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                assert theory.closed_form_spearman_ranked(n, a, "by_index") == pytest.approx(
                    dc.spearman_ranked(g, IN_OUT, "by_index", "by_index"), abs=1e-12
                )
                assert theory.closed_form_spearman_ranked(n, a, "by_reverse_index") == pytest.approx(
                    dc.spearman_ranked(g, IN_OUT, "by_index", "by_reverse_index"), abs=1e-12
                )

    def test_ranked_by_index_limit_sign_flip(self):
        # limit (a^3 - 3a^2 - 3a + 1)/(a+1)^3 crosses zero between a=3 and a=4
        assert theory.closed_form_spearman_ranked(10**4, 3, "by_index") < 0
        val = theory.closed_form_spearman_ranked(10**4, 4, "by_index")
        assert val == pytest.approx(5 / 125, abs=1e-2)

    def test_tau_counts_sweep(self):
        for n in (1, 2, 3, 10):
            for a in (1, 2, 5):
                g = dc.bridge_graph(dc.BridgeParams(n, a * n))
                got = dc.concordance_counts(dc.edge_degree_pairs(g, IN_OUT))
                assert theory.tau_counts_bridge(n, a) == got
                assert theory.closed_form_tau_bridge(n, a) == pytest.approx(
                    dc.kendall_tau(g, IN_OUT), abs=1e-15
                )

    def test_tau_closed_counts_for_generic_n(self):
        assert theory.tau_counts_bridge(2, 1) == (4, 4)
        assert theory.tau_counts_bridge(2, 2) == (6, 8)

    def test_tau_limit(self):
        assert theory.closed_form_tau_bridge(10**3, 1) == pytest.approx(-0.5, abs=0.002)


class TestPrintedPolynomials:
    """The n >= 2 closed forms reduce to fixed polynomial ratios; pin them."""

    def test_spearman_connected_polynomial(self):
        for n in range(2, 30):
            for a in range(1, 6):
                num = -(a * a + a) * n**3 + (a + 1) ** 2 * n * n + (a + 1) * n
                den = (a * a + a) * n**3 + (a + 1) ** 2 * n * n + (a + 1) * n
                assert theory.closed_form_spearman_bridge(n, a) == pytest.approx(
                    num / den, abs=1e-12
                )

    def test_spearman_disconnected_polynomial(self):
        for n in range(2, 30):
            for a in range(1, 6):
                num = -(a * a + a) * n**3 + (a * a + 1) * n * n + (a + 1) * n - 2
                sm = (a * a + a) * n**3 + (a * a + 4 * a + 2) * n * n + (3 * a + 4) * n + 2
                sp = (a * a + a) * n**3 + (2 * a * a + 4 * a + 1) * n * n + (4 * a + 3) * n + 2
                assert theory.closed_form_spearman_bridge(n, a, "disconnected") == pytest.approx(
                    num / math.sqrt(sm * sp), abs=1e-12
                )

    def test_ranked_polynomials(self):
        for n in range(2, 30):
            for a in range(1, 6):
                e = (a + 1) * n + 1
                den = e**3 - e
                num18 = (a**3 - 3 * a**2 - 3 * a + 1) * n**3 + 3 * (a + 1) ** 2 * n**2 + 2 * (a + 1) * n
                assert theory.closed_form_spearman_ranked(n, a, "by_index") == pytest.approx(
                    num18 / den, abs=1e-12
                )
                num19 = -((a + 1) ** 3) * n**3 + 3 * (a + 1) ** 2 * n**2 + 4 * (a + 1) * n
                assert theory.closed_form_spearman_ranked(n, a, "by_reverse_index") == pytest.approx(
                    num19 / den, abs=1e-12
                )

    def test_sigma_product_polynomial_on_source_side(self):
        # (a^2+a)n^3 + (a+1)^2 n^2 + (a+1)n is the exact squared deviation of
        # the source-side ranks; the target side matches it only at a = 1
        for n in range(2, 20):
            for a in range(1, 5):
                sx2, sy2 = theory.sigma_products_bridge(n, a)
                want = (a * a + a) * n**3 + (a + 1) ** 2 * n * n + (a + 1) * n
                assert sx2 == want
                if a == 1:
                    assert sy2 == want

    def test_tau_polynomial_counts(self):
        for n in range(2, 30):
            for a in range(1, 6):
                assert theory.tau_counts_bridge(n, a) == ((a + 1) * n, a * n * n)


class TestLimits:
    def test_tau_limit_values(self):
        assert theory.tau_limit_bridge(1) == -0.5
        assert theory.tau_limit_bridge(4) == pytest.approx(-8 / 25)
        assert theory.tau_limit_bridge(1e9) == pytest.approx(0.0, abs=1e-8)

    def test_tau_limit_matches_closed_form(self):
        for a in (1, 2, 3, 7):
            n = 10**5
            assert theory.closed_form_tau_bridge(n, a) == pytest.approx(
                theory.tau_limit_bridge(a), abs=1e-3
            )

    def test_spearman_mean_limit_from_expectation_identity(self):
        # exact finite-n expectation approaches -3a/(a+1)^2
        import math as _math

        for a in (1, 2, 5):
            n = 10**4
            m = (a + 1) * n + 1
            sx2, sy2 = theory.sigma_products_bridge(n, a)
            exact = (
                3 * _math.sqrt(sx2 * sy2) / (m**3 - m)
                * theory.closed_form_spearman_bridge(n, a)
            )
            assert exact == pytest.approx(theory.spearman_uniform_mean_limit(a), abs=2e-3)

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            theory.tau_limit_bridge(0)
        with pytest.raises(ValueError):
            theory.spearman_uniform_mean_limit(0)


class TestSupportFunction:
    def test_unit_value_at_symmetric_point(self):
        assert theory.support_function_f(1.0, 1.0) == pytest.approx(1.0)

    def test_boundary_limits_are_one(self):
        for a in (0.5, 2.0, 10.0):
            assert theory.support_function_f(1e-12, a) == pytest.approx(1.0, abs=1e-5)
            assert theory.support_function_f(1e12, a) == pytest.approx(1.0, abs=1e-5)

    def test_argmin_by_golden_section(self):
        a = 3.0
        lo, hi = 1e-6, 10.0
        phi = (math.sqrt(5) - 1) / 2
        c = hi - phi * (hi - lo)
        d = lo + phi * (hi - lo)
        for _ in range(100):
            if theory.support_function_f(c, a) < theory.support_function_f(d, a):
                hi = d
            else:
                lo = c
            c = hi - phi * (hi - lo)
            d = lo + phi * (hi - lo)
        xmin = 0.5 * (lo + hi)
        assert abs(xmin - theory.argmin_support_function(a)) < 1e-6

    def test_solver_hits_requested_minimum(self):
        for eps in (0.2, 0.5, 0.9):
            a = theory.solve_support_minimum(eps)
            assert theory.support_function_f(1 / a, a) == pytest.approx(eps, abs=1e-8)

    def test_solver_agrees_with_derived_branch_not_printed_one(self):
        # solving f(1/a) = eps gives a = (2 - eps^2 + 2 sqrt(1-eps^2)) / eps^2;
        # the variant with sqrt(1 - eps) in place of 2 sqrt(1 - eps^2) does not
        # solve the equation
        for eps in (0.3, 0.5, 0.7):
            a = theory.solve_support_minimum(eps)
            derived = (2 - eps**2 + 2 * math.sqrt(1 - eps**2)) / eps**2
            assert a == pytest.approx(derived, abs=1e-6)
            printed = (2 - eps**2 + math.sqrt(1 - eps)) / eps**2
            assert abs(theory.support_function_f(1 / printed, printed) - eps) > 1e-3


class TestScalingStudy:
    def test_light_tail_linear_growth(self):
        rows = theory.scaling_study(
            dc.PowerLawSpec(5.0), dc.PowerLawSpec(5.0), [1000, 4000, 16000], [(1, 0)], 10, 3
        )
        assert rows[0].predicted == 1.0
        assert rows[0].slope == pytest.approx(1.0, abs=0.05)

    def test_heavy_tail_superlinear_growth(self):
        rows = theory.scaling_study(
            dc.PowerLawSpec(1.5),
            dc.PowerLawSpec(1.5),
            [1000, 10_000, 100_000],
            [(2, 0)],
            20,
            3,
        )
        assert rows[0].predicted == pytest.approx(4 / 3)
        assert rows[0].slope == pytest.approx(4 / 3, abs=0.15)

    def test_deterministic(self):
        a = theory.scaling_study(
            dc.PowerLawSpec(2.0), dc.PowerLawSpec(2.0), [100, 200, 400], [(1, 0), (2, 0)], 5, 8
        )
        b = theory.scaling_study(
            dc.PowerLawSpec(2.0), dc.PowerLawSpec(2.0), [100, 200, 400], [(1, 0), (2, 0)], 5, 8
        )
        assert a == b

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            theory.scaling_study(dc.PowerLawSpec(2.0), dc.PowerLawSpec(2.0), [10, 20], [(1, 0)], 3, 0)

    @pytest.mark.parametrize("pq", [(math.nan, 0), (math.inf, 0), (2, -math.inf)])
    def test_non_finite_moment_orders_rejected(self, pq):
        with pytest.raises(ValueError, match="finite"):
            theory.scaling_study(dc.PowerLawSpec(2.0), dc.PowerLawSpec(2.0), [10, 20, 40], [pq], 1, 0)

    # x**1e300 overflows for every degree above 1; x**-1e300 is 0 for all of them
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("pq, xmin", [((1e300, 0), 1), ((-1e300, 0), 2)])
    def test_moment_sums_outside_the_log_domain_rejected(self, pq, xmin):
        spec = dc.PowerLawSpec(2.0, xmin)
        with pytest.raises(ValueError, match="must be finite positive"):
            theory.scaling_study(spec, spec, [10, 20, 40], [pq], 1, 0)


class TestBridgeDistributionStudy:
    def test_realizations_on_spawned_seeds(self):
        spec = dc.PowerLawSpec(1.5)
        got = theory.bridge_distribution_study(50, 2.0, spec, 3, 11)
        seeds = [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(11).spawn(3)]
        want = [dc.pearson(dc.random_bridge_collection(50, 2.0, spec, s), IN_OUT) for s in seeds]
        assert got == want

    @pytest.mark.parametrize("reals", [0, -1])
    def test_needs_one_realization(self, reals):
        with pytest.raises(ValueError, match="realization"):
            theory.bridge_distribution_study(50, 1.0, dc.PowerLawSpec(1.5), reals, 0)
