import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragrisk.harm import FragmentWeights, HarmParams, fragmented_harm, harm, jensen_gap, survival_comparison
from fragrisk.pareto import ParetoParams


class TestHarmParams:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            HarmParams(k=0.0, beta=1.0)
        with pytest.raises(ValueError):
            HarmParams(k=-1.0, beta=1.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            HarmParams(k=1.0, beta=-0.1)

    @pytest.mark.parametrize("k, beta", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite(self, k, beta):
        with pytest.raises(ValueError):
            HarmParams(k=k, beta=beta)


class TestFragmentWeights:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FragmentWeights((1.2, -0.2))
        with pytest.raises(ValueError):
            FragmentWeights((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FragmentWeights((0.5, 0.4))
        with pytest.raises(ValueError):
            FragmentWeights((0.5, 0.5, 0.1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FragmentWeights(())

    def test_tolerates_tiny_sum_error_and_renormalizes(self):
        w = FragmentWeights((0.5, 0.5 + 5e-10))
        assert math.isclose(sum(w.w), 1.0, abs_tol=1e-15)


class TestHarm:
    def test_zero_error_zero_harm(self):
        assert harm(HarmParams(1.0, 2.0), 0.0) == 0.0

    def test_unit_case(self):
        assert harm(HarmParams(1.0, 2.0), 1.0) == -1.0

    def test_power_evaluations(self):
        assert harm(HarmParams(1.0, 1.5), 4.0) == -8.0
        assert harm(HarmParams(2.0, 3.0), 2.0) == -16.0

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            harm(HarmParams(1.0, 2.0), -0.5)

    def test_beta_zero_convention(self):
        # 0**0 treated as 1, so the flat harm -k applies even at x = 0
        assert harm(HarmParams(3.0, 0.0), 0.0) == -3.0
        assert harm(HarmParams(3.0, 0.0), 7.0) == -3.0

    def test_monotone_nonincreasing(self):
        params = HarmParams(2.0, 1.7)
        xs = np.linspace(0.0, 10.0, 50)
        values = [harm(params, x) for x in xs]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v <= 0 for v in values)


class TestFragmentedHarm:
    def test_single_fragment_is_plain_harm(self):
        params = HarmParams(1.0, 2.0)
        assert fragmented_harm(params, FragmentWeights((1.0,)), 3.0) == harm(params, 3.0) == -9.0

    def test_even_split(self):
        assert fragmented_harm(HarmParams(1.0, 2.0), FragmentWeights((0.5, 0.5)), 1.0) == -0.5

    def test_linear_harm_is_neutral(self):
        value = fragmented_harm(HarmParams(1.0, 1.0), FragmentWeights((0.3, 0.7)), 10.0)
        assert value == pytest.approx(-10.0, abs=1e-12)

    def test_equal_weights_closed_form(self):
        # N fragments of 1/N each scale harm by N**(1-beta); exact for N a
        # power of two, where 1/N and its powers are representable.
        params = HarmParams(1.0, 2.0)
        for n in (1, 2, 4, 8):
            expected = n ** (1.0 - params.beta) * harm(params, 3.0)
            assert fragmented_harm(params, FragmentWeights((1.0 / n,) * n), 3.0) == expected
        for n in (3, 5, 7):
            expected = n ** (1.0 - params.beta) * harm(params, 3.0)
            got = fragmented_harm(params, FragmentWeights((1.0 / n,) * n), 3.0)
            assert got == pytest.approx(expected, rel=1e-13)


class TestJensenGap:
    def test_trivial_split_gap_zero(self):
        assert jensen_gap(HarmParams(1.0, 2.0), FragmentWeights((1.0,)), 5.0) == 0.0

    def test_even_split_convex(self):
        assert jensen_gap(HarmParams(1.0, 2.0), FragmentWeights((0.5, 0.5)), 1.0) == 0.5

    def test_linear_gap_zero(self):
        gap = jensen_gap(HarmParams(1.0, 1.0), FragmentWeights((0.2, 0.8)), 7.0)
        assert abs(gap) <= 1e-12

    def test_zero_error_gap_zero(self):
        assert jensen_gap(HarmParams(1.0, 2.0), FragmentWeights((0.4, 0.6)), 0.0) == 0.0

    def test_matches_difference_of_harms(self):
        params = HarmParams(2.0, 2.5)
        weights = FragmentWeights((0.2, 0.3, 0.5))
        direct = fragmented_harm(params, weights, 4.0) - harm(params, 4.0)
        assert jensen_gap(params, weights, 4.0) == pytest.approx(direct, rel=1e-12)

    @given(
        beta=st.floats(1.0, 4.0),
        k=st.floats(1e-6, 10.0),
        x=st.floats(0.0, 100.0),
        raw=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_convex_direction(self, beta, k, x, raw):
        weights = FragmentWeights(tuple(v / sum(raw) for v in raw))
        assert jensen_gap(HarmParams(k, beta), weights, x) >= -1e-12

    @given(
        beta=st.floats(1e-6, 1.0, exclude_max=True),
        k=st.floats(1e-6, 10.0),
        x=st.floats(0.0, 100.0),
        raw=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_concave_direction(self, beta, k, x, raw):
        weights = FragmentWeights(tuple(v / sum(raw) for v in raw))
        assert jensen_gap(HarmParams(k, beta), weights, x) <= 1e-12

    @given(
        beta=st.floats(1.0, 4.0),
        k=st.floats(1e-6, 10.0),
        x=st.floats(0.0, 50.0),
        y=st.floats(0.0, 50.0),
    )
    @settings(max_examples=200)
    def test_superadditive_magnitude(self, beta, k, x, y):
        params = HarmParams(k, beta)
        combined = abs(harm(params, x + y))
        parts = abs(harm(params, x)) + abs(harm(params, y))
        assert combined >= parts * (1.0 - 1e-12) - 1e-12


class TestSurvivalComparison:
    def test_linear_harm_bitwise_equal(self):
        params = HarmParams(1.0, 1.0)
        error_model = ParetoParams(4.0, 1.0)
        for weights in (FragmentWeights((0.5, 0.5)), FragmentWeights((0.3, 0.7)), FragmentWeights((0.25,) * 4)):
            cen, dec = survival_comparison(params, 10.0, weights, error_model)
            assert cen == dec

    def test_single_fragment_identical(self):
        weights = FragmentWeights((1.0,))
        cen, dec = survival_comparison(HarmParams(1.0, 2.0), 10.0, weights, ParetoParams(4.0, 1.0))
        assert cen == dec

    def test_mean_gap_matches_analytic_moment(self):
        # For beta=2 and an even 2-way split the gap is k*E[X^2]/2 = alpha*L^2/(2*(alpha-2)) = 1.0
        # at alpha=4, L=1: the arms keep 10 - 2 and 10 - 2/2.
        weights = FragmentWeights((0.5, 0.5))
        cen, dec = survival_comparison(HarmParams(1.0, 2.0), 10.0, weights, ParetoParams(4.0, 1.0))
        assert (cen, dec, dec - cen) == (8.0, 9.0, 1.0)

    @pytest.mark.parametrize("alpha, beta, scale", [(4.0, 1.5, 2.0), (3.0, 0.5, 0.5), (2.5, 2.0, 1.0)])
    def test_means_are_closed_form(self, alpha, beta, scale):
        # E[X^beta] = alpha L^beta / (alpha - beta); here with k = 2 and a 3-way split
        shares = (0.2, 0.3, 0.5)
        moment = alpha * scale**beta / (alpha - beta)
        error_model = ParetoParams(alpha, scale)
        cen, dec = survival_comparison(HarmParams(2.0, beta), 7.0, FragmentWeights(shares), error_model)
        assert cen == pytest.approx(7.0 - 2.0 * moment, rel=1e-14)
        assert dec == pytest.approx(7.0 - 2.0 * moment * sum(w**beta for w in shares), rel=1e-14)
        assert (dec > cen) == (beta > 1.0)

    def test_diverging_mean_rejected(self):
        weights = FragmentWeights((0.5, 0.5))
        for alpha in (1.5, 2.0):  # alpha < beta and alpha == beta
            with pytest.raises(ValueError, match="diverges"):
                survival_comparison(HarmParams(1.0, 2.0), 10.0, weights, ParetoParams(alpha, 1.0))

    @pytest.mark.parametrize("unit_value", [0.0, -1.0, math.inf, math.nan])
    def test_unit_value_must_be_finite_and_positive(self, unit_value):
        with pytest.raises(ValueError, match="unit value"):
            survival_comparison(
                HarmParams(1.0, 2.0), unit_value, FragmentWeights((0.5, 0.5)), ParetoParams(4.0, 1.0)
            )

    @pytest.mark.parametrize("shift", [(1e-2, 0.0), (0.0, 1e-2), (-1e-2, -1e-2)])
    def test_verify_oracle_fails_an_off_closed_form(self, monkeypatch, shift):
        # the check must compare against its own Monte Carlo, not the closed form with itself
        from fragrisk import verify

        assert verify.check_survival_comparison().passed

        def off(params, *args):
            cen, dec = survival_comparison(params, *args)
            if params.beta == 1.0:  # leave the beta=1 arms equal, so only the Monte Carlo can fail
                return cen, dec
            return cen + shift[0], dec + shift[1]

        monkeypatch.setattr(verify, "survival_comparison", off)
        assert not verify.check_survival_comparison().passed
