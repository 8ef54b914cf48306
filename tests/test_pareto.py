import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate

from fragrisk import pareto
from fragrisk.harm import HarmParams
from fragrisk.pareto import (
    ParetoParams,
    degradation_curve,
    degradation_ratio,
    fragment_harm_density,
    harm_quantile,
    mc_tail_mean,
    pareto_quantile,
    pareto_sample,
    tail_mean,
)


def quiet_tail_mean(p, h, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tail_mean(p, h, n)


class TestParetoParams:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ParetoParams(alpha=0.0, scale=1.0)
        with pytest.raises(ValueError):
            ParetoParams(alpha=2.0, scale=0.0)

    @pytest.mark.parametrize("alpha, scale", [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite(self, alpha, scale):
        with pytest.raises(ValueError):
            ParetoParams(alpha=alpha, scale=scale)


class TestParetoSample:
    def test_quantile_zero_is_scale(self):
        assert pareto_quantile(ParetoParams(2.0, 3.0), 0.0) == 3.0
        assert pareto_quantile(ParetoParams(5.0, 0.25), 0.0) == 0.25

    def test_quantile_matches_survival(self):
        p = ParetoParams(3.0, 2.0)
        x = pareto_quantile(p, 0.875)  # survival (L/x)^3 = 1/8 at x = 2L
        assert x == pytest.approx(4.0, rel=1e-14)

    def test_support_floor(self):
        x = pareto_sample(ParetoParams(2.0, 3.0), 100_000, seed=1)
        assert float(x.min()) >= 3.0

    def test_mean_matches_analytic(self):
        # E[X] = alpha*L/(alpha-1) = 2 at alpha=2, L=1; sample SE is valid
        # here even though the variance integral sits at its boundary.
        x = pareto_sample(ParetoParams(2.0, 1.0), 10**6, seed=42)
        se = float(x.std(ddof=1)) / math.sqrt(len(x))
        assert abs(float(x.mean()) - 2.0) <= 3.0 * se

    def test_survival_probability(self):
        x = pareto_sample(ParetoParams(3.0, 2.0), 10**6, seed=42)
        frac = float(np.mean(x > 4.0))
        target = (2.0 / 4.0) ** 3
        se = math.sqrt(target * (1.0 - target) / len(x))
        assert abs(frac - target) <= 3.0 * se

    def test_deterministic(self):
        a = pareto_sample(ParetoParams(2.0, 1.0), 1000, seed=7)
        b = pareto_sample(ParetoParams(2.0, 1.0), 1000, seed=7)
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            pareto_sample(ParetoParams(2.0, 1.0), 0, seed=7)


class TestFragmentHarmDensity:
    def test_support_boundary_value(self):
        # At the largest attainable harm the density is alpha/(beta*k*L**beta)
        p, h = ParetoParams(2.0, 1.0), HarmParams(1.0, 2.0)
        assert fragment_harm_density(p, h, 1, -1.0) == 1.0

    def test_above_support_zero(self):
        p, h = ParetoParams(2.0, 1.0), HarmParams(1.0, 2.0)
        bound = -(1.0 * (1.0 / 2) ** 2.0)
        assert fragment_harm_density(p, h, 2, bound / 2) == 0.0
        assert fragment_harm_density(p, h, 2, 0.0) == 0.0
        assert fragment_harm_density(p, h, 2, 1.0) == 0.0

    def test_normalization_by_quadrature(self):
        p, h, n = ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5), 2
        bound = -(h.k * (p.scale / n) ** h.beta)
        total, _ = integrate.quad(
            lambda xi: fragment_harm_density(p, h, n, xi), -np.inf, bound, epsabs=1e-10, epsrel=1e-10
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_requires_positive_beta(self):
        with pytest.raises(ValueError):
            fragment_harm_density(ParetoParams(2.0, 1.0), HarmParams(1.0, 0.0), 1, -1.0)

    def test_requires_valid_fragments(self):
        with pytest.raises(ValueError):
            fragment_harm_density(ParetoParams(2.0, 1.0), HarmParams(1.0, 2.0), 0, -1.0)


class TestTailMean:
    def test_closed_form_single_fragment(self):
        assert quiet_tail_mean(ParetoParams(3.0, 1.0), HarmParams(1.0, 1.5), 1) == -2.0

    def test_closed_form_two_fragments(self):
        value = tail_mean(ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5), 2)
        assert value == pytest.approx(-1.6 * 2.0 ** (-7.0 / 3.0), rel=1e-14)
        assert value == pytest.approx(-0.3174802103936399, rel=1e-12)

    def test_linear_harm_fragmentation_neutral(self):
        # beta=1 makes N*tail_mean(N) constant in N
        p, h = ParetoParams(3.0, 1.0), HarmParams(2.0, 1.0)
        base = quiet_tail_mean(p, h, 1)
        for n in (2, 3, 8):
            assert n * quiet_tail_mean(p, h, n) == pytest.approx(base, rel=1e-12)

    def test_always_negative(self):
        for alpha, beta, n in ((4.0, 1.5, 1), (2.5, 2.0, 3), (10.0, 1.0, 5)):
            assert quiet_tail_mean(ParetoParams(alpha, 1.0), HarmParams(1.0, beta), n) < 0

    def test_divergent_requires_alpha_above_beta(self):
        with pytest.raises(ValueError, match="diverges"):
            tail_mean(ParetoParams(1.5, 1.0), HarmParams(1.0, 2.0), 1)
        with pytest.raises(ValueError, match="diverges"):
            tail_mean(ParetoParams(2.0, 1.0), HarmParams(1.0, 2.0), 1)

    def test_warns_between_thresholds(self):
        # converges for alpha > beta but warns until alpha > 1 + beta
        with pytest.warns(UserWarning):
            tail_mean(ParetoParams(2.0, 1.0), HarmParams(1.0, 1.5), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail_mean(ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5), 1)


class TestMcTailMean:
    def test_single_trial_matches_manual_draw(self):
        p, h = ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5)
        draw = float(pareto_sample(p, 1, seed=5)[0])
        xi = -(h.k * draw**h.beta)
        expected = xi if xi <= -(h.k * p.scale**h.beta) else 0.0
        assert mc_tail_mean(p, h, 1, 1, seed=5) == expected

    # below beta = 1 the threshold lies beyond the whole support, so the tail mean is the full mean
    @pytest.mark.parametrize(
        "n, beta",
        [
            pytest.param(1, 1.5, id="1"),
            pytest.param(2, 1.5, id="2"),
            pytest.param(1, 0.5, id="1-beta0.5"),
            pytest.param(2, 0.5, id="2-beta0.5"),
        ],
    )
    def test_converges_to_closed_form(self, n, beta):
        p, h = ParetoParams(4.0, 1.0), HarmParams(1.0, beta)
        closed = tail_mean(p, h, n)
        estimate = mc_tail_mean(p, h, n, 10**6, seed=42)
        assert abs(estimate - closed) / abs(closed) <= 0.02

    def test_deterministic(self):
        p, h = ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5)
        assert mc_tail_mean(p, h, 2, 10_000, seed=9) == mc_tail_mean(p, h, 2, 10_000, seed=9)

    def test_draw_limit_is_exact(self, monkeypatch):
        p, h = ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5)
        monkeypatch.setattr(pareto, "_MAX_DRAWS", 5)
        mc_tail_mean(p, h, 2, 5, seed=9)
        with pytest.raises(ValueError, match="^6 trials are more than the 5e\\+00 draws"):
            mc_tail_mean(p, h, 2, 6, seed=9)


class TestDegradationRatio:
    def test_identity_multiplier(self):
        assert degradation_ratio(ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5), 1.0, 1) == 1.0

    def test_linear_harm_flat(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (2.0, 5.0, 17.0):
                assert degradation_ratio(ParetoParams(3.0, 1.0), HarmParams(1.0, 1.0), k, 1) == 1.0

    def test_reference_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ratio = degradation_ratio(ParetoParams(2.0, 1.0), HarmParams(1.0, 1.5), 2.0, 1)
        assert ratio == pytest.approx(0.6299605249474366, rel=1e-14)
        # below beta = 1 the tail mean is the full mean, so the ratio is K**(1 - beta)
        assert degradation_ratio(ParetoParams(4.0, 1.0), HarmParams(1.0, 0.5), 2.0, 1) == 2**0.5

    def test_matches_tail_mean_ratio(self):
        p, h = ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5)
        for k in (2, 3, 4):
            for n in (1, 2):
                via_means = k * tail_mean(p, h, k * n) / tail_mean(p, h, n)
                assert abs(via_means - degradation_ratio(p, h, float(k), n)) <= 1e-12 * abs(via_means)

    def test_scale_free_in_k_and_l(self):
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = degradation_ratio(ParetoParams(2.5, 1.0), HarmParams(1.0, 2.0), 3.0, 1)
            for _ in range(50):
                k = float(rng.uniform(0.01, 100.0))
                scale = float(rng.uniform(0.01, 100.0))
                ratio = degradation_ratio(ParetoParams(2.5, scale), HarmParams(k, 2.0), 3.0, 1)
                assert ratio == reference

    def test_validation(self):
        p, h = ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5)
        with pytest.raises(ValueError):
            degradation_ratio(p, h, 0.0, 1)
        with pytest.raises(ValueError):
            degradation_ratio(p, h, 0.25, 2)  # K*N < 1
        with pytest.raises(ValueError, match="diverges"):
            degradation_ratio(ParetoParams(1.0, 1.0), HarmParams(1.0, 1.5), 2.0, 1)


P, FLAT = ParetoParams(4.0, 1.0), HarmParams(1.0, 0.0)


# the tail mean, its estimate and the ratio refuse flat harm (beta = 0), the estimate an empty sample
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: tail_mean(P, FLAT, 1), "tail mean requires beta > 0", id="tail_mean-beta0"),
        pytest.param(lambda: mc_tail_mean(P, FLAT, 1, 10, 1), "tail mean requires beta > 0", id="mc_tail_mean-beta0"),
        pytest.param(
            lambda: degradation_ratio(P, FLAT, 2.0, 1),
            "degradation ratio requires beta > 0",
            id="degradation_ratio-beta0",
        ),
        pytest.param(
            lambda: mc_tail_mean(P, HarmParams(1.0, 1.5), 1, 0, 1), "trials must be >= 1", id="mc_tail_mean-trials0"
        ),
    ],
)
def test_rejected_inputs_name_the_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# each function that takes a fragment count N, as a function of N alone
FRAGMENT_FUNCTIONS = {
    "tail_mean": lambda n: tail_mean(P, HarmParams(1.0, 1.5), n),
    "mc_tail_mean": lambda n: mc_tail_mean(P, HarmParams(1.0, 1.5), n, 10, 1),
    "harm_quantile": lambda n: harm_quantile(P, HarmParams(1.0, 1.5), n, 0.5),
    "fragment_harm_density": lambda n: fragment_harm_density(P, HarmParams(1.0, 1.5), n, -1.0),
    "degradation_ratio": lambda n: degradation_ratio(P, HarmParams(1.0, 1.5), 0.5, n),
}


@pytest.mark.parametrize("count", [2.5, math.inf, math.nan])
@pytest.mark.parametrize("function", FRAGMENT_FUNCTIONS.values(), ids=FRAGMENT_FUNCTIONS)
def test_a_fragment_count_must_be_whole(function, count):
    # int() used to round 2.5 down to 2 and raise OverflowError at inf; a whole float is the count it names
    with pytest.raises(ValueError, match=f"^fragment count must be a whole number, got {count}$"):
        function(count)
    assert function(2.0) == function(2)


class TestDegradationCurve:
    def test_reference_curve(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = degradation_curve(ParetoParams(2.0, 1.0), HarmParams(1.0, 1.5), [1.0, 2.0, 4.0, 8.0])
        ratios = [r for _, r in curve]
        assert ratios[0] == 1.0
        assert ratios[1] == pytest.approx(0.63, abs=5e-3)
        assert ratios[2] == pytest.approx(0.397, abs=5e-3)
        assert ratios[3] == pytest.approx(0.25, abs=5e-3)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_linear_harm_constant_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = degradation_curve(ParetoParams(3.0, 1.0), HarmParams(1.0, 1.0), [1.0, 2.0, 10.0])
        assert [r for _, r in curve] == [1.0, 1.0, 1.0]


class TestHistogramAgainstDensity:
    def test_l1_distance_small(self):
        # exact Pareto masses of 50 equal-probability bins against bin masses
        # integrated from the density, so the two agree to rounding
        from fragrisk.verify import QUADRATURE_TOL, histogram_l1_distance

        distance, error = histogram_l1_distance(ParetoParams(4.0, 1.0), HarmParams(1.0, 1.5), 2)
        assert error <= QUADRATURE_TOL
        assert distance <= 1e-12
