"""The double-exponential quadrature behind `verify`'s four oracles.

SciPy is not a runtime dependency; here ``scipy.integrate.quad`` is the
reference the oracle itself is checked against.
"""

import itertools
import math
import types

import numpy as np
import pytest
from scipy import integrate

from fragrisk import verify
from fragrisk.harm import HarmParams
from fragrisk.pareto import ParetoParams, fragment_harm_density, harm_quantile
from fragrisk.verify import (
    NORMALIZATION_ALPHAS,
    NORMALIZATION_BETAS,
    NORMALIZATION_FRAGMENTS,
    QUADRATURE_TOL,
    _de_quad,
)

# the configurations and bin count of check_density_histogram
HISTOGRAM_CASES = ((2.0, 1.5, 1), (4.0, 1.5, 2), (4.0, 3.0, 5))
BINS = 50


def scipy_quad(f, a, b):
    value, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def assert_matches_scipy(f, a, b):
    value, error = _de_quad(f, a, b)
    reference = scipy_quad(f, a, b)
    assert error <= QUADRATURE_TOL
    assert abs(value - reference) <= 1e-12 * abs(reference), (a, b, value, reference)


def density(alpha, beta, n):
    p, h = ParetoParams(alpha, 1.0), HarmParams(1.0, beta)
    return p, h, lambda xi: fragment_harm_density(p, h, n, xi)


@pytest.mark.parametrize("x", np.linspace(0.0, 30.0, 121)[1:])
def test_erf_integrand_matches_scipy(x):
    assert_matches_scipy(lambda t: math.exp(-t * t), 0.0, float(x))


def test_erf_quadrature_at_zero_is_exact():
    assert verify.erf_quadrature(0.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "alpha, beta, n",
    [
        (alpha, beta, n)
        for alpha, beta in itertools.product(NORMALIZATION_ALPHAS, NORMALIZATION_BETAS)
        if alpha >= beta
        for n in NORMALIZATION_FRAGMENTS
    ],
)
def test_normalization_integrands_match_scipy(alpha, beta, n):
    p, h, f = density(alpha, beta, n)
    assert_matches_scipy(f, -math.inf, -(h.k * (p.scale / n) ** h.beta))


@pytest.mark.parametrize("alpha, beta, n", HISTOGRAM_CASES)
def test_bin_masses_match_scipy(alpha, beta, n):
    p, h, f = density(alpha, beta, n)
    edges = [-math.inf, *(harm_quantile(p, h, n, i / BINS) for i in range(1, BINS)), -(h.k * (p.scale / n) ** h.beta)]
    for lo, hi in zip(edges, edges[1:]):
        assert_matches_scipy(f, lo, hi)


def test_estimate_flags_an_integrand_it_cannot_resolve():
    # a jump inside the interval breaks the double-exponential decay the rule relies on
    value, error = _de_quad(lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0)
    assert error > QUADRATURE_TOL
    _, error = _de_quad(lambda x: math.nan, 0.0, 1.0)
    assert not error <= QUADRATURE_TOL


QUADRATURE_CHECKS = [
    ("erf-accuracy", verify.check_erf_accuracy),
    ("density-normalization", verify.check_density_normalization),
    ("density-histogram-l1", verify.check_density_histogram),
    ("survival-comparison", verify.check_survival_comparison),
]


@pytest.mark.parametrize("estimate", [2 * QUADRATURE_TOL, math.nan])
@pytest.mark.parametrize("name, check", QUADRATURE_CHECKS, ids=[n for n, _ in QUADRATURE_CHECKS])
def test_check_fails_when_its_oracle_did_not_converge(monkeypatch, name, check, estimate):
    # the values stay exact, so only the error estimate can fail the check
    real = verify._de_quad
    monkeypatch.setattr(verify, "_de_quad", lambda f, a, b: (real(f, a, b)[0], estimate))
    result = check()
    assert (result.name, result.passed) == (name, False)
    assert "quadrature error estimates above 1e-10" in result.detail


def test_erf_oracle_does_not_call_math_erf(monkeypatch):
    # the oracle must stay independent of the erf_value it checks
    def refuse(x):
        raise AssertionError("the oracle called math.erf")

    monkeypatch.setattr(math, "erf", refuse)
    value, error = verify.erf_quadrature(-1.5)
    monkeypatch.undo()
    assert error <= QUADRATURE_TOL
    assert abs(value - math.erf(-1.5)) <= 1e-15


def test_survival_oracle_does_not_sample(monkeypatch):
    # the survival comparison is checked by quadrature alone, so the sampler cannot move its result
    def refuse(*args):
        raise AssertionError("the oracle called pareto_sample")

    monkeypatch.setattr(verify, "pareto_sample", refuse)
    result = verify.check_survival_comparison()
    assert result.passed, result.line()


def nan_like(value):
    """``value`` with every number in it, keys aside, replaced by nan; an object becomes a namespace of its fields."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.nan
    if isinstance(value, np.ndarray):
        return np.full(value.shape, math.nan)
    if isinstance(value, (list, tuple)):
        return type(value)(nan_like(v) for v in value)
    if isinstance(value, dict):
        return {k: nan_like(v) for k, v in value.items()}
    if hasattr(value, "__dict__"):
        return types.SimpleNamespace(**nan_like(vars(value)))
    return value  # str, None


# each check, a production function it calls (as imported into verify), and
# whether its detail prints the error it compares with its tolerance
NAN_CASES = [
    (verify.check_jensen_directions, "jensen-gap-directions", "jensen_gap", False),
    (verify.check_survival_comparison, "survival-comparison", "survival_comparison", True),
    (verify.check_pareto_sampler, "pareto-sampler", "pareto_sample", False),
    (verify.check_density_normalization, "density-normalization", "fragment_harm_density", True),
    (verify.check_density_histogram, "density-histogram-l1", "fragment_harm_density", True),
    (verify.check_tail_mean_mc, "tail-mean-closed-vs-mc", "tail_mean", True),
    (verify.check_degradation_identity, "degradation-ratio-identity", "degradation_ratio", True),
    (verify.check_degradation_curve, "degradation-curve-shape", "degradation_curve", False),
    (verify.check_hop_claims, "hop-and-fault-claims", "hop_histogram", False),
    (verify.check_affected_fraction_oracle, "affected-fraction-vs-bfs", "affected_fraction", True),
    (verify.check_hop_histogram_oracle, "hops-vs-bfs", "hop_histogram", False),
    (verify.check_failure_harm_enumeration, "failure-harm-vs-enumeration", "failure_harm_mc", False),
    (verify.check_erf_accuracy, "erf-accuracy", "erf_value", True),
    (verify.check_growth_model, "growth-model", "sigmoid_capacity", False),
    (verify.check_costing_defaults, "costing-default-ratios", "compare_designs", False),
]


def test_nan_cases_cover_every_check():
    assert [name for _, name, _, _ in NAN_CASES] == [r.name for r in verify.run_all_checks()]


@pytest.mark.parametrize("check, name, function, prints_error", NAN_CASES, ids=[c[1] for c in NAN_CASES])
def test_check_fails_when_the_checked_code_returns_nan(monkeypatch, check, name, function, prints_error):
    # max(worst, nan) keeps worst, and nan < -tol is false: either let a nan pass
    real = getattr(verify, function)
    monkeypatch.setattr(verify, function, lambda *args, **kwargs: nan_like(real(*args, **kwargs)))
    result = check()
    assert (result.name, result.passed) == (name, False), result.line()
    if prints_error:
        assert "nan" in result.detail, result.detail
