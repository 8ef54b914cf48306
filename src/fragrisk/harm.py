"""Nonlinear harm of an error and the effect of splitting exposure.

Harm is modeled as -k * x**beta for an error of magnitude x.  Splitting the
exposure into weighted fragments changes total harm: with beta > 1 the split
strictly reduces harm magnitude, with beta < 1 it increases it, and beta = 1
is neutral.  ``survival_comparison`` gives the same effect on mean surviving
value under a Pareto error model, in closed form.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _Record

if TYPE_CHECKING:
    from .pareto import ParetoParams

WEIGHT_SUM_TOL = 1e-9


class HarmParams(_Record):
    """Scale k > 0 and convexity exponent beta >= 0 of the harm transform; read-only."""

    k: float
    beta: float

    def __init__(self, k: float, beta: float):
        if not k > 0:
            raise ValueError(f"harm scale k must be positive, got {k}")
        if not beta >= 0:
            raise ValueError(f"harm exponent beta must be nonnegative, got {beta}")
        for name, value in (("k", k), ("beta", beta)):
            if not math.isfinite(value):
                raise ValueError(f"harm parameter {name} must be finite, got {value}")
        self.__dict__.update(k=k, beta=beta)


class FragmentWeights(_Record):
    """Shares w_i in [0, 1] splitting one exposure; they must sum to 1.  Read-only.

    The raw shares are accepted if their sum is within 1e-9 of 1 and are then
    renormalized exactly, so downstream identities (e.g. neutrality at
    beta = 1) hold to rounding rather than to the admission tolerance.
    """

    w: tuple[float, ...]

    def __init__(self, w: tuple[float, ...]):
        w = tuple(float(v) for v in w)
        if len(w) < 1:
            raise ValueError("at least one fragment weight is required")
        for v in w:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"fragment weights must lie in [0, 1], got {v}")
        total = float(sum(w))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"fragment weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        self.__dict__["w"] = tuple(v / total for v in w)

    def power_sum(self, beta: float) -> float:
        """sum(w_i ** beta), correctly rounded; equals 1.0 exactly at beta = 1 for exact weights."""
        return math.fsum(v**beta for v in self.w)


def _check_magnitude(x: float) -> float:
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"error magnitude must be finite and nonnegative, got {x}")
    return x


def harm(params: HarmParams, x: float) -> float:
    """Harm -k * x**beta of an error of finite magnitude x >= 0.

    Always <= 0; larger errors harm more (more negative).  0**0 is taken as 1,
    so beta = 0 yields a flat -k even at x = 0.
    """
    x = _check_magnitude(x)
    return -(params.k * x**params.beta) + 0.0  # +0.0 normalizes -0.0


def fragmented_harm(params: HarmParams, weights: FragmentWeights, x: float) -> float:
    """Total harm when the error is split into shares w_i * x.

    Equals sum_i harm(params, w_i * x) = -k * x**beta * sum_i w_i**beta.
    """
    x = _check_magnitude(x)
    return -(params.k * x**params.beta * weights.power_sum(params.beta)) + 0.0


def jensen_gap(params: HarmParams, weights: FragmentWeights, x: float) -> float:
    """fragmented_harm minus harm: >= 0 for beta >= 1, <= 0 for beta <= 1.

    Zero exactly for a trivial split (single fragment) and at x = 0; zero to
    rounding at beta = 1, where harm is additive in the shares.
    """
    x = _check_magnitude(x)
    # Factored form: subtracting the two harm values would cancel
    # catastrophically for near-degenerate weights.
    return params.k * x**params.beta * (1.0 - weights.power_sum(params.beta)) + 0.0


def survival_comparison(
    params: HarmParams,
    unit_value: float,
    weights: FragmentWeights,
    error_model: ParetoParams,
) -> tuple[float, float]:
    """Mean surviving value of one concentrated unit vs the fragmented split.

    The concentrated arm keeps B + harm(X), the fragmented arm keeps
    sum_i (w_i * B + harm(w_i * X)).  With E[X**beta] = alpha * L**beta /
    (alpha - beta) for a Pareto error X, the means are B - k E[X**beta] and
    (sum w) B - k E[X**beta] sum w**beta.  Returns (centralized_mean,
    decentralized_mean).  For beta > 1 the fragmented mean is the larger; for
    beta = 1 the two are equal.

    Requires error_model.alpha > params.beta so the mean harm is finite.
    """
    if not error_model.alpha > params.beta:
        raise ValueError(
            "harm mean diverges: requires tail index alpha > harm exponent beta "
            f"(alpha={error_model.alpha}, beta={params.beta})"
        )
    if not 0 < unit_value < math.inf:
        raise ValueError(f"unit value must be finite and positive, got {unit_value}")

    moment = error_model.alpha * error_model.scale**params.beta / (error_model.alpha - params.beta)
    mean_loss = params.k * moment  # -E[harm(X)]
    centralized = unit_value - mean_loss
    decentralized = math.fsum(weights.w) * unit_value - mean_loss * weights.power_sum(params.beta)
    return centralized, decentralized
