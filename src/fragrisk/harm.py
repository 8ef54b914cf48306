"""Nonlinear harm of an error and the effect of splitting exposure.

Harm is modeled as -k * x**beta for an error of magnitude x.  Splitting the
exposure into weighted fragments changes total harm: with beta > 1 the split
strictly reduces harm magnitude, with beta < 1 it increases it, and beta = 1
is neutral.  ``survival_comparison`` measures the same effect on surviving
value under a Pareto error model via paired Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pareto import ParetoParams

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class HarmParams:
    """Scale k > 0 and convexity exponent beta >= 0 of the harm transform."""

    k: float
    beta: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"harm scale k must be positive, got {self.k}")
        if not self.beta >= 0:
            raise ValueError(f"harm exponent beta must be nonnegative, got {self.beta}")
        for name in ("k", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"harm parameter {name} must be finite, got {getattr(self, name)}")

    @property
    def guarantees_fragmentation_benefit(self) -> bool:
        """True iff beta >= 1, the regime where splitting exposure cannot hurt."""
        return self.beta >= 1.0


@dataclass(frozen=True)
class FragmentWeights:
    """Shares w_i in [0, 1] splitting one exposure; they must sum to 1.

    The raw shares are accepted if their sum is within 1e-9 of 1 and are then
    renormalized exactly, so downstream identities (e.g. neutrality at
    beta = 1) hold to rounding rather than to the admission tolerance.
    """

    w: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.w)
        if len(w) < 1:
            raise ValueError("at least one fragment weight is required")
        for v in w:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"fragment weights must lie in [0, 1], got {v}")
        total = float(sum(w))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"fragment weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "w", tuple(v / total for v in w))

    @classmethod
    def equal(cls, count: int) -> "FragmentWeights":
        """Equal split into ``count`` fragments of 1/count each."""
        if count < 1:
            raise ValueError("fragment count must be >= 1")
        return cls((1.0 / count,) * count)

    def __len__(self) -> int:
        return len(self.w)

    def power_sum(self, beta: float) -> float:
        """sum(w_i ** beta); equals 1.0 exactly at beta = 1 for exact weights."""
        import numpy as np

        return float(np.sum(np.asarray(self.w) ** beta))


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
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Mean surviving value of one concentrated unit vs the fragmented split.

    Draws ``trials`` Pareto errors once and evaluates both arms on the same
    draws: the concentrated arm keeps B + harm(X), the fragmented arm keeps
    sum_i (w_i * B + harm(w_i * X)).  Returns (centralized_mean,
    decentralized_mean).  For beta > 1 the fragmented mean dominates up to
    Monte Carlo noise; for beta = 1 the two arms agree draw by draw.

    Requires error_model.alpha > params.beta so the mean harm is finite.
    Deterministic for a fixed seed.
    """
    import numpy as np

    from .pareto import pareto_sample

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not error_model.alpha > params.beta:
        raise ValueError(
            "harm mean diverges: requires tail index alpha > harm exponent beta "
            f"(alpha={error_model.alpha}, beta={params.beta})"
        )
    if not 0 < unit_value < math.inf:
        raise ValueError(f"unit value must be finite and positive, got {unit_value}")

    x = pareto_sample(error_model, trials, seed)
    hx = params.k * x**params.beta
    weight_sum = float(np.sum(np.asarray(weights.w)))
    power_sum = weights.power_sum(params.beta)
    centralized = unit_value - hx
    decentralized = weight_sum * unit_value - hx * power_sum
    return float(centralized.mean()), float(decentralized.mean())
