"""Pareto error model and the distribution of harm under equal fragmentation.

An error X follows a Pareto law with tail index alpha and scale L (support
x >= L).  Splitting it into N equal fragments maps each draw to a harm value
xi = -k * (X/N)**beta; ``fragment_harm_density`` is the resulting density,
``tail_mean`` its truncated mean in closed form, and ``mc_tail_mean`` the
matching Monte Carlo estimate.  ``degradation_ratio`` compares the tail mean
across concentration levels and depends only on K, alpha, and beta.
"""

from __future__ import annotations

import math
import warnings

from . import _Record
from .harm import HarmParams

# mc_tail_mean refuses more draws than this: each holds several float64 arrays of that length
_MAX_DRAWS = 10**7


class ParetoParams(_Record):
    """Tail index alpha > 0 and scale L > 0 (minimum error magnitude); read-only."""

    alpha: float
    scale: float

    def __init__(self, alpha: float, scale: float):
        if not alpha > 0:
            raise ValueError(f"tail index alpha must be positive, got {alpha}")
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        for name, value in (("alpha", alpha), ("scale", scale)):
            if not math.isfinite(value):
                raise ValueError(f"Pareto parameter {name} must be finite, got {value}")
        self.__dict__.update(alpha=alpha, scale=scale)


def _check_fragments(fragments: int) -> int:
    try:
        count = int(fragments)
    except (OverflowError, ValueError):  # inf, nan
        count = None
    if count != fragments:
        raise ValueError(f"fragment count must be a whole number, got {fragments}")
    if count < 1:
        raise ValueError(f"fragment count must be >= 1, got {count}")
    return count


def pareto_quantile(p: ParetoParams, q):
    """Inverse CDF: L * (1 - q)**(-1/alpha); q = 0 maps to the scale L."""
    return p.scale * (1.0 - q) ** (-1.0 / p.alpha)


def pareto_sample(p: ParetoParams, count: int, seed: int) -> np.ndarray:
    """``count`` Pareto draws by inverse CDF, deterministic per seed.

    Feeds uniforms on [0, 1) through ``pareto_quantile``, so the q = 1
    singularity is never hit and every draw is >= L.
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return pareto_quantile(p, rng.random(count))


def _support_bound(p: ParetoParams, h: HarmParams, fragments: int) -> float:
    """Largest attainable harm value: xi at the smallest error X = L."""
    return -(h.k * (p.scale / fragments) ** h.beta)


def fragment_harm_density(p: ParetoParams, h: HarmParams, fragments: int, xi: float) -> float:
    """Density of the harm xi = -k * (X/N)**beta of one of N equal fragments.

    Pushforward of the Pareto density through the harm transform:

        g(xi) = alpha * L**alpha * N**(-alpha) * (-xi/k)**(-alpha/beta) / (-beta * xi)

    supported on xi <= -k * (L/N)**beta; returns 0 above that bound
    (including xi >= 0).  Requires beta > 0 for the transform to be
    invertible.
    """
    fragments = _check_fragments(fragments)
    if not h.beta > 0:
        raise ValueError("fragment harm density requires beta > 0")
    xi = float(xi)
    if xi > _support_bound(p, h, fragments):
        return 0.0
    return (
        p.alpha
        * p.scale**p.alpha
        * fragments ** (-p.alpha)
        * (-xi / h.k) ** (-p.alpha / h.beta)
        / (-h.beta * xi)
    )


def harm_quantile(p: ParetoParams, h: HarmParams, fragments: int, q: float) -> float:
    """Analytic q-quantile of the fragment harm, from the Pareto survival function."""
    fragments = _check_fragments(fragments)
    return -(h.k * (p.scale / fragments) ** h.beta * q ** (-h.beta / p.alpha))


def _check_convergence(p: ParetoParams, h: HarmParams) -> None:
    if not p.alpha > h.beta:
        raise ValueError(
            f"tail mean diverges: requires alpha > beta (alpha={p.alpha}, beta={h.beta})"
        )
    if p.alpha <= 1.0 + h.beta:
        warnings.warn(
            f"alpha={p.alpha} is at or below 1 + beta = {1.0 + h.beta}; the mean "
            "converges but lies outside the conventionally safe regime",
            stacklevel=3,
        )


def tail_mean(p: ParetoParams, h: HarmParams, fragments: int) -> float:
    """Closed-form mean of harm beyond the threshold -k * L**beta / N.

    The unconditional truncated mean E[xi * 1{xi <= -k L**beta / N}] of
    xi = -k * (X/N)**beta: -(alpha * k * L**beta * N**(alpha*(1/beta - 1) - 1)) / (alpha - beta)
    for beta >= 1.  Below that the whole support lies beyond the threshold, so
    it is the full mean -(alpha * k * (L/N)**beta) / (alpha - beta).  Always
    negative; requires alpha > beta for convergence.
    """
    fragments = _check_fragments(fragments)
    if not h.beta > 0:
        raise ValueError("tail mean requires beta > 0")
    _check_convergence(p, h)
    if h.beta < 1.0:
        return -(p.alpha * h.k * (p.scale / fragments) ** h.beta) / (p.alpha - h.beta)
    exponent = p.alpha * (1.0 / h.beta - 1.0) - 1.0
    return -(p.alpha * h.k * p.scale**h.beta * fragments**exponent) / (p.alpha - h.beta)


def mc_tail_mean(p: ParetoParams, h: HarmParams, fragments: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of ``tail_mean``, deterministic per seed.

    Samples X, maps to xi = -k * (X/N)**beta, and averages xi over all trials
    counting draws above the threshold as zero (unconditional truncated mean,
    no renormalization).  More than ``_MAX_DRAWS`` trials are refused.
    """
    import numpy as np

    fragments = _check_fragments(fragments)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > _MAX_DRAWS:
        raise ValueError(f"{trials} trials are more than the {_MAX_DRAWS:.0e} draws one run may take")
    if not h.beta > 0:
        raise ValueError("tail mean requires beta > 0")
    _check_convergence(p, h)
    x = pareto_sample(p, trials, seed)
    threshold = -(h.k * p.scale**h.beta / fragments)
    # a k or draw past the float range makes the mean -inf, which a report refuses as not finite;
    # NumPy's overflow warnings would only repeat that
    with np.errstate(over="ignore"):
        xi = -(h.k * (x / fragments) ** h.beta)
        return float(np.where(xi <= threshold, xi, 0.0).mean())


def degradation_ratio(p: ParetoParams, h: HarmParams, multiplier: float, fragments: int) -> float:
    """Mean-harm ratio after K-fold refragmentation: K**(alpha * (1/beta - 1)), or K**(1 - beta) below beta = 1.

    Algebraically equal to K * tail_mean(K*N) / tail_mean(N) and independent
    of N, k, and L.  Below 1 for beta > 1 and K > 1: concentrating exposure
    (small K) degrades the mean.  K must be finite and K*N at least 1.
    """
    fragments = _check_fragments(fragments)
    if not 0 < multiplier < math.inf:
        raise ValueError(f"multiplier K must be finite and positive, got {multiplier}")
    if multiplier * fragments < 1.0:
        raise ValueError(f"K*N must be >= 1, got {multiplier * fragments}")
    if not h.beta > 0:
        raise ValueError("degradation ratio requires beta > 0")
    _check_convergence(p, h)
    if h.beta < 1.0:
        return float(multiplier) ** (1.0 - h.beta)
    return float(multiplier) ** (p.alpha * (1.0 / h.beta - 1.0))


def degradation_curve(
    p: ParetoParams, h: HarmParams, multipliers: list[float]
) -> list[tuple[float, float]]:
    """Rows (K, degradation_ratio(K)); monotone decreasing in K for beta > 1."""
    return [(float(k), degradation_ratio(p, h, k, 1)) for k in multipliers]
