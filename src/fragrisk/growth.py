"""Capacity growth of scale-up vs scale-out designs.

A modular chassis fills its slots and saturates: capacity follows
saturation * erf(units).  A fixed-port design adds switches without bound:
capacity is ports_per_switch * units.  ``crossover`` finds the module count
beyond which the linear design always wins.

The error function is implemented here (confluent series, all-positive
terms) so the numbers are reproducible without relying on any platform
primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# erf(26) differs from 1 by ~1e-294; beyond this the series buys nothing.
_SERIES_CUTOFF = 26.0


def erf_value(x: float) -> float:
    """Gauss error function, accurate to ~1e-15 relative on [-6, 6].

    Uses the all-positive-term series

        erf(x) = 2/sqrt(pi) * exp(-x*x) * sum_{n>=0} (2x^2)^n * x / (1*3*...*(2n+1))

    which involves no cancellation, then clamps to the open range (-1, 1)
    boundary 1.0 where rounding overshoots.  Odd by construction:
    erf(-x) == -erf(x) exactly.
    """
    x = float(x)
    if math.isnan(x):
        return x
    ax = abs(x)
    if ax >= _SERIES_CUTOFF:
        return math.copysign(1.0, x)
    term = ax
    total = ax
    twice_sq = 2.0 * ax * ax
    n = 0
    while n < 400:
        n += 1
        term *= twice_sq / (2 * n + 1)
        total += term
        if term <= total * 1e-18:
            break
    value = min(_TWO_OVER_SQRT_PI * math.exp(-ax * ax) * total, 1.0)
    return math.copysign(value, x)


@dataclass(frozen=True)
class GrowthSpec:
    """Either a sigmoid-limited modular design or an unbounded linear one."""

    kind: str  # "sigmoid" or "linear"
    saturation_capacity: float | None = None
    ports_per_switch: int | None = None

    def __post_init__(self):
        if self.kind == "sigmoid":
            size = self.saturation_capacity
            if size is None or not 0 < size < math.inf:
                raise ValueError(f"sigmoid growth needs a positive, finite saturation_capacity, got {size}")
        elif self.kind == "linear":
            size = self.ports_per_switch
            if size is None or not 0 < size < math.inf:
                raise ValueError(f"linear growth needs a positive, finite ports_per_switch, got {size}")
        else:
            raise ValueError(f"growth kind must be 'sigmoid' or 'linear', got {self.kind!r}")

    @classmethod
    def sigmoid(cls, saturation_capacity: float) -> "GrowthSpec":
        return cls("sigmoid", saturation_capacity=saturation_capacity)

    @classmethod
    def linear(cls, ports_per_switch: int) -> "GrowthSpec":
        return cls("linear", ports_per_switch=ports_per_switch)


def capacity_at(g: GrowthSpec, units: float) -> float:
    """Port capacity after installing ``units`` modules or switches.

    Sigmoid capacity is saturation * erf(units), never exceeding saturation;
    linear capacity is ports_per_switch * units, unbounded.
    """
    units = float(units)
    if units < 0:
        raise ValueError(f"units must be nonnegative, got {units}")
    if g.kind == "sigmoid":
        return g.saturation_capacity * erf_value(units)
    return g.ports_per_switch * units


def crossover(sig: GrowthSpec, lin: GrowthSpec) -> float:
    """Smallest unit count beyond which the linear design never trails.

    Returns the least u >= 0 with linear(v) >= sigmoid(v) for all v >= u,
    located by bisection to 1e-9 absolute, or to adjacent floats where their
    spacing is wider.  Always finite: the sigmoid is bounded and the linear
    design is not.
    """
    if sig.kind != "sigmoid" or lin.kind != "linear":
        raise ValueError("crossover expects (sigmoid, linear) growth specs")
    sat = sig.saturation_capacity
    ports = float(lin.ports_per_switch)

    # Initial slope of the sigmoid is sat * 2/sqrt(pi); a steeper line never trails.
    if ports >= sat * _TWO_OVER_SQRT_PI:
        return 0.0

    def margin(u: float) -> float:
        return ports * u - sat * erf_value(u)

    lo = 0.0
    hi = sat / ports + 1.0  # margin(hi) >= ports > 0 since erf < 1
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats, more than 1e-9 apart
            break
        if margin(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi
