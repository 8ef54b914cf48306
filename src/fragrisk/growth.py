"""Capacity growth of scale-up vs scale-out designs.

A modular chassis fills its slots and saturates: capacity follows
saturation * erf(units).  A fixed-port design adds switches without bound:
capacity is ports_per_switch * units.  ``crossover`` finds the module count
beyond which the linear design always wins.
"""

from __future__ import annotations

import math

from . import _Record

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erf_value(x: float) -> float:
    """Gauss error function, ``math.erf``: odd, within [-1, 1], and exactly 1.0 from x = 6 on."""
    return math.erf(x)


class GrowthSpec(_Record):
    """Either a sigmoid-limited modular design or an unbounded linear one; read-only."""

    kind: str  # "sigmoid" or "linear"
    saturation_capacity: float | None
    ports_per_switch: int | None

    def __init__(self, kind: str, saturation_capacity: float | None = None, ports_per_switch: int | None = None):
        if kind == "sigmoid":
            size = saturation_capacity
            if size is None or not 0 < size < math.inf:
                raise ValueError(f"sigmoid growth needs a positive, finite saturation_capacity, got {size}")
        elif kind == "linear":
            size = ports_per_switch
            if size is None or not 0 < size < math.inf:
                raise ValueError(f"linear growth needs a positive, finite ports_per_switch, got {size}")
        else:
            raise ValueError(f"growth kind must be 'sigmoid' or 'linear', got {kind!r}")
        self.__dict__.update(kind=kind, saturation_capacity=saturation_capacity, ports_per_switch=ports_per_switch)

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
