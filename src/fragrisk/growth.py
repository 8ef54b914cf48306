"""Capacity growth of scale-up vs scale-out designs.

A modular chassis fills its slots and saturates: ``sigmoid_capacity`` is
saturation * erf(units).  A fixed-port design adds switches without bound:
``linear_capacity`` is ports_per_switch * units.  ``crossover`` finds the
module count beyond which the linear design always wins.  Each function
takes only the numbers its curves use.
"""

from __future__ import annotations

import math

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erf_value(x: float) -> float:
    """Gauss error function, ``math.erf``: odd, within [-1, 1], and exactly 1.0 from x = 6 on."""
    return math.erf(x)


def _size(name: str, value: float) -> float:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _units(units: float) -> float:
    units = float(units)
    if not units >= 0:  # nan too
        raise ValueError(f"units must be >= 0, got {units}")
    return units


def sigmoid_capacity(saturation: float, units: float) -> float:
    """Port capacity of a modular design after ``units`` modules: saturation * erf(units), never above saturation."""
    return _size("saturation", saturation) * erf_value(_units(units))


def linear_capacity(ports_per_switch: int, units: float) -> float:
    """Port capacity of a fixed-port design after ``units`` switches: ports_per_switch * units, unbounded."""
    return _size("ports_per_switch", ports_per_switch) * _units(units)


def crossover(saturation: float, ports_per_switch: int) -> float:
    """Smallest unit count beyond which the linear design never trails.

    Returns the least u >= 0 with linear(v) >= sigmoid(v) for all v >= u,
    located by bisection to 1e-9 absolute, or to adjacent floats where their
    spacing is wider.  Always finite: the sigmoid is bounded and the linear
    design is not.
    """
    sat = _size("saturation", saturation)
    ports = float(_size("ports_per_switch", ports_per_switch))

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
