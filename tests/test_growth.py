import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragrisk.growth import crossover, erf_value, linear_capacity, sigmoid_capacity
from fragrisk.verify import QUADRATURE_TOL, erf_quadrature


class TestErfValue:
    def test_zero(self):
        assert erf_value(0.0) == 0.0

    def test_reference_point(self):
        assert erf_value(1.0) == pytest.approx(0.8427007929497148, rel=1e-12)

    def test_saturation(self):
        assert abs(erf_value(6.0) - 1.0) <= 1e-7
        assert erf_value(30.0) == 1.0
        assert erf_value(-30.0) == -1.0

    def test_odd_bitwise(self):
        for x in np.linspace(0.0, 6.0, 101):
            assert erf_value(-float(x)) == -erf_value(float(x))

    def test_range_bounds(self):
        for x in np.linspace(-8.0, 8.0, 201):
            assert -1.0 <= erf_value(float(x)) <= 1.0

    def test_against_quadrature_oracle(self):
        for x in np.linspace(-6.0, 6.0, 61):
            reference, error = erf_quadrature(float(x))
            assert error <= QUADRATURE_TOL
            if reference == 0.0:
                assert erf_value(float(x)) == 0.0
            else:
                assert abs(erf_value(float(x)) - reference) / abs(reference) <= 1e-7

    def test_against_platform_erf(self):
        # past the old 400-term series' reach too: it collapsed to 0.52 at x = 20
        for x in np.linspace(-30.0, 30.0, 601):
            assert erf_value(float(x)) == math.erf(float(x))

    def test_nan_propagates(self):
        assert math.isnan(erf_value(float("nan")))


# each function with the keyword of every number it checks, and a valid value of each
CURVES = [
    (sigmoid_capacity, {"saturation": 100.0, "units": 1.0}),
    (linear_capacity, {"ports_per_switch": 48, "units": 1.0}),
    (crossover, {"saturation": 100.0, "ports_per_switch": 48}),
]
SIZES = [
    pytest.param(fn, name, valid, id=f"{fn.__name__}-{name}") for fn, valid in CURVES for name in valid if name != "units"
]


class TestValidation:
    @pytest.mark.parametrize("fn, name, valid", SIZES)
    def test_zero_rejected(self, fn, name, valid):
        with pytest.raises(ValueError, match=name):
            fn(**{**valid, name: 0})

    @pytest.mark.parametrize("fn, name, valid", SIZES)
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, fn, name, valid, value):
        with pytest.raises(ValueError, match="finite"):
            fn(**{**valid, name: value})

    @pytest.mark.parametrize("units", [-1.0, -0.1, math.nan])
    def test_negative_units_rejected(self, units):
        for fn, size in ((sigmoid_capacity, 100.0), (linear_capacity, 48)):
            with pytest.raises(ValueError, match="units must be >= 0"):
                fn(size, units)


class TestCapacity:
    def test_sigmoid_starts_at_zero(self):
        assert sigmoid_capacity(100.0, 0.0) == 0.0

    def test_linear_multiplication(self):
        assert linear_capacity(48, 10.0) == 480.0

    def test_sigmoid_near_saturation(self):
        assert sigmoid_capacity(100.0, 3.0) == pytest.approx(99.99779, abs=1e-4)

    @given(units=st.floats(0.0, 1000.0))
    @settings(max_examples=300)
    def test_sigmoid_bounded_by_saturation(self, units):
        assert sigmoid_capacity(100.0, units) <= 100.0

    def test_sigmoid_monotone(self):
        # nondecreasing up to 1-ulp series noise in the flat saturated region
        values = [sigmoid_capacity(250.0, u) for u in np.linspace(0.0, 10.0, 200)]
        assert all(b >= a * (1.0 - 1e-14) for a, b in zip(values, values[1:]))
        strict = [sigmoid_capacity(250.0, u) for u in np.linspace(0.0, 3.0, 100)]
        assert all(a < b for a, b in zip(strict, strict[1:]))


class TestCrossover:
    def test_equal_rates_cross_below_one(self):
        # linear slope 100 < initial sigmoid slope 100*2/sqrt(pi), so the
        # crossover is positive but erf(1) < 1 forces it at or below 1
        u = crossover(100.0, 100)
        assert 0.0 < u <= 1.0
        assert linear_capacity(100, 1.0) >= sigmoid_capacity(100.0, 1.0)

    def test_slow_linear_crosses_near_saturation(self):
        u = crossover(100.0, 1)
        assert 99.0 <= u <= 101.0

    def test_steep_linear_crosses_at_zero(self):
        assert crossover(100.0, 200) == 0.0

    def test_crossover_point_separates(self):
        u = crossover(100.0, 7)
        assert linear_capacity(7, u + 1e-6) >= sigmoid_capacity(100.0, u + 1e-6)
        assert linear_capacity(7, u * 0.5) < sigmoid_capacity(100.0, u * 0.5)

    def test_linear_dominates_far_beyond(self):
        u = crossover(100.0, 3)
        assert linear_capacity(3, 10.0 * u) >= sigmoid_capacity(100.0, 10.0 * u)

    def test_crossover_past_seventeen_units(self):
        # erf(20) rounds to 1, so the line 5u meets the saturated 100 at 20 units; a truncated
        # erf series collapsed there and put the crossover at 19.169
        u = crossover(100.0, 5)
        assert u == pytest.approx(20.0, abs=1e-8)
        for v in np.linspace(u, 50.0, 301):
            assert linear_capacity(5, float(v)) >= sigmoid_capacity(100.0, float(v))
        assert sigmoid_capacity(100.0, 25.0) == 100.0
