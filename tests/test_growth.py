import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragrisk.growth import GrowthSpec, capacity_at, crossover, erf_value
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


class TestGrowthSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthSpec.sigmoid(0.0)
        with pytest.raises(ValueError):
            GrowthSpec.linear(0)
        with pytest.raises(ValueError):
            GrowthSpec("cubic")

    def test_non_finite_rejected(self):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                GrowthSpec.sigmoid(value)
            with pytest.raises(ValueError, match="finite"):
                GrowthSpec.linear(value)


class TestCapacityAt:
    def test_sigmoid_starts_at_zero(self):
        assert capacity_at(GrowthSpec.sigmoid(100.0), 0.0) == 0.0

    def test_linear_multiplication(self):
        assert capacity_at(GrowthSpec.linear(48), 10.0) == 480.0

    def test_sigmoid_near_saturation(self):
        assert capacity_at(GrowthSpec.sigmoid(100.0), 3.0) == pytest.approx(99.99779, abs=1e-4)

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            capacity_at(GrowthSpec.sigmoid(100.0), -1.0)
        with pytest.raises(ValueError):
            capacity_at(GrowthSpec.linear(48), -0.1)

    @given(units=st.floats(0.0, 1000.0))
    @settings(max_examples=300)
    def test_sigmoid_bounded_by_saturation(self, units):
        assert capacity_at(GrowthSpec.sigmoid(100.0), units) <= 100.0

    def test_sigmoid_monotone(self):
        # nondecreasing up to 1-ulp series noise in the flat saturated region
        sig = GrowthSpec.sigmoid(250.0)
        values = [capacity_at(sig, u) for u in np.linspace(0.0, 10.0, 200)]
        assert all(b >= a * (1.0 - 1e-14) for a, b in zip(values, values[1:]))
        strict = [capacity_at(sig, u) for u in np.linspace(0.0, 3.0, 100)]
        assert all(a < b for a, b in zip(strict, strict[1:]))


class TestCrossover:
    def test_equal_rates_cross_below_one(self):
        # linear slope 100 < initial sigmoid slope 100*2/sqrt(pi), so the
        # crossover is positive but erf(1) < 1 forces it at or below 1
        u = crossover(GrowthSpec.sigmoid(100.0), GrowthSpec.linear(100))
        assert 0.0 < u <= 1.0
        assert capacity_at(GrowthSpec.linear(100), 1.0) >= capacity_at(GrowthSpec.sigmoid(100.0), 1.0)

    def test_slow_linear_crosses_near_saturation(self):
        u = crossover(GrowthSpec.sigmoid(100.0), GrowthSpec.linear(1))
        assert 99.0 <= u <= 101.0

    def test_steep_linear_crosses_at_zero(self):
        assert crossover(GrowthSpec.sigmoid(100.0), GrowthSpec.linear(200)) == 0.0

    def test_crossover_point_separates(self):
        sig, lin = GrowthSpec.sigmoid(100.0), GrowthSpec.linear(7)
        u = crossover(sig, lin)
        assert capacity_at(lin, u + 1e-6) >= capacity_at(sig, u + 1e-6)
        assert capacity_at(lin, u * 0.5) < capacity_at(sig, u * 0.5)

    def test_linear_dominates_far_beyond(self):
        sig, lin = GrowthSpec.sigmoid(100.0), GrowthSpec.linear(3)
        u = crossover(sig, lin)
        assert capacity_at(lin, 10.0 * u) >= capacity_at(sig, 10.0 * u)

    def test_crossover_past_seventeen_units(self):
        # erf(20) rounds to 1, so the line 5u meets the saturated 100 at 20 units; a truncated
        # erf series collapsed there and put the crossover at 19.169
        sig, lin = GrowthSpec.sigmoid(100.0), GrowthSpec.linear(5)
        u = crossover(sig, lin)
        assert u == pytest.approx(20.0, abs=1e-8)
        for v in np.linspace(u, 50.0, 301):
            assert capacity_at(lin, float(v)) >= capacity_at(sig, float(v))
        assert capacity_at(sig, 25.0) == 100.0

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossover(GrowthSpec.linear(48), GrowthSpec.sigmoid(100.0))
