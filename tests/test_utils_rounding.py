"""Tests for the rounding primitives used by the PTAS simplification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rounding import (
    arithmetic_grid_round,
    geometric_round,
    next_power_of_two_exponent,
)


class TestNextPowerOfTwoExponent:
    def test_exact_powers(self):
        assert next_power_of_two_exponent(1.0) == 0
        assert next_power_of_two_exponent(2.0) == 1
        assert next_power_of_two_exponent(1024.0) == 10

    def test_between_powers(self):
        assert next_power_of_two_exponent(3.0) == 1
        assert next_power_of_two_exponent(0.75) == -1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_power_of_two_exponent(0.0)
        with pytest.raises(ValueError):
            next_power_of_two_exponent(-2.0)


class TestArithmeticGridRound:
    def test_zero_stays_zero(self):
        assert arithmetic_grid_round(0.0, 0.25) == 0.0

    def test_never_decreases(self):
        for value in (0.1, 1.0, 3.7, 129.3, 5000.0):
            assert arithmetic_grid_round(value, 0.2) >= value - 1e-12

    def test_within_one_plus_epsilon(self):
        for eps in (0.5, 0.25, 0.1, 0.05):
            for value in (0.3, 1.0, 7.7, 123.4):
                rounded = arithmetic_grid_round(value, eps)
                assert rounded <= (1.0 + eps) * value + 1e-12

    def test_values_on_grid(self):
        # The rounded value equals 2^e + k·ε·2^e for integer k.
        eps = 0.25
        value = 11.3
        rounded = arithmetic_grid_round(value, eps)
        e = next_power_of_two_exponent(value)
        k = (rounded - 2.0**e) / (eps * 2.0**e)
        assert abs(k - round(k)) < 1e-9

    def test_power_of_two_fixed_point(self):
        assert arithmetic_grid_round(8.0, 0.25) == pytest.approx(8.0)

    def test_bounded_distinct_values_per_binade(self):
        # Within one binade [2^e, 2^{e+1}), at most 1/eps + 1 distinct values.
        eps = 0.25
        values = np.linspace(16.0, 31.999, 500)
        rounded = {arithmetic_grid_round(v, eps) for v in values}
        assert len(rounded) <= int(1.0 / eps) + 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            arithmetic_grid_round(-1.0, 0.25)
        with pytest.raises(ValueError):
            arithmetic_grid_round(1.0, 0.0)

    @given(st.floats(min_value=1e-6, max_value=1e9),
           st.sampled_from([0.5, 0.25, 0.125, 0.1]))
    @settings(max_examples=200, deadline=None)
    def test_property_sandwich(self, value, eps):
        rounded = arithmetic_grid_round(value, eps)
        assert value - 1e-9 * value <= rounded <= (1.0 + eps) * value * (1 + 1e-12)


class TestGeometricRound:
    def test_never_increases(self):
        for value in (1.0, 2.5, 7.0, 100.0):
            assert geometric_round(value, 0.2, 1.0) <= value + 1e-12

    def test_within_one_plus_epsilon(self):
        for eps in (0.5, 0.2, 0.1):
            for value in (1.0, 3.3, 47.0):
                rounded = geometric_round(value, eps, 1.0)
                assert value <= rounded * (1.0 + eps) * (1 + 1e-12)

    def test_on_geometric_grid(self):
        eps = 0.3
        rounded = geometric_round(17.0, eps, 1.0)
        k = math.log(rounded) / math.log1p(eps)
        assert abs(k - round(k)) < 1e-6

    def test_floor_value_is_fixed_point(self):
        assert geometric_round(2.0, 0.25, 2.0) == pytest.approx(2.0)

    def test_rejects_below_floor(self):
        with pytest.raises(ValueError):
            geometric_round(0.5, 0.25, 1.0)

    @given(st.floats(min_value=1.0, max_value=1e6), st.sampled_from([0.5, 0.25, 0.1]))
    @settings(max_examples=200, deadline=None)
    def test_property_sandwich(self, value, eps):
        rounded = geometric_round(value, eps, 1.0)
        assert rounded <= value * (1 + 1e-12)
        assert value <= rounded * (1.0 + eps) * (1 + 1e-9)

