"""Tests for the bounder interface primitives (Interval, validation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounders.base import Interval, validate_bound_args


class TestInterval:
    def test_width_and_midpoint(self):
        interval = Interval(2.0, 6.0)
        assert interval.width == 4.0
        assert interval.midpoint == 4.0

    def test_contains(self):
        interval = Interval(-1.0, 1.0)
        assert 0.0 in interval
        assert -1.0 in interval
        assert 1.0 in interval
        assert 1.5 not in interval

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_midpoint_inside(self, lo, width):
        interval = Interval(lo, lo + width)
        assert interval.lo <= interval.midpoint <= interval.hi


class TestValidateBoundArgs:
    def test_accepts_valid(self):
        validate_bound_args(0.0, 1.0, 100, 0.05)

    def test_accepts_degenerate_range(self):
        validate_bound_args(1.0, 1.0, 1, 0.5)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError, match="a <= b"):
            validate_bound_args(1.0, 0.0, 100, 0.05)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="N"):
            validate_bound_args(0.0, 1.0, 0, 0.05)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            validate_bound_args(0.0, 1.0, 100, delta)
