"""Tests for the Hoeffding(-Serfling) bounder (Algorithm 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounders.hoeffding import (
    HoeffdingSerflingBounder,
    hoeffding_serfling_epsilon,
)


class TestEpsilonFormula:
    def test_matches_paper_formula(self):
        """Algorithm 1 line 8: ε = (b−a)·sqrt(log(1/δ)·(1−(m−1)/N)/(2m))."""
        m, n, a, b, delta = 100, 10_000, 0.0, 1.0, 0.05
        expected = (b - a) * math.sqrt(
            math.log(1 / delta) * (1 - (m - 1) / n) / (2 * m)
        )
        assert hoeffding_serfling_epsilon(m, n, a, b, delta) == pytest.approx(expected)

    def test_no_fpc_variant_is_wider(self):
        """Classical Hoeffding (ρ = 1) is never narrower than the Serfling
        bound, which is why only the Serfling version is offered."""
        with_fpc = hoeffding_serfling_epsilon(100, 1000, 0, 1, 0.05)
        without = math.sqrt(math.log(1 / 0.05) / (2 * 100))
        assert without > with_fpc

    def test_scales_with_range(self):
        narrow = hoeffding_serfling_epsilon(100, 10_000, 0, 1, 0.05)
        wide = hoeffding_serfling_epsilon(100, 10_000, 0, 10, 0.05)
        assert wide == pytest.approx(10 * narrow)

    def test_decreases_with_m(self):
        eps = [hoeffding_serfling_epsilon(m, 10_000, 0, 1, 0.05) for m in (10, 100, 1000)]
        assert eps[0] > eps[1] > eps[2]

    def test_zero_at_full_population_limit(self):
        """Sampling the whole dataset: FPC drives ε to the 1/N floor."""
        eps_full = hoeffding_serfling_epsilon(10_000, 10_000, 0, 1, 1e-10)
        eps_half = hoeffding_serfling_epsilon(5_000, 10_000, 0, 1, 1e-10)
        assert eps_full < eps_half / 10

    def test_trivial_for_empty_sample(self):
        assert hoeffding_serfling_epsilon(0, 100, 0.0, 3.0, 0.05) == 3.0

    def test_dataset_size_monotonicity(self):
        """§3.3: larger N (upper bound) gives a looser ε — never tighter."""
        eps_small = hoeffding_serfling_epsilon(100, 1_000, 0, 1, 0.05)
        eps_large = hoeffding_serfling_epsilon(100, 100_000, 0, 1, 0.05)
        assert eps_large >= eps_small

    @given(
        st.integers(1, 5_000),
        st.integers(5_000, 1_000_000),
        st.floats(1e-15, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_positive_and_monotone_in_delta(self, m, n, delta):
        eps = hoeffding_serfling_epsilon(m, n, 0, 1, delta)
        eps_tighter = hoeffding_serfling_epsilon(m, n, 0, 1, min(delta * 2, 0.9))
        assert eps >= 0
        assert eps_tighter <= eps


class TestHoeffdingSerflingBounder:
    def setup_method(self):
        self.bounder = HoeffdingSerflingBounder()

    def test_empty_state_trivial_bounds(self):
        state = self.bounder.init_state()
        assert self.bounder.lbound(state, 0, 1, 100, 0.05) == 0
        assert self.bounder.rbound(state, 0, 1, 100, 0.05) == 1

    def test_bounds_bracket_sample_mean(self, rng):
        state = self.bounder.init_state()
        values = rng.uniform(0, 1, 500)
        self.bounder.update_batch(state, values)
        lo = self.bounder.lbound(state, 0, 1, 100_000, 0.05)
        hi = self.bounder.rbound(state, 0, 1, 100_000, 0.05)
        assert lo <= values.mean() <= hi

    def test_symmetric_error(self, rng):
        """Hoeffding CIs have the form ĝ ± ε (the PHOS-causing symmetry)."""
        state = self.bounder.init_state()
        values = rng.uniform(0.2, 0.4, 300)
        self.bounder.update_batch(state, values)
        lo = self.bounder.lbound(state, 0, 1, 10_000, 0.05)
        hi = self.bounder.rbound(state, 0, 1, 10_000, 0.05)
        mean = values.mean()
        assert hi - mean == pytest.approx(mean - lo, rel=1e-9)

    def test_width_independent_of_values(self, rng):
        """The PMA signature: CI width depends only on (b−a), m, N, δ."""
        low_state = self.bounder.init_state()
        self.bounder.update_batch(low_state, rng.uniform(0.30, 0.40, 200))
        high_state = self.bounder.init_state()
        self.bounder.update_batch(high_state, rng.uniform(0.60, 0.70, 200))
        low_ci = self.bounder.confidence_interval(low_state, 0, 1, 10_000, 0.05)
        high_ci = self.bounder.confidence_interval(high_state, 0, 1, 10_000, 0.05)
        assert low_ci.width == pytest.approx(high_ci.width, rel=1e-9)

    def test_confidence_interval_clipped_to_range(self):
        state = self.bounder.init_state()
        self.bounder.update(state, 0.05)
        ci = self.bounder.confidence_interval(state, 0, 1, 1_000, 0.05)
        assert ci.lo >= 0.0
        assert ci.hi <= 1.0

    def test_estimate_is_sample_mean(self, rng):
        state = self.bounder.init_state()
        values = rng.normal(5, 1, 100)
        self.bounder.update_batch(state, values)
        assert self.bounder.estimate(state) == pytest.approx(values.mean())

    def test_sample_count(self):
        state = self.bounder.init_state()
        for value in (1.0, 2.0, 3.0):
            self.bounder.update(state, value)
        assert self.bounder.sample_count(state) == 3

    def test_dataset_size_monotonicity_property(self, rng):
        """§3.3: Lbound non-increasing and Rbound non-decreasing in N."""
        state = self.bounder.init_state()
        self.bounder.update_batch(state, rng.uniform(0, 1, 100))
        lb = [self.bounder.lbound(state, 0, 1, n, 0.05) for n in (200, 2_000, 200_000)]
        rb = [self.bounder.rbound(state, 0, 1, n, 0.05) for n in (200, 2_000, 200_000)]
        assert lb[0] >= lb[1] >= lb[2]
        assert rb[0] <= rb[1] <= rb[2]

    def test_validates_arguments(self):
        state = self.bounder.init_state()
        self.bounder.update(state, 0.5)
        with pytest.raises(ValueError):
            self.bounder.lbound(state, 1.0, 0.0, 100, 0.05)

