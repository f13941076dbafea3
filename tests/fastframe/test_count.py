"""Tests for selectivity/COUNT intervals and the N⁺ bound (§4.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounders.base import Interval
from repro.fastframe.count import (
    SelectivityState,
    count_interval,
    count_interval_batch,
    selectivity_interval,
    sum_interval,
    upper_bound_population,
    upper_bound_population_batch,
)


class TestSelectivityState:
    def test_observe_accumulates(self):
        state = SelectivityState()
        state.observe(3, 10)
        state.observe(2, 10)
        assert state.in_view == 5
        assert state.covered == 20

    def test_rejects_in_view_above_covered(self):
        with pytest.raises(ValueError):
            SelectivityState().observe(5, 3)


class TestSelectivityInterval:
    def test_empty_state_trivial(self):
        assert selectivity_interval(SelectivityState(), 1_000, 0.05) == Interval(0.0, 1.0)

    def test_matches_lemma5_formula(self):
        """σ̂_v ± sqrt(log(2/δ)/(2r)·(1−(r−1)/R))."""
        state = SelectivityState()
        state.observe(30, 100)
        R, delta = 10_000, 0.05
        eps = math.sqrt(math.log(2 / delta) / (2 * 100) * (1 - 99 / R))
        interval = selectivity_interval(state, R, delta)
        assert interval.lo == pytest.approx(max(0.3 - eps, 0.0))
        assert interval.hi == pytest.approx(min(0.3 + eps, 1.0))

    def test_clipped_to_unit(self):
        state = SelectivityState()
        state.observe(0, 10)
        interval = selectivity_interval(state, 1_000, 0.5)
        assert interval.lo == 0.0
        assert interval.hi <= 1.0

    def test_full_coverage_collapses(self):
        state = SelectivityState()
        state.observe(300, 1_000)
        interval = selectivity_interval(state, 1_000, 1e-10)
        assert interval.width < 0.05

    def test_monte_carlo_coverage(self, rng):
        """Lemma 5 holds: the true selectivity is enclosed w.h.p."""
        R, sigma_v, delta = 20_000, 0.13, 0.2
        membership = rng.random(R) < sigma_v
        truth = membership.mean()
        failures, trials = 0, 80
        for seed in range(trials):
            order = np.random.default_rng(seed).permutation(R)[:800]
            state = SelectivityState()
            state.observe(int(membership[order].sum()), 800)
            interval = selectivity_interval(state, R, delta)
            if not interval.lo <= truth <= interval.hi:
                failures += 1
        assert failures / trials <= delta + 3 * math.sqrt(delta * 0.8 / trials)


class TestCountInterval:
    def test_scales_selectivity_by_r(self):
        state = SelectivityState()
        state.observe(50, 100)
        R = 10_000
        sel = selectivity_interval(state, R, 0.05)
        count = count_interval(state, R, 0.05)
        assert count.hi == pytest.approx(sel.hi * R)

    def test_floor_at_observed_rows(self):
        """The deterministic lower bound: we have literally seen in_view
        rows of the view."""
        state = SelectivityState()
        state.observe(7, 10)
        count = count_interval(state, 1_000_000, 0.5)
        assert count.lo >= 7.0

    def test_capped_at_population(self):
        state = SelectivityState()
        state.observe(10, 10)
        count = count_interval(state, 1_000, 0.5)
        assert count.hi <= 1_000


class TestUpperBoundPopulation:
    def test_formula_matches_theorem3(self):
        state = SelectivityState()
        state.observe(100, 1_000)
        R, delta, alpha = 100_000, 1e-6, 0.99
        fpc = 1 - 999 / R
        eps = math.sqrt(math.log(1 / ((1 - alpha) * delta)) / (2 * 1_000) * fpc)
        expected = math.ceil((0.1 + eps) * R)
        assert upper_bound_population(state, R, delta) == expected

    def test_no_coverage_returns_population(self):
        assert upper_bound_population(SelectivityState(), 5_000, 0.05) == 5_000

    def test_monte_carlo_upper_bounds_true_n(self, rng):
        """N⁺ >= N with probability ≥ 1 − (1−α)δ."""
        R, delta = 20_000, 0.1
        membership = rng.random(R) < 0.07
        true_n = int(membership.sum())
        failures, trials = 0, 60
        for seed in range(trials):
            order = np.random.default_rng(seed).permutation(R)[:500]
            state = SelectivityState()
            state.observe(int(membership[order].sum()), 500)
            if upper_bound_population(state, R, delta) < true_n:
                failures += 1
        # The allotted failure budget is (1−α)δ = 0.001; allow binomial noise.
        assert failures <= 2

    def test_never_below_observed(self):
        state = SelectivityState()
        state.observe(400, 400)
        assert upper_bound_population(state, 100_000, 0.5) >= 400


class TestBatchSubsets:
    @pytest.mark.parametrize("subset_size", [1, 3, 16, 17])
    def test_view_bound_independent_of_batch_size(self, subset_size):
        """A view's COUNT interval and N⁺ must not depend on how many views
        a round recomputes: any subset gives the full batch's bytes."""
        rng = np.random.default_rng(subset_size)
        rows, delta, size = 400_000, 1e-9, 40
        covered = rng.integers(0, 30_000, size)
        covered[:3] = 0
        in_view = (covered * rng.uniform(0.0, 1.0, size)).astype(np.int64)
        lo, hi = count_interval_batch(in_view, covered, rows, delta)
        n_plus = upper_bound_population_batch(in_view, covered, rows, delta)
        subset = np.sort(rng.choice(size, subset_size, replace=False))
        lo_sub, hi_sub = count_interval_batch(
            in_view[subset], covered[subset], rows, delta
        )
        n_plus_sub = upper_bound_population_batch(
            in_view[subset], covered[subset], rows, delta
        )
        assert lo_sub.tobytes() == lo[subset].tobytes()
        assert hi_sub.tobytes() == hi[subset].tobytes()
        assert n_plus_sub.dtype == n_plus.dtype
        assert n_plus_sub.tobytes() == n_plus[subset].tobytes()


class TestSumInterval:
    def test_paper_formula_for_positive_aggregates(self):
        """[c_l·g_l, c_r·g_r] when the AVG interval is non-negative."""
        result = sum_interval(Interval(100, 200), Interval(2.0, 3.0))
        assert result == Interval(200.0, 600.0)

    def test_negative_avg_handled_by_corner_hull(self):
        """The documented deviation: the paper's product formula breaks
        for negative means ([c_l·g_l, c_r·g_r] = [-300, -400] would be
        inverted); the hull is correct."""
        result = sum_interval(Interval(100, 200), Interval(-3.0, -2.0))
        assert result == Interval(-600.0, -200.0)

    def test_interval_straddling_zero(self):
        result = sum_interval(Interval(10, 20), Interval(-1.0, 2.0))
        assert result == Interval(-20.0, 40.0)

    @given(
        st.floats(0, 1e6),
        st.floats(0, 1e6),
        st.floats(-1e3, 1e3),
        st.floats(0, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_hull_contains_all_products(self, c_lo, c_span, g_lo, g_span):
        count_ci = Interval(c_lo, c_lo + c_span)
        avg_ci = Interval(g_lo, g_lo + g_span)
        hull = sum_interval(count_ci, avg_ci)
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = rng.uniform(count_ci.lo, count_ci.hi)
            g = rng.uniform(avg_ci.lo, avg_ci.hi)
            assert hull.lo - 1e-6 <= c * g <= hull.hi + 1e-6
