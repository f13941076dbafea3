"""Tests for error-probability budget accounting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.delta import DEFAULT_DELTA, DeltaBudget, optstop_round_delta


class TestOptstopRoundDelta:
    def test_round_deltas_sum_to_delta(self):
        """Theorem 4: Σ_k (6/π²)·δ/k² = δ (Basel identity)."""
        delta = 0.05
        total = sum(optstop_round_delta(delta, k) for k in range(1, 200_000))
        assert total == pytest.approx(delta, rel=1e-4)

    def test_first_round_largest(self):
        deltas = [optstop_round_delta(0.1, k) for k in range(1, 10)]
        assert deltas == sorted(deltas, reverse=True)

    def test_decay_rate_is_quadratic(self):
        assert optstop_round_delta(0.1, 2) == pytest.approx(
            optstop_round_delta(0.1, 1) / 4.0
        )

    def test_rejects_bad_round(self):
        with pytest.raises(ValueError, match="round_index"):
            optstop_round_delta(0.1, 0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            optstop_round_delta(1.5, 1)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_positive_and_below_delta(self, k):
        value = optstop_round_delta(0.2, k)
        assert 0.0 < value < 0.2


class TestDeltaBudget:
    def test_default_delta_matches_paper(self):
        assert DEFAULT_DELTA == 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DeltaBudget(0.0)
        with pytest.raises(ValueError):
            DeltaBudget(1.0)

    def test_split_even(self):
        budget = DeltaBudget(0.1)
        assert budget.split_even(10).delta == pytest.approx(0.01)

    def test_split_even_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            DeltaBudget(0.1).split_even(0)

    def test_split_sides(self):
        lo, hi = DeltaBudget(0.1).split_sides()
        assert lo.delta == hi.delta == pytest.approx(0.05)

    def test_for_round_matches_function(self):
        budget = DeltaBudget(0.3)
        assert budget.for_round(5).delta == pytest.approx(
            optstop_round_delta(0.3, 5)
        )

    def test_split_unknown_n_default_alpha(self):
        """§4.1: α = 0.99 sends 1% of the budget to the N⁺ bound."""
        n_plus_delta, ci_budget = DeltaBudget(0.1).split_unknown_n()
        assert n_plus_delta == pytest.approx(0.001)
        assert ci_budget.delta == pytest.approx(0.099)
        assert n_plus_delta + ci_budget.delta == pytest.approx(0.1)

    def test_composed_budget_never_exceeds_total(self):
        """A realistic composition stays within the union bound."""
        total = DeltaBudget(1e-6)
        per_view = total.split_even(25)
        spent = 0.0
        for round_index in range(1, 50):
            round_budget = per_view.for_round(round_index)
            n_plus, ci = round_budget.split_unknown_n()
            spent += 25 * (n_plus + ci.delta)
        assert spent <= total.delta * (1 + 1e-9)

    @given(
        st.floats(min_value=1e-12, max_value=0.5),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_splits_shrink(self, delta, parts):
        budget = DeltaBudget(delta)
        assert budget.split_even(parts).delta <= budget.delta
        assert math.isclose(budget.split_even(parts).delta * parts, delta)
