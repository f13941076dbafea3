"""Tests for the exact hypergeometric COUNT intervals (§4.1 alternative)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastframe.count import (
    SelectivityState,
    count_interval,
    upper_bound_population,
)
from repro.fastframe.hypergeometric import (
    hypergeometric_count_interval,
    hypergeometric_upper_bound_population,
    lower_tail,
    upper_tail,
)


def _state(in_view: int, covered: int) -> SelectivityState:
    state = SelectivityState()
    state.observe(in_view, covered)
    return state


class TestTails:
    def test_upper_tail_monotone_in_view_size(self):
        tails = [upper_tail(10, 1_000, k, 100) for k in (50, 100, 200, 400)]
        assert tails == sorted(tails)

    def test_lower_tail_antitone_in_view_size(self):
        tails = [lower_tail(10, 1_000, k, 100) for k in (50, 100, 200, 400)]
        assert tails == sorted(tails, reverse=True)

    def test_tails_sum_above_one(self):
        """P(X >= m) + P(X <= m) = 1 + P(X = m) >= 1."""
        up = upper_tail(7, 500, 40, 80)
        down = lower_tail(7, 500, 40, 80)
        assert up + down >= 1.0


class TestExactCountInterval:
    def test_no_coverage_is_trivial(self):
        ci = hypergeometric_count_interval(SelectivityState(), 1_000, 0.05)
        assert (ci.lo, ci.hi) == (0.0, 1_000.0)

    def test_census_is_degenerate(self):
        ci = hypergeometric_count_interval(_state(321, 1_000), 1_000, 0.05)
        assert (ci.lo, ci.hi) == (321.0, 321.0)

    def test_encloses_feasible_extremes(self):
        """The CI always contains at least the observed in-view count and
        never exceeds the feasible range."""
        state = _state(25, 100)
        ci = hypergeometric_count_interval(state, 1_000, 0.01)
        assert 25.0 <= ci.lo <= ci.hi <= 925.0

    def test_never_wider_than_lemma5(self):
        """Exact inversion dominates the Hoeffding-Serfling bound."""
        for in_view, covered, rows in [(5, 200, 10_000), (150, 400, 2_000), (0, 500, 5_000)]:
            state = _state(in_view, covered)
            exact = hypergeometric_count_interval(state, rows, 1e-6)
            lemma5 = count_interval(state, rows, 1e-6)
            assert exact.lo >= lemma5.lo - 1e-9
            assert exact.hi <= lemma5.hi + 1e-9

    @pytest.mark.parametrize("in_view,covered", [
        (12, 40_000), (4_000, 40_000), (150_000, 1_500_000),
    ])
    def test_dominates_lemma5_on_a_2m_row_scramble(self, in_view, covered):
        """Sparse-early, moderate and dense-late scans of 2 M rows at δ = 1e-9.
        Sparse early is the regime that bottlenecks GROUP BY queries
        (§5.4.1): there exact inversion is over 10× tighter."""
        state = _state(in_view, covered)
        exact = hypergeometric_count_interval(state, 2_000_000, 1e-9)
        lemma5 = count_interval(state, 2_000_000, 1e-9)
        assert exact.lo >= lemma5.lo - 1e-9
        assert exact.hi <= lemma5.hi + 1e-9
        if in_view == 12:
            assert exact.width < lemma5.width / 10.0

    def test_zero_in_view_small_upper_bound(self):
        """Seeing 0 of 1,000 covered rows certifies a tiny view."""
        ci = hypergeometric_count_interval(_state(0, 1_000), 100_000, 1e-6)
        assert ci.lo == 0.0
        assert ci.hi < 2_500  # ~ln(1/δ)/r · R

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            hypergeometric_count_interval(_state(1, 10), 100, 0.0)

    def test_coverage_monte_carlo(self):
        """Empirical coverage of the exact CI at δ = 0.1."""
        rng = np.random.default_rng(0)
        population, view_size, draws = 2_000, 300, 150
        misses = 0
        trials = 200
        flags = np.zeros(population, dtype=bool)
        flags[:view_size] = True
        for _ in range(trials):
            seen = rng.choice(flags, size=draws, replace=False)
            ci = hypergeometric_count_interval(
                _state(int(seen.sum()), draws), population, 0.1
            )
            if not ci.lo <= view_size <= ci.hi:
                misses += 1
        assert misses / trials <= 0.1

    def test_tightens_with_more_coverage(self):
        loose = hypergeometric_count_interval(_state(10, 100), 10_000, 0.01)
        tight = hypergeometric_count_interval(_state(100, 1_000), 10_000, 0.01)
        assert tight.width < loose.width


class TestExactUpperBound:
    def test_dominated_by_lemma5_n_plus(self):
        for in_view, covered, rows in [(5, 200, 10_000), (150, 400, 2_000)]:
            state = _state(in_view, covered)
            exact = hypergeometric_upper_bound_population(state, rows, 1e-9)
            lemma5 = upper_bound_population(state, rows, 1e-9)
            assert exact <= lemma5

    def test_upper_bound_at_least_observed(self):
        state = _state(42, 50)
        assert hypergeometric_upper_bound_population(state, 1_000, 0.05) >= 42

    def test_no_coverage_returns_population(self):
        assert (
            hypergeometric_upper_bound_population(SelectivityState(), 777, 0.05)
            == 777
        )

    def test_census_returns_exact(self):
        state = _state(5, 100)
        assert hypergeometric_upper_bound_population(state, 100, 0.05) == 5

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            hypergeometric_upper_bound_population(_state(1, 10), 100, 0.05, alpha=1.0)

    def test_covers_true_n_monte_carlo(self):
        """N⁺ exceeds the true view size w.h.p. (the Theorem 3 event)."""
        rng = np.random.default_rng(1)
        population, view_size, draws = 1_000, 120, 200
        flags = np.zeros(population, dtype=bool)
        flags[:view_size] = True
        failures = 0
        trials = 200
        for _ in range(trials):
            seen = rng.choice(flags, size=draws, replace=False)
            n_plus = hypergeometric_upper_bound_population(
                _state(int(seen.sum()), draws), population, 0.1, alpha=0.5
            )
            if n_plus < view_size:
                failures += 1
        assert failures / trials <= 0.05  # budget (1-α)δ = 0.05


class TestHypergeometricProperties:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.sampled_from([0.1, 0.01, 1e-6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_is_feasible_and_ordered(self, covered, in_view, delta):
        in_view = min(in_view, covered)
        rows = 1_000
        ci = hypergeometric_count_interval(_state(in_view, covered), rows, delta)
        assert 0.0 <= ci.lo <= ci.hi <= rows
        # Feasibility: the upper endpoint accounts for the out-of-view rows
        # already seen.
        assert ci.hi <= rows - (covered - in_view)

    @given(st.integers(min_value=1, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_smaller_delta_is_wider(self, in_view):
        covered, rows = 200, 5_000
        in_view = min(in_view, covered)
        wide = hypergeometric_count_interval(_state(in_view, covered), rows, 1e-9)
        narrow = hypergeometric_count_interval(_state(in_view, covered), rows, 0.1)
        assert wide.lo <= narrow.lo and wide.hi >= narrow.hi


class TestExecutorIntegration:
    def test_count_method_validation(self):
        from repro.bounders import get_bounder
        from repro.datasets import make_flights_scramble
        from repro.fastframe import ApproximateExecutor

        scramble = make_flights_scramble(rows=2_000, seed=0)
        with pytest.raises(ValueError):
            ApproximateExecutor(
                scramble, get_bounder("bernstein+rt"), count_method="nope"
            )

    def test_exact_method_end_to_end(self):
        from repro.bounders import get_bounder
        from repro.datasets import make_flights_scramble
        from repro.experiments import build_query
        from repro.fastframe import ApproximateExecutor, ExactExecutor

        scramble = make_flights_scramble(rows=20_000, seed=0)
        query = build_query("F-q1", epsilon=0.5)
        executor = ApproximateExecutor(
            scramble,
            get_bounder("bernstein+rt"),
            delta=1e-6,
            count_method="exact",
            rng=np.random.default_rng(0),
        )
        approx = executor.execute(query).scalar()
        exact = ExactExecutor(scramble).execute(query).scalar()
        # Tolerance covers the float-summation tie when the view is
        # exhausted and both sides are the same exact mean.
        slack = 1e-9 * max(1.0, abs(exact.estimate))
        assert approx.interval.lo - slack <= exact.estimate <= approx.interval.hi + slack

    def test_exact_never_more_rows_than_serfling(self):
        """The tighter COUNT bound can only help early termination."""
        from repro.bounders import get_bounder
        from repro.datasets import make_flights_scramble
        from repro.experiments import build_query
        from repro.fastframe import ApproximateExecutor

        scramble = make_flights_scramble(rows=50_000, seed=1)
        query = build_query("F-q1", epsilon=0.5)
        rows = {}
        for method in ("serfling", "exact"):
            executor = ApproximateExecutor(
                scramble,
                get_bounder("bernstein+rt"),
                delta=1e-6,
                count_method=method,
                rng=np.random.default_rng(7),
            )
            rows[method] = executor.execute(query, start_block=0).metrics.rows_read
        assert rows["exact"] <= rows["serfling"]
