"""QuantileBounder: scalar/pool parity and soundness.

The order-statistics family reuses Anderson's CSR sample pool, so the
pool tests pin the batched rank kernel (one row-wise sort per equal-count
group) against the scalar order-statistic selection — exact equality, not
1e-9: both paths pick elements of the same multiset.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bounders.quantile import QuantileBounder
from repro.cdfbounds.quantile import empirical_quantile, quantile_rank

A, B = -10.0, 200.0
DELTA = 1e-5


def _filled_pair(p, sizes, seed=0):
    """A pool and matching scalar states fed the same per-view streams."""
    rng = np.random.default_rng(seed)
    bounder = QuantileBounder(p)
    pool = bounder.init_pool(len(sizes))
    states = [bounder.init_state() for _ in sizes]
    for _ in range(4):
        indices, values = [], []
        for slot, size in enumerate(sizes):
            count = int(rng.integers(0, max(size, 1)))
            chunk = rng.uniform(A + 1.0, B - 50.0, count)
            bounder.update_batch(states[slot], chunk)
            indices.extend([slot] * count)
            values.extend(chunk)
        if indices:
            bounder.update_pool(
                pool, np.array(indices, dtype=np.int64), np.array(values)
            )
    return bounder, pool, states


class TestValidation:
    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                QuantileBounder(p)

    def test_name_carries_level(self):
        assert QuantileBounder(0.95).name == "Quantile(0.95)"


class TestScalar:
    def test_empty_state_trivial_bounds(self):
        bounder = QuantileBounder(0.5)
        state = bounder.init_state()
        assert bounder.lbound(state, A, B, 100, DELTA) == A
        assert bounder.rbound(state, A, B, 100, DELTA) == B
        with pytest.raises(ValueError):
            bounder.estimate(state)

    def test_estimate_is_empirical_quantile(self):
        rng = np.random.default_rng(1)
        values = rng.normal(20, 5, 333)
        for p in (0.25, 0.5, 0.9):
            bounder = QuantileBounder(p)
            state = bounder.init_state()
            bounder.update_batch(state, values)
            assert bounder.estimate(state) == empirical_quantile(values, p)

    def test_bounds_bracket_estimate(self):
        rng = np.random.default_rng(2)
        values = rng.gamma(2.0, 10.0, 800)
        bounder = QuantileBounder(0.5)
        state = bounder.init_state()
        bounder.update_batch(state, values)
        lo = bounder.lbound(state, A, B, 5_000, DELTA / 2)
        hi = bounder.rbound(state, A, B, 5_000, DELTA / 2)
        assert lo <= bounder.estimate(state) <= hi

    def test_exact_at_exhaustion(self):
        """m == n collapses to the exact population quantile even at
        vanishing δ (the clamp is deterministic, no δ spent)."""
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 457)
        bounder = QuantileBounder(0.75)
        state = bounder.init_state()
        bounder.update_batch(state, values)
        interval = bounder.confidence_interval(state, -10.0, 10.0, 457, 1e-15)
        exact = empirical_quantile(values, 0.75)
        assert interval.lo == interval.hi == exact

    def test_coverage_without_replacement(self):
        rng = np.random.default_rng(4)
        n, m, trials, delta = 4_000, 300, 200, 0.1
        population = rng.lognormal(2.0, 0.7, n)
        truth = np.sort(population)[quantile_rank(0.5, n) - 1]
        bounder = QuantileBounder(0.5)
        hits = 0
        for _ in range(trials):
            state = bounder.init_state()
            bounder.update_batch(
                state, rng.choice(population, size=m, replace=False)
            )
            interval = bounder.confidence_interval(state, 0.0, 1e4, n, delta)
            hits += int(interval.lo <= truth <= interval.hi)
        coverage = hits / trials
        assert coverage >= 1.0 - delta - 4.0 * math.sqrt(
            delta * (1 - delta) / trials
        )


class TestPoolParity:
    """The grouped pool kernel must equal the scalar reference exactly."""

    def test_bounds_and_estimates_match_scalar(self):
        sizes = [0, 1, 7, 7, 120, 120, 120, 33]
        for p in (0.1, 0.5, 0.95):
            bounder, pool, states = _filled_pair(p, sizes, seed=int(p * 100))
            n_rows = np.full(len(sizes), 2_000, dtype=np.int64)
            lo = bounder.lbound_batch(pool, A, B, n_rows, DELTA)
            hi = bounder.rbound_batch(pool, A, B, n_rows, DELTA)
            for slot, state in enumerate(states):
                assert lo[slot] == bounder.lbound(state, A, B, 2_000, DELTA)
                assert hi[slot] == bounder.rbound(state, A, B, 2_000, DELTA)
                if state.count:
                    est = bounder.estimate_batch(pool, indices=np.array([slot]))
                    assert est[0] == bounder.estimate(state)

    def test_confidence_interval_batch_splits_delta(self):
        sizes = [50, 50, 9]
        bounder, pool, states = _filled_pair(0.5, sizes, seed=9)
        n_rows = np.array([400, 900, 60], dtype=np.int64)
        lo, hi = bounder.confidence_interval_batch(pool, A, B, n_rows, DELTA)
        for slot, state in enumerate(states):
            interval = bounder.confidence_interval(
                state, A, B, int(n_rows[slot]), DELTA
            )
            assert lo[slot] == interval.lo
            assert hi[slot] == interval.hi

    def test_per_slot_population_bounds(self):
        """Each slot's deterministic clamp uses its own N⁺."""
        bounder, pool, states = _filled_pair(0.5, [64, 64], seed=11)
        m = states[0].count
        lo, hi = bounder.confidence_interval_batch(
            pool, A, B, np.array([m, m * 50], dtype=np.int64), DELTA,
            indices=np.array([0, 1]),
        )
        # Slot 0 is exhausted (m == N⁺): exact point answer.
        assert lo[0] == hi[0] == bounder.estimate(states[0])
        assert hi[1] > lo[1]

    def test_empty_slots_fall_back_to_support(self):
        bounder = QuantileBounder(0.5)
        pool = bounder.init_pool(2)
        lo, hi = bounder.confidence_interval_batch(
            pool, A, B, np.array([10, 10], dtype=np.int64), DELTA
        )
        assert list(lo) == [A, A]
        assert list(hi) == [B, B]
        assert list(bounder.estimate_batch(pool, fill=-1.0)) == [-1.0, -1.0]
