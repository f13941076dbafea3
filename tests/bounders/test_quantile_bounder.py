"""QuantileBounder: scalar/pool parity and soundness.

The order-statistics family reuses Anderson's CSR sample pool.  Its pool
kernels sort the requested segments in place (only those appended to
since their last sort) and gather each endpoint by position, so the pool
tests replay windowed streams and, after every window, pin both bound and
estimate kernels against the scalar order-statistic selection — exact
equality, not 1e-9: both paths pick the same order statistic of the same
multiset.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bounders.quantile import QuantileBounder
from repro.cdfbounds.quantile import empirical_quantile, quantile_rank

A, B = -10.0, 200.0
DELTA = 1e-5


def _assert_matches_scalar(bounder, pool, states, n_rows, estimate_first):
    """Pool kernels == scalar states on every slot, in either call order
    (the executor bounds first and then snapshots the estimate)."""
    if estimate_first:
        est = bounder.estimate_batch(pool, fill=np.nan)
    lo, hi = bounder.confidence_interval_batch(pool, A, B, n_rows, DELTA)
    if not estimate_first:
        est = bounder.estimate_batch(pool, fill=np.nan)
    for slot, state in enumerate(states):
        interval = bounder.confidence_interval(
            state, A, B, int(n_rows[slot]), DELTA
        )
        assert (lo[slot], hi[slot]) == (interval.lo, interval.hi), slot
        if state.count:
            assert est[slot] == bounder.estimate(state), slot
        else:
            assert np.isnan(est[slot]), slot


def _replay(p, plan, size, seed=0, n_rows=2_000):
    """A pool and matching scalar states fed the same per-view streams.

    ``plan`` holds one ``{slot: count}`` per window.  Every other value is
    rounded up to a multiple of 40, so segments carry duplicated values.
    After every window the pool kernels must equal the scalar states
    exactly: a sorted segment that an append failed to mark unsorted
    again would serve a wrong order statistic from its unsorted tail.
    """
    rng = np.random.default_rng(seed)
    bounder = QuantileBounder(p)
    pool = bounder.init_pool(size)
    states = [bounder.init_state() for _ in range(size)]
    n_rows = np.broadcast_to(np.asarray(n_rows, dtype=np.int64), (size,))
    for step, window in enumerate(plan):
        slots = sorted(slot for slot, count in window.items() if count)
        counts = [window[slot] for slot in slots]
        values = rng.uniform(A + 1.0, B - 50.0, sum(counts))
        values[::2] = np.ceil(values[::2] / 40.0) * 40.0
        for slot, chunk in zip(slots, np.split(values, np.cumsum(counts)[:-1])):
            bounder.update_batch(states[slot], chunk)
        if slots:
            indices = np.repeat(np.array(slots, dtype=np.int64), counts)
            bounder.update_pool(pool, indices, values)
        _assert_matches_scalar(
            bounder, pool, states, n_rows, estimate_first=bool(step % 2)
        )
    return bounder, pool, states


def _filled_pair(p, sizes, seed=0, windows=4):
    """:func:`_replay` of random per-window counts in ``[0, sizes[slot]]``."""
    rng = np.random.default_rng(seed)
    plan = [
        {slot: int(rng.integers(0, size + 1)) for slot, size in enumerate(sizes)}
        for _ in range(windows)
    ]
    return _replay(p, plan, len(sizes), seed)


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
    """The pool kernels must equal the scalar reference exactly."""

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

    def test_counts_zero_one_two_step_by_step(self):
        """Slots holding 0, 1 and 2 samples, growing one window at a time
        (checked after every window by the replay)."""
        plan = [
            {1: 1, 2: 2, 3: 1},
            {2: 1, 3: 1, 4: 2},
            {1: 1, 4: 1, 5: 7},
            {},
            {3: 2, 5: 1},
        ]
        for p in (0.1, 0.5, 0.95):
            _, pool, _ = _replay(p, plan, size=6, seed=int(p * 100))
            assert pool.count.tolist() == [0, 2, 3, 4, 3, 8]

    def test_many_distinct_counts_step_by_step(self):
        for p in (0.05, 0.5, 0.9):
            _, pool, _ = _filled_pair(
                p, list(range(60)), seed=int(p * 100), windows=6
            )
            assert np.unique(pool.count).size > 30

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
