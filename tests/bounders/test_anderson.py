"""Tests for the Anderson/DKW bounder (Algorithm 3) and its CSR sample pool."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounders.anderson import (
    AndersonBounder,
    CSRSamplePool,
    SampleState,
    anderson_lower_bound,
)
from repro.cdfbounds.dkw import anderson_mean_bounds

A, B = -5.0, 120.0
DELTA = 1e-7


def _stream(rng, size, num_batches=5, max_batch=400):
    """Sorted-index batches with ties in stream order."""
    for _ in range(num_batches):
        count = int(rng.integers(1, max_batch))
        indices = np.sort(rng.integers(0, size, count)).astype(np.int64)
        values = rng.uniform(A + 1.0, B - 20.0, count)
        yield indices, values


class TestSampleState:
    def test_append_and_values(self):
        state = SampleState()
        for value in (1.0, 2.0, 3.0):
            state.append(value)
        assert state.count == 3
        np.testing.assert_array_equal(state.values, [1.0, 2.0, 3.0])

    def test_extend(self):
        state = SampleState()
        state.extend(np.arange(100, dtype=float))
        state.extend(np.arange(5, dtype=float))
        assert state.count == 105
        assert state.values[-1] == 4.0

    def test_growth_beyond_initial_capacity(self):
        state = SampleState()
        for value in range(1000):
            state.append(float(value))
        assert state.count == 1000
        assert state.values[999] == 999.0

    def test_copy_is_independent(self):
        state = SampleState()
        state.append(1.0)
        clone = state.copy()
        clone.append(2.0)
        assert state.count == 1
        assert clone.count == 2


class TestAndersonLowerBound:
    def test_empty_sample_returns_a(self):
        assert anderson_lower_bound(np.array([]), -5.0, 0.05) == -5.0

    def test_tiny_sample_trivial(self):
        """ε >= 1 for small m at small δ: the trivial bound a."""
        sample = np.array([0.5, 0.6])
        assert anderson_lower_bound(sample, 0.0, 1e-12) == 0.0

    def test_matches_manual_computation(self):
        """Algorithm 3: ε·a + (1−ε)·AVG of the floor((1−ε)m) smallest."""
        sample = np.arange(1.0, 101.0)  # 1..100
        a, delta = 0.0, 0.05
        m = sample.size
        eps = math.sqrt(math.log(1 / delta) / (2 * m))
        keep = math.floor((1 - eps) * m)
        expected = eps * a + (1 - eps) * sample[:keep].mean()
        assert anderson_lower_bound(sample, a, delta) == pytest.approx(expected)

    def test_below_sample_mean(self, rng):
        sample = rng.uniform(0, 1, 1000)
        assert anderson_lower_bound(sample, 0.0, 0.05) < sample.mean()

    def test_independent_of_upper_range(self, rng):
        """The PHOS-free signature: Lbound never consults b at all (the
        function does not even take it as an argument) — and the trimmed
        mass comes from the largest *observed* points."""
        sample = rng.uniform(0, 1, 500)
        base = anderson_lower_bound(sample, 0.0, 0.05)
        # Appending one huge value changes the bound only through the
        # sample itself, not through any range parameter.
        assert base == anderson_lower_bound(sample.copy(), 0.0, 0.05)

    def test_depends_on_a(self, rng):
        """PMA's source: the ε mass is pinned to the range endpoint a."""
        sample = rng.uniform(0.4, 0.6, 500)
        near = anderson_lower_bound(sample, 0.39, 0.05)
        far = anderson_lower_bound(sample, -100.0, 0.05)
        assert far < near


class TestAndersonBounder:
    def setup_method(self):
        self.bounder = AndersonBounder()

    def test_requires_sample_memory_flag(self):
        """Table 2's Memory column: Anderson/DKW is the O(m) bounder."""
        assert self.bounder.requires_sample_memory

    def test_empty_state_trivial(self):
        state = self.bounder.init_state()
        assert self.bounder.lbound(state, 0, 1, 100, 0.05) == 0
        assert self.bounder.rbound(state, 0, 1, 100, 0.05) == 1

    def test_bounds_bracket_sample_mean(self, rng):
        state = self.bounder.init_state()
        values = rng.uniform(0, 1, 2000)
        self.bounder.update_batch(state, values)
        lo = self.bounder.lbound(state, 0, 1, 10_000, 0.05)
        hi = self.bounder.rbound(state, 0, 1, 10_000, 0.05)
        assert lo <= values.mean() <= hi

    def test_asymmetric_error(self, rng):
        """Unlike Hoeffding/Bernstein, Anderson's errors are asymmetric
        for skewed samples."""
        state = self.bounder.init_state()
        values = rng.exponential(0.05, 3000).clip(0, 1)
        self.bounder.update_batch(state, values)
        lo = self.bounder.lbound(state, 0, 1, 100_000, 0.05)
        hi = self.bounder.rbound(state, 0, 1, 100_000, 0.05)
        mean = values.mean()
        assert not math.isclose(hi - mean, mean - lo, rel_tol=0.05)

    def test_rbound_mirrors_lbound(self, rng):
        """rbound(S) = (a+b) − lbound((a+b) − S) exactly (Alg. 3 line 11)."""
        values = rng.uniform(2, 5, 800)
        a, b = 0.0, 10.0
        state = self.bounder.init_state()
        self.bounder.update_batch(state, values)
        mirrored = self.bounder.init_state()
        self.bounder.update_batch(mirrored, (a + b) - values)
        assert self.bounder.rbound(state, a, b, 10_000, 0.05) == pytest.approx(
            (a + b) - self.bounder.lbound(mirrored, a, b, 10_000, 0.05)
        )

    def test_estimate(self, rng):
        state = self.bounder.init_state()
        values = rng.normal(3, 1, 100)
        self.bounder.update_batch(state, values)
        assert self.bounder.estimate(state) == pytest.approx(values.mean())

    def test_estimate_empty_raises(self):
        with pytest.raises(ValueError):
            self.bounder.estimate(self.bounder.init_state())

    def test_algorithm3_never_tighter_than_exact_integration(self, rng):
        """Algorithm 3's trimmed-mean form is (slightly) conservative
        relative to exact step-function integration of the DKW band."""
        values = rng.uniform(0, 1, 1500)
        state = self.bounder.init_state()
        self.bounder.update_batch(state, values)
        ci = self.bounder.confidence_interval(state, 0, 1, 10_000, 0.05)
        exact_lo, exact_hi = anderson_mean_bounds(values, 0, 1, 0.05)
        assert ci.lo <= exact_lo + 1e-12
        assert ci.hi >= exact_hi - 1e-12

    @given(st.integers(20, 500), st.floats(0.01, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_property_interval_contains_mean(self, m, delta):
        rng = np.random.default_rng(m)
        values = rng.uniform(0, 1, m)
        state = self.bounder.init_state()
        self.bounder.update_batch(state, values)
        ci = self.bounder.confidence_interval(state, 0, 1, 10 * m, delta)
        assert ci.lo <= values.mean() <= ci.hi


class TestCSRSamplePool:
    def test_append_preserves_stream_order_per_view(self):
        pool = CSRSamplePool(3)
        pool.append_segments([0, 2], [2, 1], np.array([1.0, 2.0, 9.0]))
        pool.append_segments([0, 1, 2], [1, 2, 1], np.array([3.0, 5.0, 6.0, 8.0]))
        np.testing.assert_array_equal(pool.values(0), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(pool.values(1), [5.0, 6.0])
        np.testing.assert_array_equal(pool.values(2), [9.0, 8.0])
        assert pool.count.tolist() == [3, 2, 2]

    def test_growth_rebuild_keeps_contents(self):
        rng = np.random.default_rng(1)
        pool = CSRSamplePool(5)
        mirror = [[] for _ in range(5)]
        for _ in range(30):
            count = int(rng.integers(1, 50))
            indices = np.sort(rng.integers(0, 5, count)).astype(np.int64)
            values = rng.normal(size=count)
            boundaries = np.flatnonzero(np.diff(indices)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [count]))
            pool.append_segments(indices[starts], ends - starts, values)
            for start, end in zip(starts, ends):
                mirror[int(indices[start])].extend(values[start:end].tolist())
        for slot in range(5):
            np.testing.assert_array_equal(pool.values(slot), mirror[slot])

    def test_matrix_gathers_equal_count_views(self):
        pool = CSRSamplePool(4)
        pool.append_segments([0, 1, 3], [2, 2, 2], np.arange(6, dtype=float))
        matrix = pool.matrix(np.array([0, 3]), 2)
        np.testing.assert_array_equal(matrix, [[0.0, 1.0], [4.0, 5.0]])

    def test_growth_leaves_headroom(self):
        """Grown slots must get slack, not an exact-fit region — for a
        stable view population (the executor's case: scrambled data puts
        every occupied view into the first windows) relayouts must be
        logarithmic in the total sample count, not linear in windows."""
        views = 64
        pool = CSRSamplePool(views)
        rebuilds = 0
        rng = np.random.default_rng(3)
        for _ in range(200):  # every view receives rows every window
            counts = rng.integers(1, 40, views).astype(np.int64)
            slots = np.arange(views, dtype=np.int64)
            before = pool._data
            pool.append_segments(
                slots, counts, rng.normal(size=int(counts.sum()))
            )
            rebuilds += pool._data is not before  # _rebuild swaps the buffer
        total = int(pool.count.sum())
        assert (pool._caps >= pool.count).all()
        assert rebuilds <= int(np.log2(total)) + 2, (rebuilds, total)

    def test_fresh_slots_get_a_reserve_at_relayout(self):
        """Never-touched slots are granted FRESH_RESERVE elements at the
        first relayout, so a view arriving a few windows late (with a
        modest first batch) does not force another full relayout."""
        pool = CSRSamplePool(8)
        first = pool.FRESH_RESERVE + 1
        pool.append_segments([0], [first], np.ones(first))
        assert (pool._caps[1:] == pool.FRESH_RESERVE).all()
        before = pool._data
        pool.append_segments([5], [4], np.ones(4))  # fits the reserve
        assert pool._data is before
        np.testing.assert_array_equal(pool.values(5), np.ones(4))

    def test_sort_segments_sorts_only_flagged_slots(self):
        """sort_segments sorts the requested slots appended to since their
        last sort, in place: each keeps its multiset and count, and a
        slot not requested keeps stream order."""
        pool = CSRSamplePool(4)
        pool.append_segments(
            [0, 1, 2], [3, 2, 3], np.array([5.0, 1.0, 3.0, 9.0, 2.0, 8.0, 7.0, 6.0])
        )
        pool.sort_segments(np.array([0, 2, 3]))
        np.testing.assert_array_equal(pool.values(0), [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(pool.values(1), [9.0, 2.0])  # stream order
        np.testing.assert_array_equal(pool.values(2), [6.0, 7.0, 8.0])
        assert pool.count.tolist() == [3, 2, 3, 0]
        assert pool._unsorted.tolist() == [False, True, False, False]

    def test_sorted_slot_is_not_sorted_again(self):
        """A slot sorted since its last append is skipped: scribbling an
        unsorted order into its segment survives a second sort call."""
        pool = CSRSamplePool(2)
        pool.append_segments([0, 1], [3, 2], np.array([3.0, 1.0, 2.0, 5.0, 4.0]))
        pool.sort_segments(np.array([0, 1]))
        pool.values(0)[:] = [9.0, 8.0, 7.0]  # not a real pool state: a probe
        pool.sort_segments(np.array([0, 1]))
        np.testing.assert_array_equal(pool.values(0), [9.0, 8.0, 7.0])

    def test_append_flags_a_sorted_slot_again(self):
        pool = CSRSamplePool(2)
        pool.append_segments([0, 1], [2, 2], np.array([4.0, 2.0, 8.0, 6.0]))
        pool.sort_segments(np.array([0, 1]))
        pool.append_segments([0], [2], np.array([3.0, 1.0]))
        assert pool._unsorted.tolist() == [True, False]
        # Sorted prefix, then the new tail in stream order.
        np.testing.assert_array_equal(pool.values(0), [2.0, 4.0, 3.0, 1.0])
        pool.sort_segments(np.array([0, 1]))
        np.testing.assert_array_equal(pool.values(0), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(pool.values(1), [6.0, 8.0])

    def test_sort_survives_rebuild(self):
        """A relayout copies segments in order, so a sorted segment stays
        sorted and keeps its flag."""
        pool = CSRSamplePool(2)
        pool.append_segments([0], [4], np.array([4.0, 3.0, 2.0, 1.0]))
        pool.sort_segments(np.array([0]))
        before = pool._data
        first = pool.FRESH_RESERVE + 1
        pool.append_segments([1], [first], np.arange(first, 0.0, -1.0))
        assert pool._data is not before  # slot 1 forced a relayout
        np.testing.assert_array_equal(pool.values(0), [1.0, 2.0, 3.0, 4.0])
        assert pool._unsorted.tolist() == [False, True]

    def test_order_statistics_gather_by_position(self):
        pool = CSRSamplePool(3)
        pool.append_segments([0, 2], [3, 2], np.array([30.0, 10.0, 20.0, 5.0, 4.0]))
        pool.sort_segments(np.arange(3))
        picked = pool.order_statistics(np.array([0, 0, 2]), np.array([1, 3, 2]))
        np.testing.assert_array_equal(picked, [10.0, 30.0, 5.0])

    def test_empty_append_is_noop(self):
        pool = CSRSamplePool(2)
        pool.append_segments(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        )
        assert pool.count.tolist() == [0, 0]

    def test_zero_size_pool(self):
        pool = CSRSamplePool(0)
        assert pool.size == 0
        with pytest.raises(ValueError):
            CSRSamplePool(-1)


def test_anderson_csr_bounds_match_scalar_states():
    """The CSR pool's grouped row-wise partition kernel must reproduce the
    scalar per-view SampleState bounds (same trim multiset per view)."""
    bounder = AndersonBounder()
    size = 7
    rng = np.random.default_rng(5)
    pool = bounder.init_pool(size)
    states = [bounder.init_state() for _ in range(size)]
    for indices, values in _stream(rng, size):
        bounder.update_pool(pool, indices, values)
        for slot in range(size):
            mask = indices == slot
            if mask.any():
                bounder.update_batch(states[slot], values[mask])
    n_plus = np.array([4_000 + 11 * i for i in range(size)])
    lo, hi = bounder.confidence_interval_batch(pool, A, B, n_plus, DELTA)
    for slot in range(size):
        expected = bounder.confidence_interval(
            states[slot], A, B, int(n_plus[slot]), DELTA
        )
        assert lo[slot] == pytest.approx(expected.lo, rel=1e-9, abs=1e-9)
        assert hi[slot] == pytest.approx(expected.hi, rel=1e-9, abs=1e-9)
