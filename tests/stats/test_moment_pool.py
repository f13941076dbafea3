"""Property tests: MomentPool slots vs scalar streaming states.

The struct-of-arrays pool must evolve each slot exactly like an
independent :class:`MomentState` fed the same values (up to
floating-point summation order) — the invariant the vectorized
executor's parity rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.streaming import MomentPool, MomentState

RTOL = 1e-9


def _random_batches(rng, size, num_batches, scale=1.0, offset=0.0):
    for _ in range(num_batches):
        count = int(rng.integers(0, 400))
        indices = np.sort(rng.integers(0, size, count)).astype(np.int64)
        values = rng.normal(offset, scale, count)
        yield indices, values


@pytest.mark.parametrize("seed", range(8))
def test_moment_pool_matches_scalar_states(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 12))
    scale = float(rng.uniform(0.1, 100.0))
    offset = float(rng.uniform(-1e4, 1e4))
    pool = MomentPool(size)
    states = [MomentState() for _ in range(size)]
    for indices, values in _random_batches(rng, size, 6, scale, offset):
        pool.update_indexed(indices, values)
        for slot in range(size):
            mask = indices == slot
            if mask.any():
                states[slot].update_batch(values[mask])
    for slot, state in enumerate(states):
        assert pool.count[slot] == state.count
        assert pool.mean[slot] == pytest.approx(state.mean, rel=RTOL, abs=1e-12)
        assert pool.m2[slot] == pytest.approx(state.m2, rel=1e-6, abs=1e-6 * scale**2)
        assert pool.variance[slot] == pytest.approx(
            state.variance, rel=1e-6, abs=1e-9 * scale**2
        )


def test_moment_pool_empty_batches_are_noops():
    pool = MomentPool(3)
    pool.update_indexed(np.array([], dtype=np.int64), np.array([]))
    assert pool.count.sum() == 0
    assert pool.mean.tolist() == [0.0, 0.0, 0.0]


def test_moment_pool_single_slot_matches_update_batch():
    """One slot receiving everything reduces to MomentState.update_batch."""
    rng = np.random.default_rng(3)
    values = rng.gamma(3.0, 50.0, 10_000)
    pool = MomentPool(1)
    pool.update_indexed(np.zeros(values.size, dtype=np.int64), values)
    state = MomentState()
    state.update_batch(values)
    assert pool.count[0] == state.count
    assert pool.mean[0] == pytest.approx(state.mean, rel=1e-12)
    assert pool.m2[0] == pytest.approx(state.m2, rel=1e-9)


def test_moment_pool_mean_accuracy_near_pairwise():
    """The corrected two-pass mean must not inherit bincount's sequential
    summation error (the exhausted-census exactness depends on this)."""
    rng = np.random.default_rng(9)
    values = rng.normal(59.7, 17.0, 20_000)
    pool = MomentPool(1)
    pool.update_indexed(np.zeros(values.size, dtype=np.int64), values)
    assert pool.mean[0] == pytest.approx(float(values.mean()), abs=5e-13)


def test_std_of_matches_full_std():
    rng = np.random.default_rng(21)
    pool = MomentPool(6)
    for indices, values in _random_batches(rng, 6, 4, scale=30.0):
        pool.update_indexed(indices, values)
    subset = np.array([0, 2, 5])
    assert np.allclose(pool.std_of(subset), pool.std[subset], rtol=1e-12)


def test_merge_arrays_matches_pairwise_merge():
    rng = np.random.default_rng(11)
    size = 5
    pool = MomentPool(size)
    states = [MomentState() for _ in range(size)]
    for _ in range(3):
        counts = rng.integers(0, 50, size)
        means = rng.normal(0, 10, size)
        m2s = rng.uniform(0, 100, size) * np.maximum(counts - 1, 0)
        pool.merge_arrays(counts, means, m2s)
        for slot in range(size):
            states[slot].merge_moments(int(counts[slot]), float(means[slot]), float(m2s[slot]))
    for slot, state in enumerate(states):
        assert pool.count[slot] == state.count
        assert pool.mean[slot] == pytest.approx(state.mean, rel=RTOL, abs=1e-12)
        assert pool.m2[slot] == pytest.approx(state.m2, rel=1e-9, abs=1e-9)
