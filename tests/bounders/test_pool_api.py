"""Pool (struct-of-arrays) bounder API vs the scalar reference.

Every bounder's pool flavour must evolve slot ``i`` exactly like an
independent scalar state fed the same values in the same order, and
``confidence_interval_batch`` must reproduce the scalar
``confidence_interval`` per slot — within floating-point summation
tolerance.  This is the statistical-honesty contract the vectorized
executor core rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import available_bounders, get_bounder

RTOL = 1e-9
A, B = -5.0, 120.0
DELTA = 1e-7

#: Bounders with deterministic bounds (bootstrap is resampling-based; its
#: pool path is the same loop as its scalar path, so parity is trivial).
POOL_BOUNDERS = sorted(set(available_bounders()) - {"bootstrap"})


def _indexed_stream(rng, size, num_batches=4, max_batch=600):
    """Yield (indices, values) batches: sorted indices, stream order kept."""
    for _ in range(num_batches):
        count = int(rng.integers(1, max_batch))
        indices = np.sort(rng.integers(0, size, count))
        values = rng.uniform(A + 1.0, B - 20.0, count)
        yield indices.astype(np.int64), values


def _scalar_states(bounder, size, batches):
    states = [bounder.init_state() for _ in range(size)]
    for indices, values in batches:
        for slot in range(size):
            mask = indices == slot
            if mask.any():
                bounder.update_batch(states[slot], values[mask])
    return states


@pytest.mark.parametrize("name", POOL_BOUNDERS)
def test_pool_matches_scalar_intervals(name):
    size = 7
    rng = np.random.default_rng(sum(map(ord, name)))
    batches = list(_indexed_stream(rng, size))

    scalar_bounder = get_bounder(name)
    pool_bounder = get_bounder(name)
    states = _scalar_states(scalar_bounder, size, batches)
    pool = pool_bounder.init_pool(size)
    for indices, values in batches:
        pool_bounder.update_pool(pool, indices, values)

    counts = pool_bounder.pool_counts(pool)
    n_plus = np.array([5_000 + 137 * i for i in range(size)])
    lo, hi = pool_bounder.confidence_interval_batch(pool, A, B, n_plus, DELTA)
    for slot in range(size):
        assert counts[slot] == scalar_bounder.sample_count(states[slot])
        expected = scalar_bounder.confidence_interval(
            states[slot], A, B, int(n_plus[slot]), DELTA
        )
        assert lo[slot] == pytest.approx(expected.lo, rel=RTOL, abs=1e-9)
        assert hi[slot] == pytest.approx(expected.hi, rel=RTOL, abs=1e-9)


@pytest.mark.parametrize("name", POOL_BOUNDERS)
def test_pool_subset_indices(name):
    """`indices` must bound exactly the requested slots, aligned."""
    size = 9
    rng = np.random.default_rng(0)
    bounder = get_bounder(name)
    pool = bounder.init_pool(size)
    for indices, values in _indexed_stream(rng, size):
        bounder.update_pool(pool, indices, values)
    subset = np.array([1, 4, 8])
    n_plus = np.array([3_000, 4_000, 5_000])
    lo_sub, hi_sub = bounder.confidence_interval_batch(
        pool, A, B, n_plus, DELTA, indices=subset
    )
    full_n = np.full(size, 1)
    full_n[subset] = n_plus
    lo, hi = bounder.confidence_interval_batch(pool, A, B, full_n, DELTA)
    assert np.allclose(lo_sub, lo[subset], rtol=RTOL)
    assert np.allclose(hi_sub, hi[subset], rtol=RTOL)


def test_range_trim_pool_seed_semantics():
    """The first sample of each view only seeds extrema (Alg. 4 lines 3-4),
    in whatever batch/slot interleaving it arrives."""
    bounder = get_bounder("bernstein+rt")
    reference = get_bounder("bernstein+rt")
    size = 3
    pool = bounder.init_pool(size)
    states = [reference.init_state() for _ in range(size)]
    rng = np.random.default_rng(42)
    # Batch 1: slot 0 gets a single (seed-only) value, slot 1 several.
    batches = [
        (np.array([0, 1, 1, 1]), np.array([10.0, 3.0, 9.0, 1.0])),
        (np.array([0, 0, 2]), np.array([12.0, 4.0, 8.0])),
        (np.array([0, 1, 2, 2]), rng.uniform(0.0, 20.0, 4)),
    ]
    for indices, values in batches:
        bounder.update_pool(pool, indices, values)
        for slot in range(size):
            mask = indices == slot
            if mask.any():
                reference.update_batch(states[slot], values[mask])
    assert pool.count.tolist() == [reference.sample_count(s) for s in states]
    n_plus = np.array([100, 100, 100])
    lo, hi = bounder.confidence_interval_batch(pool, 0.0, 20.0, n_plus, DELTA)
    for slot in range(size):
        expected = reference.confidence_interval(states[slot], 0.0, 20.0, 100, DELTA)
        assert lo[slot] == pytest.approx(expected.lo, rel=RTOL)
        assert hi[slot] == pytest.approx(expected.hi, rel=RTOL)


def test_record_clip_skewed_segments_match_brute_force():
    """One huge segment plus many tiny ones: the record-only clip equals a
    brute-force exclusive running max/min per element."""
    from repro.bounders.range_trim import _CLIP_AT_MAX, _CLIP_AT_MIN, _record_clip

    rng = np.random.default_rng(7)
    lengths = [500, 1, 2, 1, 3]
    values = rng.normal(size=sum(lengths))
    indices = np.repeat(np.arange(len(lengths)), lengths)
    carry_max = rng.normal(size=len(lengths))
    carry_min = carry_max - rng.uniform(0.5, 2.0, len(lengths))
    got_left = _record_clip(values, carry_max, _CLIP_AT_MAX, indices)
    got_right = _record_clip(values, carry_min, _CLIP_AT_MIN, indices)
    run_max, run_min = carry_max.copy(), carry_min.copy()
    for j, view in enumerate(indices):
        assert got_left[j] == min(values[j], run_max[view])
        assert got_right[j] == max(values[j], run_min[view])
        run_max[view] = max(run_max[view], values[j])
        run_min[view] = min(run_min[view], values[j])
