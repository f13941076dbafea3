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

from tests.support import bounder_pool_bytes

RTOL = 1e-9
A, B = -5.0, 120.0
DELTA = 1e-7


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


@pytest.mark.parametrize("name", available_bounders())
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


@pytest.mark.parametrize("name", available_bounders())
def test_pool_subset_indices(name):
    """`indices` must bound exactly the requested slots, aligned, and a
    slot's interval must not depend on how many slots a round recomputes:
    every subset size gives the full-pool call's bytes."""
    size = 40
    bounder = get_bounder(name)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pool = bounder.init_pool(size)
        for indices, values in _indexed_stream(rng, size):
            bounder.update_pool(pool, indices, values)
        full_n = rng.integers(1, 400_000, size)
        lo, hi = bounder.confidence_interval_batch(pool, A, B, full_n, DELTA)
        for subset_size in (1, 3, 16, 17):
            subset = np.sort(rng.choice(size, subset_size, replace=False))
            lo_sub, hi_sub = bounder.confidence_interval_batch(
                pool, A, B, full_n[subset], DELTA, indices=subset
            )
            assert lo_sub.tobytes() == lo[subset].tobytes(), (seed, subset_size)
            assert hi_sub.tobytes() == hi[subset].tobytes(), (seed, subset_size)


def test_every_registered_bounder_is_ssi():
    """One kind of registered bounder: certificates only (the loop
    fall-backs exist for third-party bounders alone)."""
    for name in available_bounders():
        assert get_bounder(name).ssi, name


@pytest.mark.parametrize("name", available_bounders())
def test_empty_update_pool_is_a_noop(name):
    """A window that leaves a run no in-view element must not move a
    byte of its bounder pool."""
    bounder = get_bounder(name)
    pool = bounder.init_pool(3)
    bounder.update_pool(pool, np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
    before = bounder_pool_bytes(pool)
    bounder.update_pool(pool, np.zeros(0, dtype=np.int64), np.zeros(0))
    assert bounder_pool_bytes(pool) == before


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
