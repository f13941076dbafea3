"""The mergeable-delta protocol: partition→merge must equal update_pool.

The contract that makes worker-side bounder kernels sound: for every
delta-capable family, ``merge_delta(pool, partition_delta(idx, vals,
size, ctx))`` must execute the same float program as ``update_pool(pool,
idx, vals)`` — byte-identical pool state, not merely close — because the
parallel driver interleaves both paths (workers ship native deltas for
large windows, small windows partition inline) and the determinism suite
demands bit-equality at any parallelism.  Also pins the CSR sample pool
(Anderson's struct-of-arrays rewrite) against the scalar per-view
buffers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bounders.anderson import AndersonBounder, CSRSamplePool
from repro.bounders.registry import available_bounders, get_bounder

from tests.support import MinimalBounder, bounder_pool_bytes as _pool_bytes

A, B = -5.0, 120.0
DELTA = 1e-7


def _stream(rng, size, num_batches=5, max_batch=400):
    """Sorted-index batches with ties in stream order, incl. seed edge cases."""
    for batch in range(num_batches):
        count = int(rng.integers(1, max_batch))
        indices = np.sort(rng.integers(0, size, count)).astype(np.int64)
        values = rng.uniform(A + 1.0, B - 20.0, count)
        yield indices, values


def test_every_registered_bounder_is_ssi_and_delta_capable():
    """One kind of registered bounder: the loop fall-back exists only for
    third-party bounders (``MinimalBounder`` below, the custom-bounder
    example)."""
    for name in available_bounders():
        bounder = get_bounder(name)
        assert bounder.ssi and bounder.supports_delta, name


@pytest.mark.parametrize("name", available_bounders())
def test_partition_merge_matches_update_pool(name):
    """Byte-identical pool evolution through either protocol entry."""
    size = 6
    rng = np.random.default_rng(sum(map(ord, name)))
    batches = list(_stream(rng, size))
    bounder = get_bounder(name)
    via_update = bounder.init_pool(size)
    via_delta = bounder.init_pool(size)
    for indices, values in batches:
        bounder.update_pool(via_update, indices, values)
        delta = bounder.partition_delta(
            indices, values, size, bounder.delta_context(via_delta)
        )
        bounder.merge_delta(via_delta, delta)
        assert _pool_bytes(via_update) == _pool_bytes(via_delta), name


@pytest.mark.parametrize("name", available_bounders())
def test_delta_is_picklable_and_pure(name):
    """Deltas cross process boundaries; partitioning must not mutate the
    pool, so a pickled round-trip delta must merge identically."""
    size = 4
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    bounder = get_bounder(name)
    pool = bounder.init_pool(size)
    reference = bounder.init_pool(size)
    for indices, values in _stream(rng, size, num_batches=3):
        before = _pool_bytes(pool)
        delta = bounder.partition_delta(
            indices, values, size, bounder.delta_context(pool)
        )
        assert _pool_bytes(pool) == before, "partition_delta mutated the pool"
        assert delta.nbytes > 0
        revived = pickle.loads(pickle.dumps(delta))
        bounder.merge_delta(pool, revived)
        bounder.update_pool(reference, indices, values)
    assert _pool_bytes(pool) == _pool_bytes(reference)


@pytest.mark.parametrize("name", available_bounders())
def test_empty_partition_is_a_noop(name):
    size = 3
    bounder = get_bounder(name)
    pool = bounder.init_pool(size)
    bounder.update_pool(pool, np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
    before = _pool_bytes(pool)
    empty = np.zeros(0, dtype=np.int64)
    delta = bounder.partition_delta(
        empty, np.zeros(0), size, bounder.delta_context(pool)
    )
    bounder.merge_delta(pool, delta)
    assert _pool_bytes(pool) == before


def test_moment_delta_bytes_are_o_views():
    """The headline IPC saving: a 10k-row window's delta is 4 arrays of
    pool size, not 10k rows of sorted values."""
    size = 32
    bounder = get_bounder("bernstein")
    rng = np.random.default_rng(0)
    indices = np.sort(rng.integers(0, size, 10_000)).astype(np.int64)
    values = rng.uniform(A, B, indices.size)
    delta = bounder.partition_delta(indices, values, size, None)
    assert delta.nbytes <= 3 * size * 8
    assert delta.nbytes < (indices.nbytes + values.nbytes) / 10


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


def test_non_delta_bounder_raises_on_protocol_entry():
    bounder = MinimalBounder()
    assert not bounder.supports_delta
    with pytest.raises(NotImplementedError):
        bounder.partition_delta(np.array([0]), np.array([1.0]), 1)
    with pytest.raises(NotImplementedError):
        bounder.merge_delta(bounder.init_pool(1), None)
