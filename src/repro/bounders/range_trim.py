"""The RangeTrim meta-bounder (Algorithms 4 and 6, §3) — the paper's core.

RangeTrim converts any symmetric, range-based SSI error bounder into an
asymmetric one without **PHOS**: the confidence *lower* bound becomes
independent of the catalog upper range bound ``b`` (it uses the sample MAX
instead), and the *upper* bound independent of ``a`` (it uses the sample
MIN).  When the effective range ``(MAX − MIN)`` of the filtered data is much
smaller than the catalog range ``(b − a)`` — outliers, selective predicates,
sparse groups — the trimmed bounds are dramatically tighter.

Correctness (Theorem 2) rests on Lemma 4: conditioned on the value of
``max S``, the remaining sample ``S − {max S}`` is a uniform
without-replacement sample from ``D_{< max S}``, whose average is at most
``AVG(D)``; so a valid lower bound for ``AVG(D_{< max S})`` computed with
range ``[a, max S]`` and dataset size ``N − 1`` is a valid lower bound for
``AVG(D)``.  Symmetrically for ``min S`` and the upper bound.

The streaming formulation (Algorithm 6) maintains two inner-bounder states:

* ``S_l`` is fed ``min(v, b')`` — each value clipped at the running max
  *before* this value arrived — and is queried with range ``[a, b']``;
* ``S_r`` is fed ``max(v, a')`` and is queried with range ``[a', b]``;

plus O(1) extra memory for the running extrema ``a', b'``.  The very first
sample only initializes the extrema and is never fed to the inner states,
mirroring Algorithm 4 (the inner bounders see ``m − 1`` samples and are
queried with dataset size ``N − 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bounders.base import (
    ErrorBounder,
    MomentPoolBounderMixin,
    segment_bounds,
    validate_bound_args,
)
from repro.stats.streaming import ExtremaState, MomentPool

__all__ = ["RangeTrimBounder", "RangeTrimState", "RangeTrimPool"]

@dataclass
class RangeTrimPool:
    """Struct-of-arrays bank of :class:`RangeTrimState` slots.

    ``left`` / ``right`` are *inner-bounder pools* (whatever the inner
    bounder's :meth:`~repro.bounders.base.ErrorBounder.init_pool` returns);
    ``min`` / ``max`` / ``count`` are per-slot arrays mirroring the scalar
    state's extrema and total sample count.
    """

    left: Any
    right: Any
    min: np.ndarray
    max: np.ndarray
    count: np.ndarray


#: ``(is_candidate, running extremum, clip)`` ufuncs of the two clip sides:
#: ``S_l`` is fed ``min(v, prior max)``, ``S_r`` is fed ``max(v, prior min)``.
_CLIP_AT_MAX = (np.greater, np.maximum, np.minimum)
_CLIP_AT_MIN = (np.less, np.minimum, np.maximum)


def _record_clip(values: np.ndarray, carry, side, indices: np.ndarray | None = None):
    """One side of Algorithm 6's clip over a stream, touching records only.

    Each element is clipped against the running extremum of its view
    *before* it: ``carry`` (the extremum carried from earlier windows),
    then the view's earlier elements of this stream.  ``indices`` is the
    view per element of a view-sorted stream and ``carry`` the per-view
    array it indexes; a single-view stream passes ``indices=None`` and a
    float ``carry``.

    The clip changes ``v`` only where ``v`` is a strict new record of its
    view, and a record must beat the carry, so one compare against the
    carry finds every *candidate*; the exclusive running extremum is then
    computed over the candidates alone — an element at or inside the carry
    can neither be clipped nor move the extremum a later candidate is
    clipped against.  Under a scramble a view holding ``n`` earlier samples
    yields ``m / (n + 1)`` expected candidates from ``m`` new ones whatever
    the data; when every element is a candidate (fresh views, sorted
    input) this is the dense segmented scan.  Max/min prefixes round
    nothing, so the result equals the per-element clip exactly.  Returns
    ``values`` itself (not a copy) when there is no candidate.
    """
    is_candidate, extremum, clip = side
    mask = is_candidate(values, carry if indices is None else carry[indices])
    hits = np.count_nonzero(mask)
    if hits == 0:
        return values
    if hits == values.size:
        # Fresh views, sorted input: the dense scan, no gather or scatter.
        records, views = values, indices
    else:
        candidates = np.flatnonzero(mask)
        records = values[candidates]
        views = None if indices is None else indices[candidates]
    # Exclusive running extremum per view: the carry for a view's first
    # candidate, the inclusive scan shifted by one for the rest (every
    # candidate already beats the carry, so the carry drops out of it).
    if views is None:
        prior = np.full(records.size, carry)
        runs = ((0, records.size),) if records.size > 1 else ()
    else:
        prior = carry[views]
        starts, ends = segment_bounds(views)
        longer = np.flatnonzero(ends - starts > 1)
        runs = zip(starts[longer].tolist(), ends[longer].tolist())
    for start, end in runs:
        extremum.accumulate(records[start : end - 1], out=prior[start + 1 : end])
    if records is values:
        return clip(records, prior)
    clipped = values.copy()
    clipped[candidates] = clip(records, prior)
    return clipped


def _replace_slots(stats, redone, slots: np.ndarray):
    """Per-slot ``(counts, means, m2s)``: ``stats``, with ``slots`` taken
    from ``redone``."""
    out = []
    for kept, fresh in zip(stats, redone):
        kept = kept.copy()
        kept[slots] = fresh[slots]
        out.append(kept)
    return tuple(out)


@dataclass
class RangeTrimState:
    """Composite state: two inner-bounder states plus running extrema.

    ``count`` tracks the total number of samples consumed *including* the
    initial extrema-only sample, so ``count == inner count + 1`` once any
    sample has been seen.
    """

    left: Any
    right: Any
    extrema: ExtremaState
    count: int = 0


class RangeTrimBounder(ErrorBounder):
    """Wrap an inner range-based SSI bounder, eliminating PHOS (Algorithm 6).

    Parameters
    ----------
    inner:
        Any SSI range-based error bounder (one whose only distributional
        assumption is that data fall in the supplied ``[a, b]``), e.g.
        :class:`~repro.bounders.hoeffding.HoeffdingSerflingBounder` or
        :class:`~repro.bounders.bernstein.EmpiricalBernsteinSerflingBounder`.
        Pairing with Bernstein yields the paper's headline bounder with
        neither PMA nor PHOS (Problem 1).

    Notes
    -----
    The wrapped ``lbound`` never reads ``b`` (it substitutes the sample MAX)
    and ``rbound`` never reads ``a``; both still *accept* the catalog bounds
    to satisfy the common interface, and the full two-sided
    :meth:`confidence_interval` clips the result to ``[a, b]``, which is
    always sound.
    """

    def __init__(self, inner: ErrorBounder) -> None:
        self.inner = inner
        self.name = f"{inner.name}+RT"
        self.requires_sample_memory = inner.requires_sample_memory

    def init_state(self) -> RangeTrimState:
        return RangeTrimState(
            left=self.inner.init_state(),
            right=self.inner.init_state(),
            extrema=ExtremaState(),
        )

    def update(self, state: RangeTrimState, value: float) -> None:
        if state.count == 0:
            # Algorithm 4 lines 3-4: the first sample only seeds a', b'.
            state.extrema.update(value)
            state.count = 1
            return
        # Clip against the extrema of *previous* samples (Alg. 4 lines 7-8),
        # then fold the raw value into the extrema (lines 9-10).
        self.inner.update(state.left, min(value, state.extrema.max))
        self.inner.update(state.right, max(value, state.extrema.min))
        state.extrema.update(value)
        state.count += 1

    def update_batch(self, state: RangeTrimState, values: np.ndarray) -> None:
        """Vectorized, order-exact equivalent of per-element :meth:`update`.

        Element ``i`` must be clipped against the extrema of all *earlier*
        elements (previous batches plus ``values[:i]``); only running
        records can be, so the clip runs over those alone
        (:func:`_record_clip`).
        """
        self.update_batch_with_moments(state, values, None)

    def update_batch_with_moments(
        self, state: RangeTrimState, values: np.ndarray, moments
    ) -> None:
        """:meth:`update_batch`, reusing the caller's batch moments on each
        side whose clip changes nothing — a side without a record *is* the
        raw batch, so its inner state takes the hand-down."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if state.count == 0:
            self.update(state, float(values[0]))
            values = values[1:]
            moments = None  # describes the batch including the seed
            if values.size == 0:
                return
        extrema = state.extrema
        left = _record_clip(values, extrema.max, _CLIP_AT_MAX)
        right = _record_clip(values, extrema.min, _CLIP_AT_MIN)
        for inner_state, clipped in ((state.left, left), (state.right, right)):
            if moments is not None and clipped is values:
                self.inner.update_batch_with_moments(inner_state, values, moments)
            else:
                self.inner.update_batch(inner_state, clipped)
        if left is not values or right is not values:
            extrema.update_batch(values)  # without a record the extrema stand
        state.count += values.size

    def sample_count(self, state: RangeTrimState) -> int:
        return state.count

    def estimate(self, state: RangeTrimState) -> float:
        """Point estimate: mean of the left-clipped stream.

        Clipping at the running max alters no value except re-occurrences
        above the prior max, so this tracks the plain sample mean closely;
        the executor reports it alongside the CI.
        """
        if state.count == 0:
            raise ValueError("no samples observed yet")
        if state.count == 1:
            return state.extrema.min  # the single seeded value
        left_mean = self.inner.estimate(state.left)
        right_mean = self.inner.estimate(state.right)
        return 0.5 * (left_mean + right_mean)

    def lbound(self, state: RangeTrimState, a: float, b: float, n: int, delta: float) -> float:
        """Algorithm 4 line 12, left half: inner Lbound with ``b -> b'``.

        Independent of ``b`` by construction (PHOS-free).
        """
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return a
        b_prime = state.extrema.max
        inner_n = max(n - 1, 1)
        if state.count == 1:
            # Inner state is empty; the trivial inner bound is the trimmed
            # range's lower endpoint.
            return a
        return self.inner.lbound(state.left, min(a, b_prime), b_prime, inner_n, delta)

    def rbound(self, state: RangeTrimState, a: float, b: float, n: int, delta: float) -> float:
        """Algorithm 4 line 12, right half: inner Rbound with ``a -> a'``."""
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return b
        a_prime = state.extrema.min
        inner_n = max(n - 1, 1)
        if state.count == 1:
            return b
        return self.inner.rbound(state.right, a_prime, max(b, a_prime), inner_n, delta)

    # -- pool flavour ---------------------------------------------------

    def init_pool(self, size: int) -> RangeTrimPool:
        return RangeTrimPool(
            left=self.inner.init_pool(size),
            right=self.inner.init_pool(size),
            min=np.full(size, np.inf, dtype=np.float64),
            max=np.full(size, -np.inf, dtype=np.float64),
            count=np.zeros(size, dtype=np.int64),
        )

    def pool_counts(self, pool: RangeTrimPool) -> np.ndarray:
        return pool.count.copy()

    def pool_size(self, pool: RangeTrimPool) -> int:
        return pool.count.size

    @staticmethod
    def _clip_segments(
        indices: np.ndarray,
        values: np.ndarray,
        carry_min: np.ndarray,
        carry_max: np.ndarray,
        counts: np.ndarray,
    ):
        """Algorithm 6's segmented clip over one sorted stream (pure).

        The O(rows) half of :meth:`update_pool`, which passes the pool's
        own extrema and counts as the carries: segments the stream, clips
        each element against the exclusive prior extrema of its view
        (:func:`_record_clip`, per-view carries), and drops the first-ever
        sample of fresh views (Algorithm 4 lines 3-4: it only seeds the
        extrema).  Returns ``(slots, starts, ends, fed_indices, fed_left,
        fed_right)``: the stream's segmentation, then the two clipped
        streams the inner bounders are fed with their view per element.
        """
        starts, ends = segment_bounds(indices)
        slots = indices[starts]
        left_values = _record_clip(values, carry_max, _CLIP_AT_MAX, indices)
        right_values = _record_clip(values, carry_min, _CLIP_AT_MIN, indices)
        seed_positions = starts[counts[slots] == 0]
        if seed_positions.size == 0:
            # No fresh view (the steady state): every element feeds.
            return slots, starts, ends, indices, left_values, right_values
        feed = np.ones(indices.size, dtype=bool)
        feed[seed_positions] = False
        return slots, starts, ends, indices[feed], left_values[feed], right_values[feed]

    def update_pool(
        self, pool: RangeTrimPool, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Vectorized Algorithm 6 across views: segmented clip-then-feed.

        ``indices`` must be sorted with ties in stream order.  Per segment
        (= per view receiving rows this window): the first-ever sample only
        seeds the extrema; every other sample is clipped against the
        extrema of all *earlier* samples of its view before entering the
        inner pools, and the extrema and counts fold in last.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.size == 0:
            return
        slots, starts, ends, fed_indices, fed_left, fed_right = self._clip_segments(
            indices, values, pool.min, pool.max, pool.count
        )
        self.inner.update_pool(pool.left, fed_indices, fed_left)
        self.inner.update_pool(pool.right, fed_indices, fed_right)
        pool.max[slots] = np.maximum(pool.max[slots], np.maximum.reduceat(values, starts))
        pool.min[slots] = np.minimum(pool.min[slots], np.minimum.reduceat(values, starts))
        pool.count[slots] += ends - starts

    def update_pool_with_stats(
        self, pool: RangeTrimPool, indices: np.ndarray, values: np.ndarray, stats
    ) -> None:
        """:meth:`update_pool` reusing the stream's per-view moments.

        A view whose segment holds no record on a side (its max does not
        beat the carried max, for ``S_l``) and that is not fresh feeds that
        side its raw segment — exactly the values ``stats`` reduced, so
        the hand-down is byte-identical to reducing them again.  Only the
        views holding a record on some side, and fresh views (whose first
        sample is dropped), are clipped and reduced; under a scramble
        those are the few views with few samples.  An inner bounder whose
        pool is not a moment pool (Anderson's sample buffers) needs every
        clipped value, so it takes :meth:`update_pool`.
        """
        if not isinstance(self.inner, MomentPoolBounderMixin):
            self.update_pool(pool, indices, values)
            return
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.size == 0:
            return
        starts, ends = segment_bounds(indices)
        slots = indices[starts]
        seg_max = np.maximum.reduceat(values, starts)
        seg_min = np.minimum.reduceat(values, starts)
        redo = (
            (seg_max > pool.max[slots])
            | (seg_min < pool.min[slots])
            | (pool.count[slots] == 0)
        )
        left_stats = right_stats = stats
        if redo.any():
            redo_slots = slots[redo]
            picked = np.flatnonzero(np.repeat(redo, ends - starts))
            _, _, _, fed_indices, fed_left, fed_right = self._clip_segments(
                indices[picked], values[picked], pool.min, pool.max, pool.count
            )
            size = pool.count.size
            left_stats = _replace_slots(
                stats, MomentPool.batch_stats(fed_indices, fed_left, size), redo_slots
            )
            right_stats = _replace_slots(
                stats, MomentPool.batch_stats(fed_indices, fed_right, size), redo_slots
            )
        self.inner.update_pool_with_stats(pool.left, None, None, left_stats)
        self.inner.update_pool_with_stats(pool.right, None, None, right_stats)
        pool.max[slots] = np.maximum(pool.max[slots], seg_max)
        pool.min[slots] = np.minimum(pool.min[slots], seg_min)
        pool.count[slots] += ends - starts

    def lbound_batch(self, pool: RangeTrimPool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.count.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        trivial = pool.count[indices] < 2  # empty or extrema-seed only
        b_prime = np.where(trivial, b_arr, pool.max[indices])
        inner_n = np.maximum(np.asarray(n) - 1, 1)
        inner_lo = self.inner.lbound_batch(
            pool.left, np.minimum(a_arr, b_prime), b_prime, inner_n, delta, indices
        )
        return np.where(trivial, a_arr, inner_lo)

    def rbound_batch(self, pool: RangeTrimPool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.count.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        trivial = pool.count[indices] < 2
        a_prime = np.where(trivial, a_arr, pool.min[indices])
        inner_n = np.maximum(np.asarray(n) - 1, 1)
        inner_hi = self.inner.rbound_batch(
            pool.right, a_prime, np.maximum(b_arr, a_prime), inner_n, delta, indices
        )
        return np.where(trivial, b_arr, inner_hi)

    def confidence_interval_batch(self, pool, a, b, n, delta, indices=None):
        """Both sides from one pass over the shared gathers.

        Same arithmetic, in the same order, as the generic
        lbound→rbound pair — the trivial mask, trimmed extrema gathers,
        and inner N−1 are just computed once instead of twice, so the
        result is bit-identical while halving the per-round gather
        overhead on small pools.
        """
        if indices is None:
            indices = np.arange(pool.count.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        trivial = pool.count[indices] < 2
        half = delta / 2.0
        inner_n = np.maximum(np.asarray(n) - 1, 1)
        b_prime = np.where(trivial, b_arr, pool.max[indices])
        a_prime = np.where(trivial, a_arr, pool.min[indices])
        inner_lo = self.inner.lbound_batch(
            pool.left, np.minimum(a_arr, b_prime), b_prime, inner_n, half, indices
        )
        inner_hi = self.inner.rbound_batch(
            pool.right, a_prime, np.maximum(b_arr, a_prime), inner_n, half, indices
        )
        lo = np.where(trivial, a_arr, inner_lo)
        hi = np.where(trivial, b_arr, inner_hi)
        return self._clip_interval_arrays(lo, hi, a, b)
