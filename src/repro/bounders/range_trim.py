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
    BounderDelta,
    ErrorBounder,
    segment_bounds,
    validate_bound_args,
)
from repro.stats.streaming import ExtremaState

__all__ = ["RangeTrimBounder", "RangeTrimState", "RangeTrimPool", "RangeTrimDelta"]

#: Recompute sets at or below this size take the scalar-dispatch mirror of
#: the batch bound path (bit-identical; see ``_confidence_interval_small``).
#: numpy dispatch costs ~3-5µs per call regardless of array size, so a
#: round that touches a handful of dirty views spends more time entering
#: ufuncs than computing; the Python-float loop crosses over near ~40 slots.
_SCALAR_DISPATCH_MAX = 16


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


class RangeTrimDelta(BounderDelta):
    """Mergeable delta for Algorithm 6's composite clip state.

    Carries the two inner-bounder deltas (built from the clipped streams)
    plus the per-segment extrema and counts that update the pool's
    running ``a'``/``b'``.  Building it needs the pool's *prior* extrema
    and counts (the clip context), so :meth:`RangeTrimBounder.
    partition_delta` takes them via ``delta_context`` — still pure: the
    context is a read-only snapshot.
    """

    __slots__ = ("slots", "seg_min", "seg_max", "seg_counts", "left", "right")

    def __init__(
        self,
        slots: np.ndarray,
        seg_min: np.ndarray,
        seg_max: np.ndarray,
        seg_counts: np.ndarray,
        left: BounderDelta,
        right: BounderDelta,
    ) -> None:
        self.slots = slots
        self.seg_min = seg_min
        self.seg_max = seg_max
        self.seg_counts = seg_counts
        self.left = left
        self.right = right

    @property
    def nbytes(self) -> int:
        return (
            self.slots.nbytes
            + self.seg_min.nbytes
            + self.seg_max.nbytes
            + self.seg_counts.nbytes
            + self.left.nbytes
            + self.right.nbytes
        )


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
        """:meth:`update_batch`, reusing the caller's batch moments when the
        batch holds no record on either side — both clipped streams then
        *are* the raw batch, so both inner states take the hand-down."""
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
        if moments is not None and left is values and right is values:
            # No record: the extrema stand and both streams are the batch.
            self.inner.update_batch_with_moments(state.left, values, moments)
            self.inner.update_batch_with_moments(state.right, values, moments)
        else:
            self.inner.update_batch(state.left, left)
            self.inner.update_batch(state.right, right)
            extrema.update_batch(values)
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

    @property
    def supports_delta(self) -> bool:
        """Delta-capable exactly when the inner bounder is (the inner
        deltas are components of :class:`RangeTrimDelta`)."""
        return self.inner.supports_delta

    def delta_context(self, pool: RangeTrimPool):
        """The clip context: per-view extrema + counts, plus inner contexts.

        Read-only references: both the serial path and an ingest thread
        read them before the window's merge mutates the pool.
        """
        return (
            pool.min,
            pool.max,
            pool.count,
            self.inner.delta_context(pool.left),
            self.inner.delta_context(pool.right),
        )

    def partition_delta(
        self, indices: np.ndarray, values: np.ndarray, size: int, context=None
    ) -> RangeTrimDelta:
        """Segmented clip-then-partition (pure; Algorithm 6's O(rows) half).

        ``indices`` must be sorted with ties in stream order.  Per segment
        (= per view receiving rows this window): the first-ever sample only
        seeds the extrema; every other sample is clipped against the
        extrema of all *earlier* samples of its view (context carry +
        exclusive running extrema) before entering the inner deltas.
        """
        if context is None:
            raise ValueError(
                "RangeTrimBounder.partition_delta requires the delta_context "
                "(per-view extrema and counts) of the target pool"
            )
        carry_min, carry_max, pool_counts, left_ctx, right_ctx = context
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.size == 0:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=np.float64)
            return RangeTrimDelta(
                empty_i,
                empty_f,
                empty_f,
                empty_i,
                self.inner.partition_delta(empty_i, empty_f, size, left_ctx),
                self.inner.partition_delta(empty_i, empty_f, size, right_ctx),
            )
        slots, starts, ends, fed_indices, fed_left, fed_right = self._clip_segments(
            indices, values, carry_min, carry_max, pool_counts
        )
        left = self.inner.partition_delta(fed_indices, fed_left, size, left_ctx)
        right = self.inner.partition_delta(fed_indices, fed_right, size, right_ctx)
        return RangeTrimDelta(
            slots,
            np.minimum.reduceat(values, starts),
            np.maximum.reduceat(values, starts),
            ends - starts,
            left,
            right,
        )

    @staticmethod
    def _clip_segments(
        indices: np.ndarray,
        values: np.ndarray,
        carry_min: np.ndarray,
        carry_max: np.ndarray,
        counts: np.ndarray,
    ):
        """Algorithm 6's segmented clip over one sorted stream (pure).

        The ONE copy of the pool clip, shared by :meth:`partition_delta`
        (reading a context snapshot) and the legacy :meth:`update_pool`
        fallback (reading the pool directly): segments the stream, clips
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

    def merge_delta(self, pool: RangeTrimPool, delta: RangeTrimDelta) -> None:
        """O(present views) fold: inner merges, then extrema and counts —
        the same operations, in the same order, as the mutate-in-place
        path, so partition→merge is bit-identical to :meth:`update_pool`."""
        self.inner.merge_delta(pool.left, delta.left)
        self.inner.merge_delta(pool.right, delta.right)
        slots = delta.slots
        pool.max[slots] = np.maximum(pool.max[slots], delta.seg_max)
        pool.min[slots] = np.minimum(pool.min[slots], delta.seg_min)
        pool.count[slots] += delta.seg_counts

    def update_pool(
        self, pool: RangeTrimPool, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Vectorized Algorithm 6 across views: segmented clip-then-feed.

        With a delta-capable inner this *is* the partition→merge pair run
        in place; the explicit loop below serves inners that implement
        only the legacy mutate-in-place pool API.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.size == 0:
            return
        if self.supports_delta:
            self.merge_delta(
                pool,
                self.partition_delta(
                    indices, values, self.pool_size(pool), self.delta_context(pool)
                ),
            )
            return
        slots, starts, ends, fed_indices, fed_left, fed_right = self._clip_segments(
            indices, values, pool.min, pool.max, pool.count
        )
        self.inner.update_pool(pool.left, fed_indices, fed_left)
        self.inner.update_pool(pool.right, fed_indices, fed_right)
        pool.max[slots] = np.maximum(pool.max[slots], np.maximum.reduceat(values, starts))
        pool.min[slots] = np.minimum(pool.min[slots], np.minimum.reduceat(values, starts))
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
        if (
            indices.size <= _SCALAR_DISPATCH_MAX
            and np.ndim(a) == 0
            and np.ndim(b) == 0
            and getattr(self.inner, "supports_scalar_bounds", False)
        ):
            return self._confidence_interval_small(
                pool, float(a), float(b), n, delta, indices
            )
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

    def _confidence_interval_small(
        self, pool: RangeTrimPool, a: float, b: float, n, delta: float,
        indices: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar-dispatch mirror of :meth:`confidence_interval_batch`.

        Per-slot Python-float transliteration of the fused batch path —
        same IEEE-754 operations in the same order, so the returned
        arrays are bit-identical to the vectorized program (pinned by the
        kernel test-suite).  Worth it because a round that recomputes
        only a few dirty views pays numpy's per-call dispatch ~60 times
        in the batch path; here it pays it twice.
        """
        n_arr = np.broadcast_to(np.asarray(n), indices.shape)
        half = delta / 2.0
        lo_out = np.empty(indices.size, dtype=np.float64)
        hi_out = np.empty(indices.size, dtype=np.float64)
        for position in range(indices.size):
            slot = int(indices[position])
            inner_n = max(n_arr[position] - 1, 1)
            if int(pool.count[slot]) < 2:
                lo, hi = a, b
            else:
                b_prime = float(pool.max[slot])
                a_prime = float(pool.min[slot])
                lo = self.inner.lbound_one(
                    pool.left, slot, min(a, b_prime), b_prime, inner_n, half
                )
                hi = self.inner.rbound_one(
                    pool.right, slot, a_prime, max(b, a_prime), inner_n, half
                )
            # _clip_interval_arrays, one lane.
            lo = min(max(lo, a), b)
            hi = min(max(hi, a), b)
            if lo > hi:
                mid = 0.5 * (lo + hi)
                lo = hi = mid
            lo_out[position] = lo
            hi_out[position] = hi
        return lo_out, hi_out
