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
    grouped_rows,
    segment_bounds,
    validate_bound_args,
    view_order,
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


#: A view's two sides come from the window's moments by correction unless
#: the correction could lose digits the direct pass keeps: when the terms
#: it sums exceed this multiple of what the side's inner state will hold
#: after the merge (its M2, or its mean's scale ``|μ| + σ``), the view is
#: clipped and reduced directly.  Each summed term ``t`` carries an error
#: of at most about ε·|t|, so the merged state stays within
#: ``CANCELLATION_LIMIT`` · ε of its own scale (PERFORMANCE.md,
#: "Sort-free ingest").
CANCELLATION_LIMIT = 16.0

#: Records are peeled one per view per pass (:func:`_window_records`); a
#: view still holding candidates after this many passes (sorted or
#: monotone input, where every row is a record) is reduced directly.  A
#: shuffled window of ``m`` rows holds about ``ln m`` records per view.
RECORD_PASSES = 32


def _clip_records(records, views, carry, side):
    """Algorithm 6's clip of view-grouped rows (pure): each row against
    the running extremum of its view before it — ``carry``, then the
    view's earlier rows.  ``views`` is ``None`` for one view, with a float
    ``carry``; else ``carry`` is the per-view array it indexes.  Max/min
    prefixes round nothing, so this equals the per-element clip exactly.
    """
    _, extremum, clip = side
    if views is None:
        prior = np.full(records.size, carry)
        runs = ((0, records.size),)
    else:
        prior = carry[views]
        starts, ends = segment_bounds(views)
        longer = np.flatnonzero(ends - starts > 1)
        runs = zip(starts[longer].tolist(), ends[longer].tolist())
    for start, end in runs:
        extremum.accumulate(records[start : end - 1], out=prior[start + 1 : end])
        prior[start + 1 : end] = extremum(prior[start + 1 : end], prior[start])
    return clip(records, prior)


def _record_clip(values: np.ndarray, carry, side, indices: np.ndarray | None = None):
    """One side of Algorithm 6's clip over a stream grouped by view.

    The clip changes ``v`` only where ``v`` is a strict new record of its
    view, and a record must beat the carry, so one compare against the
    carry finds every *candidate*; only those are clipped
    (:func:`_clip_records`).  ``indices`` is the view per element and
    ``carry`` the per-view array it indexes; a single-view stream passes
    ``indices=None`` and a float ``carry``.  Returns ``values`` itself
    (not a copy) when there is no candidate.
    """
    mask = side[0](values, carry if indices is None else carry[indices])
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        return values
    views = None if indices is None else indices[candidates]
    clipped = values.copy()
    clipped[candidates] = _clip_records(values[candidates], views, carry, side)
    return clipped


def _window_records(view_idx, values, taking, carry, side):
    """Every strict new record of one window on one side: ``(rows,
    views, priors, unresolved)`` — stream positions, views and the
    extremum each record is clipped to — with ``carry`` (a working copy)
    advanced to each view's new extremum.

    A record must beat the carried extremum, so one compare finds the
    candidates; they are grouped by view, stream order kept.  Each pass
    then peels the first candidate of every view — a record, clipped to
    the carry — makes it the carry, and keeps only the candidates that
    beat it.  Under a scramble the candidates shrink geometrically; the
    views still holding some after :data:`RECORD_PASSES` passes are
    returned in ``unresolved``.
    """
    is_candidate = side[0]
    rows = np.flatnonzero(is_candidate(values, carry[view_idx]))
    views = view_idx[rows]
    if not taking.all():
        keep = taking[views]
        rows, views = rows[keep], views[keep]
    order = view_order(views)
    rows, views = rows[order], views[order]
    raw = values[rows]
    found = [(rows[:0], views[:0], raw[:0])]
    for _ in range(RECORD_PASSES):
        if rows.size == 0:
            break
        heads = np.empty(rows.size, dtype=bool)
        heads[0] = True
        np.not_equal(views[1:], views[:-1], out=heads[1:])
        head_views = views[heads]
        found.append((rows[heads], head_views, carry[head_views]))
        carry[head_views] = raw[heads]
        keep = is_candidate(raw, carry[views]) & ~heads
        rows, views, raw = rows[keep], views[keep], raw[keep]
    return (*(np.concatenate(column) for column in zip(*found)), views)


def _fold_sides(view_idx, values, stats, count, lo, hi, inner):
    """Algorithm 6 over one window, from the window's moments: the
    per-view ``(counts, means, m2s)`` the left and the right inner pool
    take (pure but for ``count`` / ``lo`` / ``hi``, updated in place).

    ``view_idx`` / ``values`` are the window's rows in stream order;
    ``stats`` are their per-view
    :meth:`~repro.stats.streaming.MomentPool.batch_stats`, and a view
    whose count is zero takes no part (its rows are ignored).  ``count``,
    ``lo`` and ``hi`` are the per-view sample counts and carried extrema;
    ``inner`` the left and right inner moment states (``count`` / ``m2``
    per view), which the guard weighs the correction's error against.

    Per view, with ``n`` rows of mean ``μ`` and centred second moment
    ``M2``, a fresh view (no sample yet) first drops its first row
    ``x₁``, which only seeds the extrema (Algorithm 4 lines 3-4)::

        μ ← μ + (μ − x₁)/(n − 1),    M2 ← M2 − (x₁ − μ)(x₁ − μ_new).

    Each side's clip then changes only the view's strict new records
    (:func:`_window_records`).  With ``cᵢ`` the clipped row (a record's
    prior extremum), ``dᵢ = cᵢ − xᵢ`` and ``m`` rows::

        μ′ = μ + Σd/m,    M2′ = M2 + m(μ − μ′)² + Σ d(c + x − 2μ′),

    since ``Σ(c − μ′)² − Σ(x − μ′)² = Σ d(c + x − 2μ′)``, zero but at the
    records, and ``Σ(x − μ′)² = M2 + m(μ − μ′)²``.  A view failing the
    :data:`CANCELLATION_LIMIT` guard, or with more than
    :data:`RECORD_PASSES` records, is clipped and reduced directly
    instead (:func:`_direct_sides`).
    """
    counts, means, m2s = stats
    present = counts > 0
    if not present.any():
        return stats, stats
    size = counts.size
    m, mean, m2 = counts, means, m2s
    # Σ|terms| behind M2 and behind the mean, for the guard.
    magnitude, spread = m2s, np.abs(means)
    fresh = present & (count == 0)
    seeds = np.zeros(0, dtype=np.intp)
    if fresh.any():
        slots = np.flatnonzero(fresh)
        # Each fresh view's first row in stream order.
        first = np.full(size, values.size, dtype=np.intp)
        np.minimum.at(first, view_idx, np.arange(values.size))
        seeds = first[slots]
        seed = values[seeds]
        lo[slots] = hi[slots] = seed
        m, mean, m2 = counts.copy(), means.copy(), m2s.copy()
        magnitude, spread = m2s.copy(), spread.copy()
        m[slots] -= 1
        kept = m[slots] > 0
        rest = np.maximum(m[slots], 1)
        old = means[slots]
        mean[slots] = np.where(kept, old + (old - seed) / rest, 0.0)
        drop = (seed - old) * (seed - mean[slots])
        m2[slots] = np.where(kept, m2s[slots] - drop, 0.0)
        magnitude[slots] += np.abs(drop)
        spread[slots] += np.abs(old - seed) / rest
    rest = np.maximum(m, 1)
    sides, found, direct = [], [], np.zeros(size, dtype=bool)
    for side, carry, held in zip((_CLIP_AT_MAX, _CLIP_AT_MIN), (hi, lo), inner):
        work = carry.copy()
        rows, views, prior, unresolved = _window_records(
            view_idx, values, present, work, side
        )
        found.append((side, carry, work, rows, views, prior, unresolved))
        direct[unresolved] = True
        if rows.size == 0 and not seeds.size:
            sides.append((m, mean, m2))  # the window itself, exactly
            continue
        raw = values[rows]
        d = prior - raw
        shifted = np.bincount(views, d, size)
        side_mean = mean + shifted / rest
        terms = d * (prior + raw - 2.0 * side_mean[views])
        shift = m * (mean - side_mean) ** 2
        side_m2 = np.maximum(m2 + shift + np.bincount(views, terms, size), 0.0)
        # What the inner state holds after the merge, roughly: its M2 and
        # the mean's scale; an error in this window's mean moves the
        # merged mean by its share of the samples.
        merged_m2 = side_m2 + held.m2
        merged = m + held.count
        scale = np.abs(side_mean) + np.sqrt(merged_m2 / np.maximum(merged, 1))
        summed = magnitude + shift + np.bincount(views, np.abs(terms), size)
        direct |= (m > 0) & (
            (summed > CANCELLATION_LIMIT * merged_m2)
            | (
                (spread + np.abs(shifted) / rest) * m
                > CANCELLATION_LIMIT * scale * merged
            )
        )
        sides.append((m, side_mean, side_m2))
    if direct.any():
        sides = _direct_sides(view_idx, values, sides, direct, seeds, found)
    hi[:], lo[:] = found[0][2], found[1][2]
    count += counts
    return sides


def _direct_sides(view_idx, values, sides, redo, seeds, found):
    """``sides`` with the ``redo`` views' stats replaced by the direct
    pass: each side's clipped stream of their rows (records replaced by
    their priors; a view with unresolved records clipped by a full scan),
    seeds dropped, reduced in stream order."""
    size = redo.size
    rows = np.flatnonzero(redo[view_idx])
    views, raw = view_idx[rows], values[rows]
    seeds = seeds[redo[view_idx[seeds]]]
    feed = np.ones(rows.size, dtype=bool)
    feed[np.searchsorted(rows, seeds)] = False
    out = []
    for kept, (side, carry, work, rec_rows, rec_views, prior, unresolved) in zip(
        sides, found
    ):
        clipped = raw.copy()
        mine = redo[rec_views]
        clipped[np.searchsorted(rows, rec_rows[mine])] = prior[mine]
        if unresolved.size:
            # Too many records to peel (monotone input): scan these views.
            scan = np.flatnonzero(np.isin(views, unresolved))
            scan = scan[view_order(views[scan])]
            clipped[scan] = _clip_records(raw[scan], views[scan], carry, side)
            side[1].at(work, views[scan], raw[scan])
        direct = MomentPool.batch_stats(views[feed], clipped[feed], size)
        out.append(tuple(np.where(redo, new, old) for new, old in zip(direct, kept)))
    return out


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
        raw batch, so its inner state takes the hand-down.

        A side with a record is clipped and reduced directly.  The pool
        path's correction (:func:`_fold_sides`) is a fixed cost of about a
        hundred array operations per window, which one view's batch does
        not amortize (PERFORMANCE.md, "Sort-free ingest").
        """
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

    def update_pool(
        self, pool: RangeTrimPool, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Vectorized Algorithm 6 across views.

        ``indices`` must be sorted with ties in stream order.  Per view
        receiving rows: the first-ever sample only seeds the extrema;
        every other sample is clipped against the extrema of all *earlier*
        samples of its view before entering the inner pools, and the
        extrema and counts fold in last.  Over a moment pool this is
        :meth:`update_pool_with_stats`'s kernel on the stream's moments.
        """
        indices = np.asarray(indices, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if indices.size == 0:
            return
        if isinstance(self.inner, MomentPoolBounderMixin):
            stats = MomentPool.batch_stats(indices, values, pool.count.size)
            self._fold_moments(pool, indices, values, stats)
            return
        starts, ends = segment_bounds(indices)
        slots = indices[starts]
        left = _record_clip(values, pool.max, _CLIP_AT_MAX, indices)
        right = _record_clip(values, pool.min, _CLIP_AT_MIN, indices)
        seeds = starts[pool.count[slots] == 0]
        if seeds.size:
            feed = np.ones(indices.size, dtype=bool)
            feed[seeds] = False
            indices, left, right = indices[feed], left[feed], right[feed]
        self.inner.update_pool(pool.left, indices, left)
        self.inner.update_pool(pool.right, indices, right)
        pool.max[slots] = np.maximum(pool.max[slots], np.maximum.reduceat(values, starts))
        pool.min[slots] = np.minimum(pool.min[slots], np.minimum.reduceat(values, starts))
        pool.count[slots] += ends - starts

    def update_pool_with_stats(self, pool: RangeTrimPool, stream, stats) -> None:
        """Fold one window's stream-order rows, given their per-view moments.

        Over a moment pool, each side's moments are derived from the
        window's by correcting for the view's seed and records alone
        (:func:`_fold_sides`): no sort, no clipped copy, no second
        reduction.  An inner bounder whose pool keeps every value
        (Anderson's sample buffers) is fed the clipped rows, grouped by
        view, through :meth:`update_pool`.
        """
        if isinstance(self.inner, MomentPoolBounderMixin):
            self._fold_moments(pool, stream.view_idx, stream.values, stats)
        else:
            self.update_pool(pool, *grouped_rows(stream, stats[0]))

    def _fold_moments(self, pool: RangeTrimPool, view_idx, values, stats) -> None:
        sides = _fold_sides(
            view_idx, values, stats, pool.count, pool.min, pool.max,
            (pool.left, pool.right),
        )
        self.inner.update_pool_with_stats(pool.left, None, sides[0])
        self.inner.update_pool_with_stats(pool.right, None, sides[1])

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
