"""Anderson/DKW error bounder (Algorithm 3, §2.2.3).

Anderson [10] observed that high-probability bounds on a distribution's CDF
translate to bounds on its mean via ``μ = b − ∫ F`` (Lemma 2), and used the
DKW inequality (Lemma 3) to obtain the CDF bounds.  The paper's Theorem 1
shows DKW remains valid for without-replacement samples from a finite
dataset, so the bounder applies unchanged in the AQP setting.

Algorithm 3's lower bound trims the ε-fraction largest observed points and
re-allocates mass ε to the lower range endpoint ``a``:

    Lbound = ε·a + (1 − ε)·AVG({x ∈ S : F̂(x) <= 1 − ε}),
    ε = sqrt(log(1/δ) / (2m)).

Because the unseen mass is pinned to the range *endpoint* rather than
guided by the observed values, this bounder exhibits **PMA**; but since the
lower bound never consults ``b`` (the trimmed mass *comes from* the largest
observed points), it is free of **PHOS** — the mirror image of Bernstein's
pathology profile (Table 2).  Its state is the full sample, O(m) memory.

**Pooled state.**  The scalar engine keeps one :class:`SampleState` buffer
per view; the pool flavour stores every view's samples in a single
:class:`CSRSamplePool` — one flat float64 array with per-view offsets and
amortized-doubling reserved regions, CSR-style.  Ingest appends a whole
window's per-view segments with one vectorized scatter, and the bound
kernels batch ``np.partition`` row-wise over same-length segment groups
instead of looping views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bounders.base import ErrorBounder, segment_bounds, validate_bound_args
from repro.cdfbounds.dkw import dkw_epsilon

__all__ = [
    "AndersonBounder",
    "SampleState",
    "CSRSamplePool",
    "CSRPoolBounderMixin",
    "anderson_lower_bound",
]


@dataclass
class SampleState:
    """O(m) state holding every observed value (Table 2's "Memory" column).

    Values are kept in an amortized-growth buffer so batch appends are O(1)
    amortized per element.
    """

    _buffer: np.ndarray = field(default_factory=lambda: np.empty(16, dtype=np.float64))
    count: int = 0

    def append(self, value: float) -> None:
        """Append one value."""
        self._reserve(self.count + 1)
        self._buffer[self.count] = value
        self.count += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a batch of values."""
        values = np.asarray(values, dtype=np.float64)
        self._reserve(self.count + values.size)
        self._buffer[self.count : self.count + values.size] = values
        self.count += values.size

    def _reserve(self, capacity: int) -> None:
        if capacity <= self._buffer.size:
            return
        new_size = max(capacity, 2 * self._buffer.size)
        grown = np.empty(new_size, dtype=np.float64)
        grown[: self.count] = self._buffer[: self.count]
        self._buffer = grown

    @property
    def values(self) -> np.ndarray:
        """View of the observed values (do not mutate)."""
        return self._buffer[: self.count]

    def copy(self) -> "SampleState":
        state = SampleState()
        state.extend(self.values)
        return state


class CSRSamplePool:
    """Pooled O(m) sample buffers: one flat array + per-view offsets.

    The struct-of-arrays replacement for a list of per-view
    :class:`SampleState` buffers: slot ``i``'s samples live at
    ``data[starts[i] : starts[i] + count[i]]`` inside a reserved region of
    ``caps[i]`` elements.  Appends scatter a whole window's per-view
    segments in O(len) with no per-view Python loop; when any region
    overflows, the layout is rebuilt with doubled capacities for the
    overflowing views (amortized O(1) per element).  A slot's contents are
    in stream order until :meth:`sort_segments` sorts the segment — the
    same multiset the scalar :class:`SampleState` fed the same stream
    would hold, element-for-element while unsorted.  An append marks its
    slots unsorted again.
    """

    __slots__ = ("size", "count", "_caps", "_starts", "_data", "_unsorted")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self.size = size
        self.count = np.zeros(size, dtype=np.int64)
        self._caps = np.zeros(size, dtype=np.int64)
        self._starts = np.zeros(size, dtype=np.int64)
        self._data = np.empty(0, dtype=np.float64)
        self._unsorted = np.zeros(size, dtype=bool)

    def values(self, slot: int) -> np.ndarray:
        """View of one slot's samples (do not mutate): stream order until
        :meth:`sort_segments` sorts the segment."""
        start = int(self._starts[slot])
        return self._data[start : start + int(self.count[slot])]

    def sort_segments(self, slots: np.ndarray) -> None:
        """Sort the requested slots' segments in place, skipping any
        already sorted since its last append.  Each segment is sorted as
        a view of the flat buffer: no gather, no padding, no scatter."""
        slots = np.asarray(slots, dtype=np.int64)
        todo = slots[self._unsorted[slots]]
        data = self._data
        for start, count in zip(
            self._starts[todo].tolist(), self.count[todo].tolist()
        ):
            data[start : start + count].sort()
        self._unsorted[todo] = False

    def order_statistics(self, slots: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Per-slot 1-based order statistics ``x_(rank)`` of sorted slots.

        Every slot must have been sorted by :meth:`sort_segments` since its
        last append, and every rank must lie in ``[1, count]``.
        """
        return self._data[self._starts[slots] + ranks - 1]

    def matrix(self, slots: np.ndarray, m: int) -> np.ndarray:
        """Dense ``(len(slots), m)`` matrix of slots holding ``m`` samples.

        The batch-kernel gather: every requested slot must have exactly
        ``m`` samples (callers group slots by count first).
        """
        slots = np.asarray(slots, dtype=np.int64)
        cols = self._starts[slots][:, None] + np.arange(m, dtype=np.int64)[None, :]
        return self._data[cols]

    def append_segments(
        self, slots: np.ndarray, seg_counts: np.ndarray, values: np.ndarray
    ) -> None:
        """Append per-view segments (concatenated in slot order) in O(len).

        ``slots`` are strictly ascending slot ids, ``seg_counts[j]``
        elements of ``values`` belong to ``slots[j]``, in stream order.
        """
        slots = np.asarray(slots, dtype=np.int64)
        seg_counts = np.asarray(seg_counts, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        need = self.count.copy()
        need[slots] += seg_counts
        if (need > self._caps).any():
            self._rebuild(need)
        element_slots = np.repeat(slots, seg_counts)
        within = np.arange(values.size, dtype=np.int64) - np.repeat(
            np.cumsum(seg_counts) - seg_counts, seg_counts
        )
        self._data[
            self._starts[element_slots] + self.count[element_slots] + within
        ] = values
        self.count[slots] += seg_counts
        self._unsorted[slots] = True

    #: Reserved elements granted to never-touched slots at the first
    #: relayout, so views whose first rows arrive a few windows late do
    #: not each force another full relayout (matches SampleState's
    #: initial buffer).
    FRESH_RESERVE = 16

    def _rebuild(self, need: np.ndarray) -> None:
        """Re-lay the flat buffer, granting every slot doubling headroom.

        Each relayout costs O(total data), so every occupied slot — not
        just the one that overflowed — leaves with twice its needed
        capacity, and never-touched slots with a small reserve: the next
        relayout then requires some slot to double its occupancy.  For a
        stable view population growing at comparable rates — the
        executor's case: scrambled data spreads every occupied view
        across all windows — relayouts are logarithmic in the total
        sample count, i.e. appends are amortized O(1) per element.  A
        view whose *first* batch exceeds the reserve still costs one
        relayout when it appears; that is inherent to a contiguous
        per-view layout and bounded by one relayout per distinct view.
        """
        new_caps = np.maximum(self._caps, 2 * need)
        new_caps[need == 0] = np.maximum(
            new_caps[need == 0], self.FRESH_RESERVE
        )
        new_starts = np.zeros(self.size, dtype=np.int64)
        if self.size:
            np.cumsum(new_caps[:-1], out=new_starts[1:])
        new_data = np.empty(int(new_caps.sum()), dtype=np.float64)
        total = int(self.count.sum())
        if total:
            rows = np.repeat(np.arange(self.size, dtype=np.int64), self.count)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(self.count) - self.count, self.count
            )
            new_data[new_starts[rows] + within] = self._data[
                self._starts[rows] + within
            ]
        self._caps = new_caps
        self._starts = new_starts
        self._data = new_data


class CSRPoolBounderMixin:
    """Sample-state and pool plumbing of the full-sample families.

    The scalar state is a :class:`SampleState` and the pool a
    :class:`CSRSamplePool` — both family-agnostic, so the Anderson and
    quantile bounders share ingest (a vectorized segment append) and the
    count reads, and differ only in their bound kernels.
    """

    def init_state(self) -> SampleState:
        return SampleState()

    def update(self, state: SampleState, value: float) -> None:
        state.append(value)

    def update_batch(self, state: SampleState, values: np.ndarray) -> None:
        state.extend(values)

    def sample_count(self, state: SampleState) -> int:
        return state.count

    def init_pool(self, size: int) -> CSRSamplePool:
        return CSRSamplePool(size)

    def pool_counts(self, pool: CSRSamplePool) -> np.ndarray:
        return pool.count.copy()

    def pool_size(self, pool: CSRSamplePool) -> int:
        return pool.size

    def update_pool(
        self, pool: CSRSamplePool, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Append the sorted stream's per-view segments in one scatter."""
        indices = np.asarray(indices, dtype=np.int64)
        starts, ends = segment_bounds(indices)
        pool.append_segments(indices[starts], ends - starts, values)


def anderson_lower_bound(sample: np.ndarray, a: float, delta: float) -> float:
    """Algorithm 3's Lbound: trimmed mean with ε mass pinned at ``a``.

    Note the bound depends on ``a`` but *not* on the upper range bound — the
    defining PHOS-free property.  When ε >= 1 (tiny samples at small δ) the
    trivial bound ``a`` is returned.
    """
    sample = np.asarray(sample, dtype=np.float64)
    m = sample.size
    if m == 0:
        return a
    eps = dkw_epsilon(m, delta, two_sided=False)
    if eps >= 1.0:
        return a
    # Keep values whose empirical CDF rank satisfies rank/m <= 1 - eps,
    # i.e. the floor((1 - eps) * m) smallest values.
    keep = int(math.floor((1.0 - eps) * m))
    if keep <= 0:
        return a
    kept = np.partition(sample, keep - 1)[:keep]
    return eps * a + (1.0 - eps) * float(kept.mean())


class AndersonBounder(CSRPoolBounderMixin, ErrorBounder):
    """Anderson/DKW error bounder (Algorithm 3).

    Works for sampling both with and without replacement (Theorem 1), and
    — unlike the other bounders in this package — does not consult the
    dataset size ``N`` at all, so it has no finite-population tightening.
    """

    name = "Anderson"
    requires_sample_memory = True

    def estimate(self, state: SampleState) -> float:
        if state.count == 0:
            raise ValueError("no samples observed yet")
        return float(state.values.mean())

    def lbound(self, state: SampleState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        return anderson_lower_bound(state.values, a, delta)

    def rbound(self, state: SampleState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        # Algorithm 3 line 11: reflect the sample about (a + b)/2.
        return (a + b) - anderson_lower_bound((a + b) - state.values, a, delta)

    # -- pool flavour ---------------------------------------------------
    # The pool is a CSRSamplePool: one flat sample buffer with per-view
    # offsets.  Ingest is a vectorized segment append (the mixin's); bounds
    # batch np.partition row-wise over groups of equal-count views (ε and
    # the trim cutoff depend only on (m, δ), so grouping by count is
    # exact).  The batch CI skips the per-call argument validation and
    # bounds only the requested slots.

    @staticmethod
    def _lower_bound_rows(matrix: np.ndarray, a_rows: np.ndarray, delta: float) -> np.ndarray:
        """Algorithm 3's Lbound per row of an equal-length sample matrix.

        The batched form of :func:`anderson_lower_bound`: one row-wise
        ``np.partition`` selects every row's trim set at once (ε and the
        trim cutoff depend only on the shared row length).  ``a_rows``
        carries per-row range endpoints — RangeTrim queries its inner
        bounder with per-view trimmed ranges.  The kept multiset per row
        is exactly the scalar function's (the k smallest values are
        unique as a multiset), so results agree to summation order.
        """
        m = matrix.shape[1]
        eps = dkw_epsilon(m, delta, two_sided=False)
        if eps >= 1.0:
            return np.array(a_rows, dtype=np.float64, copy=True)
        keep = int(math.floor((1.0 - eps) * m))
        if keep <= 0:
            return np.array(a_rows, dtype=np.float64, copy=True)
        kept = np.partition(matrix, keep - 1, axis=1)[:, :keep]
        return eps * a_rows + (1.0 - eps) * kept.mean(axis=1)

    def lbound_batch(self, pool: CSRSamplePool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        out = np.empty(indices.size, dtype=np.float64)
        counts = pool.count[indices]
        for m in np.unique(counts):
            group = counts == m
            if m == 0:
                out[group] = a_arr[group]
                continue
            out[group] = self._lower_bound_rows(
                pool.matrix(indices[group], int(m)), a_arr[group], delta
            )
        return out

    def rbound_batch(self, pool: CSRSamplePool, a, b, n, delta, indices=None):
        """Mirror of :meth:`lbound_batch` via per-row sample reflection."""
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        out = np.empty(indices.size, dtype=np.float64)
        counts = pool.count[indices]
        span = a_arr + b_arr
        for m in np.unique(counts):
            group = counts == m
            if m == 0:
                out[group] = b_arr[group]
                continue
            reflected = span[group][:, None] - pool.matrix(indices[group], int(m))
            out[group] = span[group] - self._lower_bound_rows(
                reflected, a_arr[group], delta
            )
        return out

    def confidence_interval_batch(
        self,
        pool: CSRSamplePool,
        a: float,
        b: float,
        n: np.ndarray,
        delta: float,
        indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        half = delta / 2.0
        lo = self.lbound_batch(pool, a, b, n, half, indices)
        hi = self.rbound_batch(pool, a, b, n, half, indices)
        return self._clip_interval_arrays(lo, hi, a, b)
