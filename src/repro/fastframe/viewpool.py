"""Struct-of-arrays per-view state for the vectorized executor core.

The seed executor kept one ``_ViewState`` object per aggregate view and
drove both ingest and bound recomputation with Python loops over every
view — interpreter overhead that dominates wall time for high-cardinality
GROUP BYs.  :class:`ViewPool` stores the same state as parallel numpy
arrays, one row per view, in the order of the sorted combined
(mixed-radix) group codes of the GROUP BY's domain:

* sample and all-read moments (:class:`~repro.stats.streaming.MomentPool`);
* selectivity counters ``in_view`` / ``covered`` (Lemma 5's m_v and r);
* running-intersection endpoints for the value and COUNT intervals
  (Theorem 4's ``[max_k L_k, min_k R_k]``), plus the last certified
  intervals;
* ``active`` / ``dropped`` / ``exhausted`` flags;
* an opaque *bounder pool* holding every view's error-bounder state in the
  bounder's own struct-of-arrays layout.

Ingest then becomes a handful of ``np.bincount`` passes per scan window and
each OptStop round a fixed number of array expressions, regardless of the
number of views.  Row ``i`` of the pool evolves exactly like the scalar
``_ViewState`` fed the same rows (up to floating-point summation order);
the parity test-suite pins this.

**Incremental rounds.**  The pool tracks two dirty masks so OptStop rounds
touch only rows whose inputs changed since the last round:

* ``dirty`` — rows whose selectivity counters / moments changed since the
  last bound recomputation (set by ingest via :meth:`mark_dirty`, cleared
  by the executor when it recomputes a row's bounds).  Skipping a clean
  row is *bit-identical* to recomputing it: with unchanged counters, the
  interval at the later round's smaller decayed δ is wider, and folding a
  wider interval into the running intersection is a no-op.
* ``snap_dirty`` — rows whose snapshot columns (certified interval,
  estimate, sample count) are stale; :meth:`snapshot_columns` refreshes
  only those rows of its cached arrays.

Callers that write interval or counter arrays directly (outside the
executor's ingest/recompute paths) must call :meth:`mark_dirty` for the
touched rows, or the cached snapshot goes stale.

**Ingest.**  Folding one window into the pool is a pure *partition* step
(the kernel in :mod:`repro.fastframe.kernels` — slice the window, gather
the in-view values and their pool rows off the scramble's rank column, in
stream order, no sort) followed by :meth:`ViewPool.apply_ingest`, which
reduces the stream once with ``bincount`` into per-view (count, mean, M2),
merges those into the moment pools and hands them with the stream to the
bounder pool (``update_pool_with_stats``).  Frozen, dropped and exhausted
views are left out by masking their slots, never by filtering rows.
Serial and parallel ingest run this one program:
the parallel driver runs both steps for a run on an ingest thread, which
then owns that run's pool until the window's round (the pool itself is
unlocked; see :mod:`repro.fastframe.parallel`).  The determinism suite
pins byte-identical pools at any parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.bounders.base import ErrorBounder
from repro.fastframe.kernels import IngestDelta
from repro.stats.streaming import MomentPool
from repro.stopping.conditions import SnapshotColumns

__all__ = ["ViewPool"]


def _only(stats: tuple, keep: np.ndarray) -> tuple:
    """Per-slot ``(counts, means, m2s)`` with the slots outside ``keep``
    emptied (``stats`` itself when every slot is kept)."""
    if keep.all():
        return stats
    return tuple(np.where(keep, column, 0) for column in stats)


@dataclass
class ViewPool:
    """All per-view executor state, as parallel arrays (one row per view)."""

    codes: np.ndarray          #: sorted combined group codes (int64)
    key_codes: list            #: per-view tuples of per-column codes
    bounder_pool: Any          #: bounder-owned struct-of-arrays state bank
    sample: MomentPool         #: moments of the sampled (settled) values
    all_read: MomentPool       #: moments of every value read for the view
    in_view: np.ndarray        #: settled rows belonging to the view (int64)
    covered: np.ndarray        #: settled rows, Lemma 5's r (int64)
    run_lo: np.ndarray         #: value-interval running intersection (lo)
    run_hi: np.ndarray
    crun_lo: np.ndarray        #: COUNT-interval running intersection (lo)
    crun_hi: np.ndarray
    iv_lo: np.ndarray          #: last certified value interval
    iv_hi: np.ndarray
    civ_lo: np.ndarray         #: last certified COUNT interval
    civ_hi: np.ndarray
    active: np.ndarray         #: bool — group currently prioritized
    dropped: np.ndarray        #: bool — certified empty, out of the result
    exhausted: np.ndarray      #: bool — every row settled, aggregate exact
    dirty: np.ndarray          #: bool — counters changed since last recompute
    snap_dirty: np.ndarray     #: bool — snapshot columns stale for the row
    #: Optional per-row point estimator ``(pool_rows) -> float64 array``
    #: consulted by :meth:`snapshot_columns` for rows holding samples.
    #: ``None`` falls back to the sampled mean — correct for the mean
    #: family; quantile queries install their bounder's batch quantile.
    estimator: Any = field(default=None, repr=False)
    # Cached snapshot columns (one entry per pool row), refreshed
    # incrementally by snapshot_columns() for snap_dirty rows only.
    _snap_lo: np.ndarray | None = field(default=None, repr=False)
    _snap_hi: np.ndarray | None = field(default=None, repr=False)
    _snap_estimate: np.ndarray | None = field(default=None, repr=False)
    _snap_bounds: tuple | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls, domain: np.ndarray, key_codes: list, bounder: ErrorBounder
    ) -> "ViewPool":
        """Pool over a (sorted) combined-code domain with fresh state."""
        size = int(domain.size)
        return cls(
            codes=np.asarray(domain, dtype=np.int64),
            key_codes=key_codes,
            bounder_pool=bounder.init_pool(size),
            sample=MomentPool(size),
            all_read=MomentPool(size),
            in_view=np.zeros(size, dtype=np.int64),
            covered=np.zeros(size, dtype=np.int64),
            run_lo=np.full(size, -np.inf),
            run_hi=np.full(size, np.inf),
            crun_lo=np.full(size, -np.inf),
            crun_hi=np.full(size, np.inf),
            iv_lo=np.full(size, -np.inf),
            iv_hi=np.full(size, np.inf),
            civ_lo=np.zeros(size),
            civ_hi=np.full(size, np.inf),
            active=np.ones(size, dtype=bool),
            dropped=np.zeros(size, dtype=bool),
            exhausted=np.zeros(size, dtype=bool),
            dirty=np.ones(size, dtype=bool),
            snap_dirty=np.ones(size, dtype=bool),
        )

    @property
    def size(self) -> int:
        return self.codes.size

    def mark_dirty(self, mask: np.ndarray) -> None:
        """Flag rows whose counters changed since the last OptStop round."""
        self.dirty |= mask
        self.snap_dirty |= mask

    def apply_ingest(
        self,
        bounder: ErrorBounder,
        delta: IngestDelta,
        window_rows: int,
        freezes_groups: bool,
    ) -> None:
        """Fold one window's stream-order :class:`IngestDelta` into the pool.

        The stateful half of ingest: one :meth:`MomentPool.batch_stats`
        over the stream gives every view's (count, mean, M2); the all-read
        moments take the *eligible* views' (not dropped, not exhausted),
        and the sample moments, the bounder pool
        (``update_pool_with_stats``) and Lemma 5's selectivity counters
        take the *settling* views' — eligible, and not frozen when the
        strategy freezes inactive groups.  Each view's statistics depend
        on its own rows only, so leaving a view out is a mask over slots,
        not over rows; the bounder ignores the stream rows of views whose
        count it is handed as zero.
        """
        eligible = ~self.dropped & ~self.exhausted
        settling = eligible & self.active if freezes_groups else eligible
        if delta.n_in_view:
            if delta.values is None:
                counts = np.bincount(delta.view_idx, minlength=self.size)
                self.all_read.count += np.where(eligible, counts, 0)
            else:
                stats = MomentPool.batch_stats(
                    delta.view_idx, delta.values, self.size
                )
                self.all_read.merge_arrays(*_only(stats, eligible))
                stats = _only(stats, settling)
                self.sample.merge_arrays(*stats)
                bounder.update_pool_with_stats(self.bounder_pool, delta, stats)
                counts = stats[0]
            self.in_view += np.where(settling, counts, 0)
        # Lemma 5's covered-row accounting: the whole window settles for
        # every non-frozen surviving view (rows read, plus rows of skipped
        # blocks the bitmap index certifies hold no tuple of the view).
        if window_rows:
            self.covered[settling] += window_rows
            # Settling rows are exactly those whose round inputs (covered,
            # in_view, sample moments, bounder state) may have changed.
            self.mark_dirty(settling)

    def snapshot_columns(self, a: float, b: float) -> SnapshotColumns:
        """Struct-of-arrays snapshot of the non-dropped views.

        Endpoints of a certified interval that are still non-finite are
        clamped to the value range *per endpoint* — a half-finite interval
        keeps its certified finite bound and only the trivial side falls
        back to ``a`` / ``b``.  Estimates fall back to the interval
        midpoint until the view has a sample.  Snapshot columns are cached
        per pool row and refreshed incrementally: only ``snap_dirty`` rows
        are recomputed per call.  The columns' ``rows`` are pool rows.
        """
        if self._snap_lo is None or self._snap_bounds != (a, b):
            self._snap_lo = np.empty(self.size)
            self._snap_hi = np.empty(self.size)
            self._snap_estimate = np.empty(self.size)
            self._snap_bounds = (a, b)
            self.snap_dirty[:] = True
        stale = np.flatnonzero(self.snap_dirty)
        if stale.size:
            lo = self.iv_lo[stale]
            hi = self.iv_hi[stale]
            lo = np.where(np.isfinite(lo), lo, a)
            hi = np.where(np.isfinite(hi), hi, b)
            samples = self.sample.count[stale]
            self._snap_lo[stale] = lo
            self._snap_hi[stale] = hi
            point = (
                self.estimator(stale)
                if self.estimator is not None
                else self.sample.mean[stale]
            )
            self._snap_estimate[stale] = np.where(
                samples > 0, point, 0.5 * (lo + hi)
            )
            self.snap_dirty[:] = False
        live = np.flatnonzero(~self.dropped)
        return SnapshotColumns(
            rows=live,
            lo=self._snap_lo[live],
            hi=self._snap_hi[live],
            estimate=self._snap_estimate[live],
            samples=self.sample.count[live],
            exhausted=self.exhausted[live],
        )

    @staticmethod
    def _fold(
        run_lo: np.ndarray,
        run_hi: np.ndarray,
        idx: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array form of ``RunningIntersection.fold`` (with midpoint collapse)."""
        folded_lo = np.maximum(run_lo[idx], lo)
        folded_hi = np.minimum(run_hi[idx], hi)
        inverted = folded_lo > folded_hi
        if inverted.any():
            mid = 0.5 * (folded_lo[inverted] + folded_hi[inverted])
            folded_lo[inverted] = mid
            folded_hi[inverted] = mid
        run_lo[idx] = folded_lo
        run_hi[idx] = folded_hi
        return folded_lo, folded_hi

    def fold_value(
        self, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intersect the value running intersections of rows ``idx``."""
        return self._fold(self.run_lo, self.run_hi, idx, lo, hi)

    def fold_count(
        self, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intersect the COUNT running intersections of rows ``idx``."""
        return self._fold(self.crun_lo, self.crun_hi, idx, lo, hi)
