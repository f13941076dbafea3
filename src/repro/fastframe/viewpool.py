"""Struct-of-arrays per-view state for the vectorized executor core.

The seed executor kept one ``_ViewState`` object per aggregate view and
drove both ingest and bound recomputation with Python loops over every
view — interpreter overhead that dominates wall time for high-cardinality
GROUP BYs.  :class:`ViewPool` stores the same state as parallel numpy
arrays, one row per view, indexed by combined (mixed-radix) group code:

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

**Parallel ingest.**  Folding one window into the pool is split into a
pure *partition* step (the fused kernel in
:mod:`repro.fastframe.kernels` — slice the window, gather the in-view
elements, stable-sort by group code, map codes to pool rows,
pre-aggregate per-view bincount statistics) and a stateful *merge* step
(:meth:`ViewPool.apply_ingest`).  The partition step touches no pool
state, so an ingest thread can run it over the window's arrays and hand
the resulting :class:`IngestDelta` back; the scanning thread then merges
deltas in deterministic window order (the pool itself is unlocked: only
the scanning thread ever calls it).  For delta-capable bounders
(``ErrorBounder.supports_delta``) the thread additionally runs the
bounder's own pure ``partition_delta`` over the sorted stream and returns
the O(views) :class:`~repro.bounders.base.BounderDelta` *instead of* the
per-row ``view_idx``/``values`` arrays; :meth:`ViewPool.apply_ingest`
folds it with ``merge_delta``.  Because the partition is a pure function
of its input arrays and the merge consumes exactly the arrays the serial
path would have computed in place, parallel ingest is bit-identical to
serial ingest — the determinism suite pins this.
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

    def settling_mask(self, freezes_groups: bool) -> np.ndarray:
        """Views whose rows settle this window (Lemma 5's accounting).

        The ONE copy of the eligibility arithmetic: :meth:`apply_ingest`
        folds with it, and the parallel driver consults
        ``settling_mask(...).all()`` to decide whether a worker may ship a
        native bounder delta (computed over the *unmasked* stream, so only
        valid when every view settles).
        """
        eligible = ~self.dropped & ~self.exhausted
        if freezes_groups:
            return eligible & self.active
        return eligible

    def _ingest_bounder(
        self, bounder: ErrorBounder, view_idx: np.ndarray, values: np.ndarray
    ) -> None:
        """Fold one sorted stream into the bounder pool, in place.

        Delta-capable bounders run the identical partition→merge pair the
        parallel workers use (so serial and parallel execute the same
        float program); third-party bounders keep the mutate-in-place
        ``update_pool`` loop fall-back.
        """
        if bounder.supports_delta:
            bounder.merge_delta(
                self.bounder_pool,
                bounder.partition_delta(
                    view_idx,
                    values,
                    self.size,
                    bounder.delta_context(self.bounder_pool),
                ),
            )
        else:
            bounder.update_pool(self.bounder_pool, view_idx, values)

    def apply_ingest(
        self,
        bounder: ErrorBounder,
        delta: IngestDelta,
        window_rows: int,
        freezes_groups: bool,
    ) -> None:
        """Merge one window's :class:`IngestDelta` into the pool.

        The stateful half of ingest: bincount merges into the moment
        pools, the bounder-pool delta merge (or ``update_pool`` replay for
        non-delta bounders), selectivity counters, and the dirty masks.
        The delta may come from the serial path (built in place by the
        consuming run) or from a parallel worker — the arrays are
        identical either way, so so is every resulting float.
        """
        settling = self.settling_mask(freezes_groups)
        needs_values = delta.needs_values
        if delta.n_in_view:
            view_idx = delta.view_idx
            # `settling ⊆ eligible`, so when every view settles (the common
            # case: nothing frozen or dropped) the O(rows) element masks can
            # be skipped entirely — decided by O(views) flag tests.
            everything = bool(settling.all())
            if everything:
                delta.ensure_stats(self.size, needs_values)
                if needs_values:
                    # The all-read and sampled moments receive the same
                    # batch — per-view statistics computed once (possibly
                    # by a worker), merged twice.
                    stats = (delta.counts, delta.means, delta.m2s)
                    self.all_read.merge_arrays(*stats)
                    self.sample.merge_arrays(*stats)
                    if delta.bounder_delta is not None:
                        bounder.merge_delta(self.bounder_pool, delta.bounder_delta)
                    else:
                        self._ingest_bounder(bounder, view_idx, delta.values)
                else:
                    self.all_read.count += delta.counts
                self.in_view += delta.counts
            else:
                if (
                    delta.bounder_delta is not None
                    or delta.view_idx is None
                    or (needs_values and delta.values is None)
                ):
                    # A native delta is partitioned over the whole stream;
                    # folding it while some views are frozen/dropped would
                    # credit them rows they must not settle.  The driver
                    # gates on settling_mask().all(), so this is protocol
                    # misuse, not a recoverable state.
                    raise ValueError(
                        "native bounder delta received while not every view "
                        "is settling; workers must ship row arrays here"
                    )
                values = delta.values
                eligible = ~self.dropped & ~self.exhausted
                elements_eligible = eligible[view_idx]
                elements_settling = settling[view_idx]
                identical = np.array_equal(elements_eligible, elements_settling)
                if needs_values:
                    if identical:
                        idx = view_idx[elements_settling]
                        vals = values[elements_settling]
                        stats = MomentPool.batch_stats(idx, vals, self.size)
                        self.all_read.merge_arrays(*stats)
                        self.sample.merge_arrays(*stats)
                        self._ingest_bounder(bounder, idx, vals)
                    else:
                        self.all_read.update_indexed(
                            view_idx[elements_eligible], values[elements_eligible]
                        )
                        self.sample.update_indexed(
                            view_idx[elements_settling], values[elements_settling]
                        )
                        self._ingest_bounder(
                            bounder,
                            view_idx[elements_settling],
                            values[elements_settling],
                        )
                else:
                    self.all_read.count += np.bincount(
                        view_idx[elements_eligible], minlength=self.size
                    )
                self.in_view += np.bincount(
                    view_idx[elements_settling], minlength=self.size
                )
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
