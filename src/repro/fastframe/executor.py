"""The approximate query executor (§4): rounds, views, early termination.

A :class:`QueryRun` executes a :class:`~repro.fastframe.query.Query`
against a :class:`~repro.fastframe.scramble.Scramble`
(:func:`repro.api.connect` builds one per resolved query):

1. The scramble is consumed in scan order from a random start position,
   in lookahead windows of 1024 blocks; the sampling strategy (Scan or
   active scanning) decides which blocks of each window to fetch.
2. Each window's fetched rows, value arrays, pool-row ranks, and
   predicate masks are materialized **once** in a
   :class:`~repro.fastframe.window.WindowFrame`; every consuming query
   run slices its private view of the frame (its block mask is a subset
   of the frame's union), partitions by group, and updates its per-view
   error-bounder state, sample moments, and selectivity counters
   vectorized.  Under :func:`run_shared_scan` one frame serves every
   query of a dashboard batch, so value gathering is O(windows) instead
   of O(queries × windows).  That loop is written once, for one run or
   many, in :class:`ScanDriver`; its parallel subclass overrides only
   what is parallel and :func:`scan_driver` picks between the two.
3. Every ``round_rows`` rows read (B = 40,000 in the paper, §4.2), the
   executor recomputes per-group confidence intervals with OptStop's
   decayed error probability (Algorithm 5), folds them into each group's
   running intersection, refreshes the active-group set, and tests the
   stopping condition.  Rounds are *incremental* in the pool engine:
   only views whose counters changed since the last round (the pool's
   dirty mask) are recomputed — for unchanged views the decayed-δ
   interval is wider and the running-intersection fold a no-op, so
   skipping them is bit-identical.

Two engines implement identical semantics (the parity test-suite pins
their outputs to each other within floating-point tolerance), as two
subclasses of :class:`QueryRun`.  The run's driver-facing methods —
select, consume, the round cadence, the active-set refresh and stopping
test, snapshots, finalize — are written once on the base class and call
one hook per engine-specific step of Algorithm 5: ``_init_views``
(allocate per-view state), ``_ingest`` (fold a partitioned window),
``_recompute_bounds`` (per-view CIs at the decayed δ),
``_snapshot_columns`` / ``_set_active`` (read the live views as
:class:`~repro.stopping.conditions.SnapshotColumns`, write back the
stopping condition's active mask), ``active_views`` (the mask block
selection reads), ``_finalize_exhausted`` (mark views whose every row is
settled; their aggregates are exact) and ``_results``.

* ``_PoolRun`` — the vectorized core: all per-view state lives in a
  struct-of-arrays :class:`~repro.fastframe.viewpool.ViewPool`; ingest is
  a few ``np.bincount`` passes per window and each round is a fixed
  number of array expressions over all views at once ("the per-view
  bounder state is updated vectorized", §4.2).
* ``_ScalarRun`` — the reference implementation: one ``_ViewState``
  object per view, Python loops over views.  Kept as the executable
  specification the pool engine is tested against, and for few-view
  workloads where the loop is the faster of the two.

``QueryRun(scramble, query, ...)`` is the one constructor and the one
place the choice is made, per query: pool at or above
:data:`AUTO_POOL_THRESHOLD` aggregate views, scalar below.

Error-probability accounting (δ = 1e-15 by default, as in §5.2):
``δ → ÷ #aggregate-views (§4.1) → × 6/π²k⁻² per round (Alg. 5) →
Theorem 3 split (1 − α for N⁺, α for the CI) → δ/2 per CI side``.

Sampling-soundness model (the paper's, from Definition 4's discussion):
scanning any subset of a scramble chosen *without knowledge of the data
order* is equivalent to without-replacement sampling.  Block skipping
decisions depend only on bitmap presence of categorical values, never on
the aggregated column's values, so the rows read for a view while its
group is active form a uniform without-replacement sample from the view.
Per-group *covered-row* accounting feeds Lemma 5: a row counts as covered
for group g once it was either read, or skipped inside a block the bitmap
index certifies holds no tuple of g (such rows contribute 0 to the view).
While g is active, every block possibly containing g is fetched, so whole
windows are covered; while g is inactive (its stopping criterion already
met), its state is frozen and windows are not counted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bounders.base import ErrorBounder, Interval, segment_bounds
from repro.fastframe.config import ExecConfig
from repro.fastframe.count import (
    SelectivityState,
    count_interval,
    count_interval_batch,
    sum_interval,
    sum_interval_batch,
    upper_bound_population,
    upper_bound_population_batch,
)
from repro.fastframe.query import (
    AggregateFunction,
    ExecutionMetrics,
    GroupResult,
    Query,
    QueryResult,
)
from repro.fastframe.scan import SamplingStrategy, ScanCursor, ScanStrategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.storage import storage_tracker
from repro.fastframe.kernels import IngestDelta, partition_ingest
from repro.fastframe.viewpool import ViewPool
from repro.fastframe.window import WindowFrame
from repro.stats.delta import DeltaBudget
from repro.stats.streaming import MomentState
from repro.stopping.conditions import GroupSnapshots, SamplesTaken, SnapshotColumns

__all__ = [
    "QueryRun",
    "ScanDriver",
    "scan_driver",
    "run_shared_scan",
    "DEFAULT_ROUND_ROWS",
]

#: Recompute bounds every 40,000 rows read, as in the paper (§4.2).
DEFAULT_ROUND_ROWS = 40_000

#: View count at which :class:`QueryRun` switches from the scalar engine
#: to the pool engine: below it the constant-factor overhead of array
#: machinery still loses to a short Python loop (the measured crossover
#: sits between 10 and 100 views; see PERFORMANCE.md).
AUTO_POOL_THRESHOLD = 32


@dataclass
class RunningIntersection:
    """Maintains ``[max_k L_k, min_k R_k]`` across OptStop rounds.

    Starts at the trivial interval and only ever tightens; Theorem 4
    guarantees the intersection contains the true aggregate w.h.p. because
    every round's interval does simultaneously.
    """

    lo: float = -np.inf
    hi: float = np.inf

    def fold(self, interval: Interval) -> Interval:
        """Intersect with a new round's interval and return the result."""
        self.lo = max(self.lo, interval.lo)
        self.hi = min(self.hi, interval.hi)
        if self.lo > self.hi:
            # Only possible on the (< δ probability) failure event or from
            # floating-point ties; collapse to the midpoint deterministically.
            mid = 0.5 * (self.lo + self.hi)
            self.lo = self.hi = mid
        return Interval(self.lo, self.hi)

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)


@dataclass
class _ViewState:
    """All per-aggregate-view state the executor maintains."""

    key_codes: tuple[int, ...]
    bounder_state: object
    sample_moments: MomentState = field(default_factory=MomentState)
    all_read_moments: MomentState = field(default_factory=MomentState)
    selectivity: SelectivityState = field(default_factory=SelectivityState)
    running: RunningIntersection = field(default_factory=RunningIntersection)
    count_running: RunningIntersection = field(default_factory=RunningIntersection)
    interval: Interval = Interval(-np.inf, np.inf)
    count_iv: Interval = Interval(0.0, np.inf)
    active: bool = True
    exhausted: bool = False
    dropped: bool = False


class QueryRun:
    """The steppable execution state of one query over a scramble.

    A run is the executor's unit of progress: it owns the per-view state
    (laid out by the engine subclass ``QueryRun(scramble, query, ...)``
    resolves to — see the module docstring), the δ budget, and the round
    counters — but *not* the scan position.  Each window is processed in
    two phases: :meth:`select_blocks` computes the run's
    block-fetch mask, then :meth:`consume` slices the run's private view
    out of a materialized :class:`~repro.fastframe.window.WindowFrame`.
    That split makes the same state machine serve both flavours of the
    one window loop (:class:`ScanDriver`):

    * :meth:`drive` (behind the connection's ``result()``/``rounds()``)
      — one run, one private :class:`~repro.fastframe.scan.ScanCursor`;
      the solo driver builds each frame over the run's own mask and
      charges it to the run;
    * :func:`run_shared_scan` — many runs (one per dashboard query) fed
      from a **single shared cursor**: the driver unions the runs' masks,
      materializes one frame per window (value arrays, combined group
      codes, predicate masks gathered once), and every run consumes its
      slice, retiring independently when its stopping condition fires.

    Because a run consumes every window exactly as the solo loop would
    (block selection, ingest order, and round cadence are all computed
    from its own state, and the frame's union preserves scan order),
    feeding N runs from one cursor produces bitwise the same per-query
    results as N sequential executions from the same start block — the
    parity suite pins this.
    """

    #: The struct-of-arrays view state when the run is on the pool engine.
    #: The parallel driver offloads a window's ingest to a thread only for
    #: runs that have one.
    pool: ViewPool | None = None

    def __new__(cls, scramble: Scramble, query: Query, **_):
        if cls is QueryRun:
            # The one place an engine is chosen.
            views = scramble.group_domain(query.group_by).size
            cls = _PoolRun if views >= AUTO_POOL_THRESHOLD else _ScalarRun
        return super().__new__(cls)

    def __init__(
        self,
        scramble: Scramble,
        query: Query,
        *,
        bounder: ErrorBounder,
        delta: float,
        strategy: SamplingStrategy | None = None,
        round_rows: int = DEFAULT_ROUND_ROWS,
    ) -> None:
        """Per-view states come from ``bounder``; ``delta`` is the query's
        total error probability, ``strategy`` defaults to plain Scan and
        ``round_rows`` is B in Algorithm 5 (rows between recomputations)."""
        self.scramble = scramble
        self.query = query
        self.round_rows = round_rows
        self.metrics = ExecutionMetrics()
        self._start_time = time.perf_counter()

        # The quantile family certifies order statistics, not means, so
        # each MEDIAN/PERCENTILE query gets its own DKW-inversion bounder
        # at the query's level p; everything else shares the connection's.
        if query.aggregate.is_quantile:
            from repro.bounders.quantile import QuantileBounder

            self.bounder: ErrorBounder = QuantileBounder(query.quantile_p)
        else:
            self.bounder = bounder

        self.values_of, self.bounds = self._resolve_value_column()
        # Frame memoization key for the aggregated column: queries over the
        # same named column share one gathered value array per window.
        if query.aggregate is AggregateFunction.COUNT:
            self.value_key = None
        elif isinstance(query.column, str):
            self.value_key = ("column", query.column)
        else:
            self.value_key = ("expression", id(query.column))
        self.group_by = query.group_by
        # Building the domain also caches the scramble's rank column, so
        # per-window frame slices never pay that build.
        self.domain = scramble.group_domain(self.group_by)
        self.indexes = {
            column: scramble.bitmap_index(column) for column in self.group_by
        }
        self.predicate_requirements = query.predicate.categorical_requirements(
            scramble.table
        )
        for column in self.predicate_requirements:
            self.indexes.setdefault(column, scramble.bitmap_index(column))

        self.strategy = strategy = strategy or ScanStrategy()
        self.uses_active = strategy.uses_active_groups
        self.freezes_groups = self.uses_active and bool(self.group_by)
        # Condition Ê: with a fixed requested sample count, Algorithm 5's
        # δ-decay is unnecessary (§4.2) — rounds only check sample counts,
        # and a single full-budget CI is issued at the end of the run.
        self.fixed_sample_mode = isinstance(query.stopping, SamplesTaken)

        #: Per-column codes of each view's group key, aligned with
        #: :attr:`domain` (and so with the engine's view order); shared
        #: through the scramble's metadata cache, so read-only.
        self.key_codes, self._group_keys = scramble.group_keys(self.group_by)
        self._init_views()
        self.view_budget = DeltaBudget(delta).split_even(
            max(self.domain.size, 1)
        )

        self.rows_since_bound = 0
        self.round_index = 0
        self.satisfied = False
        self._scan_ended = False
        self._finalized: QueryResult | None = None
        self._round_columns: SnapshotColumns | None = None

    def _resolve_value_column(
        self,
    ) -> tuple[Callable[[np.ndarray], np.ndarray] | None, tuple[float, float]]:
        """Value accessor + range bounds for the aggregated column.

        Accepts a continuous column name or any expression object exposing
        ``evaluate(table, rows)`` and ``range_bounds(bounds_by_column)``
        (see :mod:`repro.expressions`, Appendix B).
        """
        table = self.scramble.table
        if self.query.aggregate is AggregateFunction.COUNT:
            return None, (0.0, 1.0)
        column = self.query.column
        if isinstance(column, str):
            bounds = table.catalog.bounds(column)
            # The gather provider: store-backed (zero-copy mmap block
            # views) when the scramble has storage attached, the resident
            # array otherwise — identical bytes either way.
            values = self.scramble.column_values(column)
            return (lambda rows: values[rows]), (bounds.a, bounds.b)
        bounds_by_column = {
            name: table.catalog.bounds(name) for name in column.columns()
        }
        derived = column.range_bounds(bounds_by_column)
        return (lambda rows: column.evaluate(table, rows)), (derived.a, derived.b)

    # -- driver interface ----------------------------------------------

    @property
    def window_blocks(self) -> int:
        """Lookahead window size the run expects to be fed in."""
        return self.strategy.window_blocks

    @property
    def finished(self) -> bool:
        """True once the run needs no further windows."""
        return self.satisfied or self._scan_ended

    def select_blocks(self, window: np.ndarray) -> np.ndarray:
        """Phase 1 of a window: this run's block-fetch mask, charged.

        Computed from the run's own state (strategy, active views,
        predicate requirements) without touching the scramble's data, so a
        shared-scan driver can collect every run's mask first and fetch
        the union once.  The strategy charges its index probes to this
        run's metrics.
        """
        mask = self.strategy.select_blocks(window, self)
        fetched = int(mask.sum())
        self.metrics.blocks_fetched += fetched
        self.metrics.blocks_skipped += int(window.size - fetched)
        return mask

    def consume(self, frame: WindowFrame, mask: np.ndarray, at_end: bool) -> None:
        """Phase 2 of a window: ingest this run's slice of a shared frame.

        ``mask`` is this run's :meth:`select_blocks` result (a subset of
        the frame's union mask).  Value arrays, pool-row ranks, and
        predicate masks come from the frame's shared materializations —
        the run never touches the scramble's data here — and so, in a
        multi-run scan, does the partitioned stream itself
        (:meth:`_shared_delta`).
        Every ``round_rows`` rows or at scan end (``at_end=True``), one
        OptStop round runs.
        """
        if frame.deltas is None:
            delta = self._partition(frame, mask)
        else:
            delta = self._shared_delta(frame, mask)
        self._ingest(delta, frame.window_rows)
        self._end_window(delta.n_read, at_end)

    def _partition(self, frame: WindowFrame, mask: np.ndarray) -> IngestDelta:
        """This run's slice of ``frame``, in stream order."""
        # Both engines partition through the same kernel; they differ
        # only in the fold (the ``_ingest`` hook).
        return partition_ingest(
            frame.n_rows,
            frame.element_selector(mask),
            lambda: frame.predicate_mask(self.query.predicate),
            self.frame_values_of(frame),
            self.frame_ranks_of(frame),
        )

    def _shared_delta(self, frame: WindowFrame, mask: np.ndarray) -> IngestDelta:
        """:meth:`_partition` through the frame's memo of a multi-run scan.

        The partitioned stream is a pure function of the block mask, the
        predicate, the GROUP BY (hence the view domain) and the value
        column, so runs that agree on all four fold one read-only delta.
        A COUNT run needs only the view indices and takes them from any
        run with the same slice and grouping.
        """
        streams = frame.deltas.setdefault(
            (mask.tobytes(), self.query.predicate, self.group_by), {}
        )
        delta = streams.get(self.value_key)
        if delta is not None:
            return delta
        if self.value_key is None and streams:
            some = next(iter(streams.values()))
            delta = IngestDelta(some.n_read, some.n_in_view, some.view_idx)
        else:
            delta = self._partition(frame, mask)
            for array in (delta.view_idx, delta.values):
                if array is not None:
                    array.flags.writeable = False
        streams[self.value_key] = delta
        return delta

    def frame_values_of(self, frame: WindowFrame):
        """Lazy pick-slicer over the frame's shared value array, or
        ``None`` for COUNT queries (the serial lazy-gather condition —
        the frame materializes the column only if this is invoked)."""
        if self.values_of is None:
            return None
        return lambda pick: frame.values(self.value_key, self.values_of)[pick]

    def frame_ranks_of(self, frame: WindowFrame):
        """Lazy pick-slicer over the frame's pool-row ranks, or ``None``
        for single-view runs (which need no ranks).

        Checks first that the scramble's groups are still the ones this
        run was planned over: after an insert that adds a group the
        rebuilt ranks index another domain, and folding by them would
        credit rows to the wrong views
        (:class:`~repro.fastframe.scramble.StaleGroupDomain`).
        """
        if not self.group_by:
            return None
        group_by = self.group_by
        ranks = self.scramble.group_ranks(group_by, self.domain)
        if self.domain.size <= 1:
            return None
        return lambda pick: frame.combined_codes(group_by, ranks.__getitem__)[pick]

    def _end_window(self, n_read: int, at_end: bool) -> None:
        """The tail of a window, once its slice is folded in: charge
        ``n_read`` rows and advance the round cadence shared by both
        engines — every ``round_rows`` rows read or at scan end, one
        OptStop round (recompute bounds, refresh the active set, test the
        stopping condition).  Always on the scanning thread; the parallel
        driver calls it after the run's ingest task has returned.
        """
        self.metrics.rows_read += n_read
        self.rows_since_bound += n_read
        if at_end:
            self._scan_ended = True

        if self.rows_since_bound >= self.round_rows or at_end:
            self.rows_since_bound = 0
            self.round_index += 1
            self.metrics.rounds = self.round_index
            if not self.fixed_sample_mode:
                self.metrics.bounds_recomputed += self._recompute_bounds(
                    self.round_index
                )
            self.satisfied = self._refresh_active()

    def drive(self, cursor: ScanCursor, config: ExecConfig):
        """Drive this run alone off a private cursor until it finishes.

        A generator yielding once per consumed window, so progressive
        callers can read run state between windows: the solo flavour of
        whichever :class:`ScanDriver` :func:`scan_driver` picks.  Closing
        the generator, or an error mid-scan, seals the run with
        :meth:`finalize`.
        """
        try:
            yield from scan_driver([self], cursor, config, solo=True).windows()
        finally:
            self.finalize()

    def group_keys(self) -> list[tuple]:
        """Decoded GROUP BY key per view, aligned with :attr:`domain` (the
        pool's rows, the scalar ``views`` in order).

        Decoded once per scramble and GROUP BY column set (see
        :meth:`~repro.fastframe.scramble.Scramble.group_keys`): every round's
        :meth:`group_snapshots` and the final result reuse the list.
        """
        return self._group_keys

    def group_snapshots(self) -> GroupSnapshots:
        """Decoded per-group snapshots of the run's intervals as of its
        latest round.

        The progressive view a live dashboard renders between rounds
        (:meth:`repro.api.QueryHandle.rounds`): a read-only
        :class:`~repro.stopping.conditions.GroupSnapshots` mapping from
        decoded group-by values to
        :class:`~repro.stopping.conditions.GroupSnapshot`, built on first
        access from the columns the round's stopping test read; its
        ``.columns`` is the array view.
        """
        columns = self._round_columns
        if columns is None:  # before the first round
            columns = self._snapshot_columns()
        return GroupSnapshots(columns, self.group_keys())

    def finalize(self) -> QueryResult:
        """Seal the run and materialize its :class:`QueryResult`."""
        if self._finalized is not None:
            return self._finalized
        if self.fixed_sample_mode:
            # The one interval this run issues, at the undecayed per-view
            # budget; computed for every surviving view regardless of its
            # (sample-count-based) active flag.
            self.metrics.bounds_recomputed += self._recompute_bounds(None)
        self.metrics.stopped_early = self.satisfied and not self._scan_ended
        self._finalize_exhausted()
        groups = self._results(self.group_keys())
        self.metrics.wall_time_s = time.perf_counter() - self._start_time
        self._finalized = QueryResult(
            query=self.query, groups=groups, metrics=self.metrics
        )
        return self._finalized

    def _refresh_active(self) -> bool:
        """One round's tail: mark the stopping condition's active views and
        return whether the condition is satisfied.

        The one place the rule "an exhausted view is never active" is
        applied: no further sample can change an exact aggregate.
        """
        self._round_columns = columns = self._snapshot_columns()
        stopping = self.query.stopping
        self._set_active(
            columns.rows, stopping.active_mask(columns) & ~columns.exhausted
        )
        return stopping.satisfied_columns(columns)

    # -- engine hooks ---------------------------------------------------
    # The eight hooks the module docstring lists are the subclasses'; each
    # reads the run's own ``query`` / ``bounds`` / ``bounder`` /
    # ``view_budget``.  Shared by both engines' ``_recompute_bounds``:

    def _round_deltas(self, round_index: int | None) -> tuple[float, float | None]:
        """``(interval δ, CI δ)`` of one view in one OptStop round.

        Budget layout within a round: the COUNT interval (also used to drop
        certified-empty views) and the value interval each receive half the
        round budget — the first element; the value half is further split
        per Theorem 3 (``(1 − α)`` for N⁺, which takes that share of the
        half itself, α for the bounder CI — the second element — δ/2 per
        side inside ``confidence_interval``).  A COUNT query issues no
        value interval: its COUNT interval gets the whole round budget.

        ``round_index=None`` is the fixed-sample-count mode (condition Ê):
        the single end-of-run computation at the full, undecayed per-view
        budget.
        """
        budget = (
            self.view_budget
            if round_index is None
            else self.view_budget.for_round(round_index)
        )
        if self.query.aggregate is AggregateFunction.COUNT:
            return budget.delta, None
        half = budget.split_even(2)
        _, ci_budget = half.split_unknown_n()
        return half.delta, ci_budget.delta


class _ScalarRun(QueryRun):
    """The scalar engine: one ``_ViewState`` per view, Python loops."""

    def _init_views(self) -> None:
        self.views: dict[int, _ViewState] = {
            int(code): _ViewState(
                key_codes=key_codes,
                bounder_state=self.bounder.init_state(),
            )
            for code, key_codes in zip(self.domain, self.key_codes)
        }

    def active_views(self) -> np.ndarray:
        return np.array(
            [view.active and not view.dropped for view in self.views.values()],
            dtype=bool,
        )

    def _ingest(self, delta: IngestDelta, window_rows: int) -> None:
        """Fold one partitioned window slice into the per-view states.

        The scalar mirror of :meth:`ViewPool.apply_ingest`: it consumes
        the same :class:`IngestDelta` the
        :func:`~repro.fastframe.kernels.partition_ingest` kernel produces
        for the pool engine, so the two engines share every byte of
        slicing/gather arithmetic and differ only in how per-view state
        is stored.  Each view's value segment comes off the delta's
        memoized :meth:`~repro.fastframe.kernels.IngestDelta.grouped`
        sort, in stream order — the order the seed's per-view loop fed it
        (``delta.values`` is ``None`` for COUNT queries, which only need
        per-view row counts and never sort).
        """
        bounder = self.bounder
        freezes_groups = self.freezes_groups
        needs_values = self.query.aggregate is not AggregateFunction.COUNT
        segments, segment_moments = self._segments(delta, needs_values)

        for code, view in self.views.items():
            if view.dropped or view.exhausted:
                continue
            segment = segments.get(code)
            if needs_values:
                values = segment
                in_view = 0 if values is None else values.size
                if in_view:
                    # One reduction of the segment serves every moment
                    # consumer below, and every run sharing the delta
                    # (bit-equal to each reducing it itself).
                    moments = segment_moments.get(code)
                    if moments is None:
                        moments = MomentState.batch_moments(values)
                        segment_moments[code] = moments
                    view.all_read_moments.merge_moments(*moments)
            else:
                values = None
                in_view = 0 if segment is None else int(segment)
                if in_view:
                    view.all_read_moments.count += in_view
            if freezes_groups and not view.active:
                continue  # frozen: rows stay unsettled for this view
            view.selectivity.observe(in_view, window_rows)
            if in_view and needs_values:
                view.sample_moments.merge_moments(*moments)
                bounder.update_batch_with_moments(view.bounder_state, values, moments)

    def _segments(self, delta: IngestDelta, needs_values: bool) -> tuple[dict, dict]:
        """``(segments, moments)`` of a delta, memoized on it for every run
        that shares it: view code → its value segment (its row count for
        COUNT, counted without a sort), and view code → the segment's
        batch moments, filled as the views ask for them."""
        if delta.segments is None:
            domain = self.domain
            segments: dict[int, np.ndarray | int] = {}
            if delta.n_in_view and not needs_values:
                counts = np.bincount(delta.view_idx, minlength=domain.size)
                for row in np.flatnonzero(counts):
                    segments[int(domain[row])] = int(counts[row])
            elif delta.n_in_view:
                view_idx, values = delta.grouped()
                for start, end in zip(*segment_bounds(view_idx)):
                    segments[int(domain[view_idx[start]])] = values[start:end]
            delta.segments, delta.moments = segments, {}
        return delta.segments, delta.moments

    def _recompute_bounds(self, round_index: int | None) -> int:
        """One OptStop round: per-view CIs at the decayed δ (Algorithm 5).

        ``round_index=None`` is the fixed-sample-count single shot
        (:meth:`_round_deltas`), covering every surviving view regardless
        of activity.  Returns the number of views whose bounds were
        recomputed.
        """
        a, b = self.bounds
        aggregate = self.query.aggregate
        scramble_rows = self.scramble.num_rows
        interval_delta, ci_delta = self._round_deltas(round_index)
        skip_frozen = round_index is not None and self.uses_active
        recomputed = 0
        for view in self.views.values():
            if view.dropped or view.exhausted:
                continue
            if skip_frozen and not view.active:
                continue  # frozen views keep their last certified interval
            recomputed += 1
            view.count_iv = view.count_running.fold(
                count_interval(view.selectivity, scramble_rows, interval_delta)
            )
            if view.count_iv.hi < 1.0:
                # Certified empty: the view contributes no row, so its
                # aggregate does not exist in the exact answer either.
                view.dropped = True
                continue
            if aggregate is AggregateFunction.COUNT:
                view.interval = view.count_iv
                continue
            n_plus = upper_bound_population(
                view.selectivity, scramble_rows, interval_delta
            )
            avg_iv = view.running.fold(
                self.bounder.confidence_interval(
                    view.bounder_state, a, b, n_plus, ci_delta
                )
            )
            if aggregate is AggregateFunction.SUM:
                view.interval = sum_interval(view.count_iv, avg_iv)
            else:
                # AVG — and the quantile family, whose bounder interval
                # already certifies the view-level aggregate directly.
                view.interval = avg_iv
        return recomputed

    def _snapshot_columns(self) -> SnapshotColumns:
        """The scalar mirror of :meth:`ViewPool.snapshot_columns`: one row
        per non-dropped view, ``rows`` indexing :attr:`views` in order."""
        a, b = self.bounds
        live = []
        for row, view in enumerate(self.views.values()):
            if view.dropped:
                continue
            interval = view.interval
            if not np.isfinite(interval.lo) or not np.isfinite(interval.hi):
                # Clamp per endpoint: a half-finite interval keeps its
                # certified finite bound; only the trivial side falls back
                # to the value range.
                interval = Interval(
                    interval.lo if np.isfinite(interval.lo) else a,
                    interval.hi if np.isfinite(interval.hi) else b,
                )
            live.append((
                row,
                interval.lo,
                interval.hi,
                self._estimate(view, interval),
                view.sample_moments.count,
                view.exhausted,
            ))
        rows, lo, hi, estimate, samples, exhausted = zip(*live) if live else [()] * 6
        return SnapshotColumns(
            rows=np.array(rows, dtype=np.intp),
            lo=np.array(lo, dtype=np.float64),
            hi=np.array(hi, dtype=np.float64),
            estimate=np.array(estimate, dtype=np.float64),
            samples=np.array(samples, dtype=np.int64),
            exhausted=np.array(exhausted, dtype=bool),
        )

    def _set_active(self, rows: np.ndarray, mask: np.ndarray) -> None:
        flags = np.zeros(len(self.views), dtype=bool)
        flags[rows[mask]] = True
        for view, flag in zip(self.views.values(), flags.tolist()):
            view.active = flag

    def _estimate(self, view: _ViewState, interval: Interval) -> float:
        if view.sample_moments.count > 0:
            if self.query.aggregate.is_quantile:
                return self.bounder.estimate(view.bounder_state)
            return view.sample_moments.mean
        return interval.midpoint

    def _finalize_exhausted(self) -> None:
        aggregate = self.query.aggregate
        scramble_rows = self.scramble.num_rows
        for view in self.views.values():
            if view.dropped:
                continue
            if view.selectivity.covered >= scramble_rows:
                view.exhausted = True
                if view.selectivity.in_view == 0:
                    view.dropped = True
                    continue
                exact_count = float(view.selectivity.in_view)
                view.count_iv = Interval(exact_count, exact_count)
                if aggregate is AggregateFunction.COUNT:
                    view.interval = view.count_iv
                elif aggregate is AggregateFunction.AVG:
                    exact = view.all_read_moments.mean
                    view.interval = Interval(exact, exact)
                elif aggregate.is_quantile:
                    # Covered-row accounting only advances while the view
                    # settles, so exhaustion implies the bounder state holds
                    # the full view multiset: its sample quantile IS the
                    # population quantile.
                    exact = self.bounder.estimate(view.bounder_state)
                    view.interval = Interval(exact, exact)
                else:
                    exact = view.all_read_moments.mean * exact_count
                    view.interval = Interval(exact, exact)

    def _results(self, keys: list[tuple]) -> dict:
        return {
            key: self._group_result(view, key)
            for key, view in zip(keys, self.views.values())
            if not view.dropped
        }

    def _group_result(self, view: _ViewState, key: tuple) -> GroupResult:
        aggregate = self.query.aggregate
        interval = view.interval
        if not np.isfinite(interval.lo) or not np.isfinite(interval.hi):
            # Per-endpoint: keep a certified finite bound on one side even
            # when the other side is still trivial.
            interval = Interval(
                interval.lo if np.isfinite(interval.lo) else -np.inf,
                interval.hi if np.isfinite(interval.hi) else np.inf,
            )
        estimate = self._estimate(view, interval)
        count_estimate = (
            view.selectivity.in_view
            / max(view.selectivity.covered, 1)
            * self.scramble.num_rows
        )
        if aggregate is AggregateFunction.COUNT:
            estimate = count_estimate
        elif aggregate is AggregateFunction.SUM and view.sample_moments.count:
            estimate = view.sample_moments.mean * count_estimate
        return GroupResult(
            key=key,
            estimate=estimate,
            interval=interval,
            count_interval=view.count_iv,
            samples=view.sample_moments.count,
            exhausted=view.exhausted,
        )


class _PoolRun(QueryRun):
    """The pool engine: array mirrors of :class:`_ScalarRun`'s hooks.
    Every step is a fixed number of numpy expressions over all views."""

    def _init_views(self) -> None:
        self.pool = pool = ViewPool.build(self.domain, self.key_codes, self.bounder)
        if self.query.aggregate.is_quantile:
            bounder = self.bounder
            pool.estimator = lambda rows: bounder.estimate_batch(
                pool.bounder_pool, indices=rows
            )

    def active_views(self) -> np.ndarray:
        return self.pool.active & ~self.pool.dropped

    def _ingest(self, delta: IngestDelta, window_rows: int) -> None:
        self.pool.apply_ingest(
            self.bounder, delta, window_rows, self.freezes_groups
        )

    def _recompute_bounds(self, round_index: int | None) -> int:
        """One OptStop round over the dirty slice of the pool (Algorithm 5).

        Incremental rounds: only rows whose counters changed since their
        last recomputation (``pool.dirty``) are touched — a clean row's
        interval at the later round's smaller decayed δ would be wider,
        so its running-intersection fold is a no-op and the last certified
        interval stands.  ``round_index=None`` (the fixed-sample-count
        single shot) recomputes every surviving view regardless of the
        dirty mask.  Returns the number of pool rows recomputed.
        """
        pool = self.pool
        a, b = self.bounds
        aggregate = self.query.aggregate
        scramble_rows = self.scramble.num_rows
        interval_delta, ci_delta = self._round_deltas(round_index)
        recompute = ~pool.dropped & ~pool.exhausted
        if round_index is not None:
            recompute &= pool.dirty
            if self.uses_active:
                recompute &= pool.active
        idx = np.flatnonzero(recompute)
        if idx.size == 0:
            return 0
        # These rows' bounds are now being brought current; their snapshot
        # columns go stale the moment the new intervals land.
        pool.dirty[idx] = False
        pool.snap_dirty[idx] = True
        recomputed = int(idx.size)
        count_lo, count_hi = count_interval_batch(
            pool.in_view[idx], pool.covered[idx], scramble_rows, interval_delta
        )
        count_lo, count_hi = pool.fold_count(idx, count_lo, count_hi)
        pool.civ_lo[idx] = count_lo
        pool.civ_hi[idx] = count_hi
        # Certified empty: the view contributes no row, so its aggregate
        # does not exist in the exact answer either.
        empty = count_hi < 1.0
        if empty.any():
            pool.dropped[idx[empty]] = True
            idx = idx[~empty]
            count_lo = count_lo[~empty]
            count_hi = count_hi[~empty]
            if idx.size == 0:
                return recomputed
        if aggregate is AggregateFunction.COUNT:
            pool.iv_lo[idx] = count_lo
            pool.iv_hi[idx] = count_hi
            return recomputed
        n_plus = upper_bound_population_batch(
            pool.in_view[idx], pool.covered[idx], scramble_rows, interval_delta
        )
        avg_lo, avg_hi = self.bounder.confidence_interval_batch(
            pool.bounder_pool, a, b, n_plus, ci_delta, indices=idx
        )
        avg_lo, avg_hi = pool.fold_value(idx, avg_lo, avg_hi)
        if aggregate is AggregateFunction.SUM:
            sum_lo, sum_hi = sum_interval_batch(count_lo, count_hi, avg_lo, avg_hi)
            pool.iv_lo[idx] = sum_lo
            pool.iv_hi[idx] = sum_hi
        else:
            # AVG — and the quantile family, whose bounder interval already
            # certifies the view-level aggregate directly.
            pool.iv_lo[idx] = avg_lo
            pool.iv_hi[idx] = avg_hi
        return recomputed

    def _snapshot_columns(self) -> SnapshotColumns:
        return self.pool.snapshot_columns(*self.bounds)

    def _set_active(self, rows: np.ndarray, mask: np.ndarray) -> None:
        self.pool.active[:] = False
        self.pool.active[rows] = mask

    def _finalize_exhausted(self) -> None:
        pool = self.pool
        aggregate = self.query.aggregate
        done = ~pool.dropped & (pool.covered >= self.scramble.num_rows)
        if not done.any():
            return
        pool.exhausted |= done
        pool.dropped |= done & (pool.in_view == 0)
        pool.snap_dirty |= done  # exact intervals land below
        idx = np.flatnonzero(done & ~pool.dropped)
        if idx.size == 0:
            return
        exact_count = pool.in_view[idx].astype(np.float64)
        pool.civ_lo[idx] = exact_count
        pool.civ_hi[idx] = exact_count
        if aggregate is AggregateFunction.COUNT:
            exact = exact_count
        elif aggregate is AggregateFunction.AVG:
            exact = pool.all_read.mean[idx]
        elif aggregate.is_quantile:
            # Covered rows only advance while the view settles, so the
            # bounder pool holds the exhausted views' full row multisets:
            # their sample quantiles ARE the population quantiles.
            exact = self.bounder.estimate_batch(pool.bounder_pool, indices=idx)
        else:
            exact = pool.all_read.mean[idx] * exact_count
        pool.iv_lo[idx] = exact
        pool.iv_hi[idx] = exact

    def _results(self, keys: list[tuple]) -> dict:
        """Materialize per-group results: one ``.tolist()`` per column,
        zipped, so the O(views) loop touches only Python scalars.

        ``keys`` is the decoded group key per pool row
        (:meth:`QueryRun.group_keys`).
        """
        pool = self.pool
        aggregate = self.query.aggregate
        live = np.flatnonzero(~pool.dropped)
        lo = pool.iv_lo[live]
        hi = pool.iv_hi[live]
        # Per-endpoint clamp: a half-finite interval keeps its certified
        # finite bound; only the trivial side is widened.
        lo = np.where(np.isfinite(lo), lo, -np.inf)
        hi = np.where(np.isfinite(hi), hi, np.inf)
        samples = pool.sample.count[live]
        count_estimate = (
            pool.in_view[live]
            / np.maximum(pool.covered[live], 1)
            * self.scramble.num_rows
        )
        if aggregate is AggregateFunction.COUNT:
            estimate = count_estimate
        elif aggregate.is_quantile:
            estimate = np.where(
                samples > 0,
                self.bounder.estimate_batch(pool.bounder_pool, indices=live),
                0.5 * (lo + hi),
            )
        else:
            estimate = np.where(
                samples > 0, pool.sample.mean[live], 0.5 * (lo + hi)
            )
            if aggregate is AggregateFunction.SUM:
                estimate = np.where(
                    samples > 0, pool.sample.mean[live] * count_estimate, estimate
                )
        groups = {}
        for row, point, low, high, count_lo, count_hi, n, exhausted in zip(
            live.tolist(),
            estimate.tolist(),
            lo.tolist(),
            hi.tolist(),
            pool.civ_lo[live].tolist(),
            pool.civ_hi[live].tolist(),
            samples.tolist(),
            pool.exhausted[live].tolist(),
        ):
            key = keys[row]
            groups[key] = GroupResult(
                key=key,
                estimate=point,
                interval=Interval(low, high),
                count_interval=Interval(count_lo, count_hi),
                samples=n,
                exhausted=exhausted,
            )
        return groups


class ScanDriver:
    """The window loop: one cursor, the runs it feeds, their accounting.

    Each pass of :meth:`windows` takes the next lookahead window off
    ``cursor``, collects every live run's block mask and hands them to
    :meth:`_process`: union the masks, materialize **one**
    :class:`~repro.fastframe.window.WindowFrame`, :meth:`_ingest` it into
    every run, then the accounting tail — the one place the per-window
    record is written.  :func:`run_shared_scan` documents what the batch
    metrics mean.  ``solo=True`` is the one-run flavour with a query's own
    accounting (:meth:`QueryRun.drive`): the frame's gathers and block I/O
    are charged to the run and the run is not sealed on retirement;
    nobody reads a solo driver's batch metrics, so they stay untouched.

    This is the lean serial loop.  The parallel driver subclasses it, not
    the reverse, so serial execution pays for none of the parallel
    per-window bookkeeping (PERFORMANCE.md, "Why two engines, and why
    serial does not go through the driver"); it overrides only
    :meth:`_ingest` (fan-out).  Each window's blocks are selected when the
    window is taken off the cursor, never ahead of it.
    """

    def __init__(self, runs: list[QueryRun], cursor: ScanCursor, solo=False) -> None:
        if not runs:
            raise ValueError("run_shared_scan requires at least one QueryRun")
        for run in runs:
            if run.scramble is not cursor.scramble:
                raise ValueError(
                    "all runs in a shared scan must target the cursor's scramble"
                )
            if run.window_blocks != cursor.window_blocks:
                raise ValueError(
                    "all runs in a shared scan must use the cursor's window size "
                    f"({run.window_blocks} != {cursor.window_blocks})"
                )
        if solo and len(runs) != 1:
            raise ValueError("solo mode drives exactly one run")
        self.runs = list(runs)
        self.cursor = cursor
        self.solo = solo
        self.metrics = ExecutionMetrics()
        self._start_time = time.perf_counter()
        # Block I/O is a union-level cost like values_gathered, charged
        # window by window.  Every store read happens on the scanning
        # thread: ingest threads only read arrays it materialized.
        self._storage_tracker = storage_tracker(cursor.scramble)

    def run(self) -> ExecutionMetrics:
        """Process every window to completion; return the batch metrics."""
        for _ in self.windows():
            pass
        return self.finish()

    def windows(self):
        """Generator driving one window per iteration (the rounds() hook):
        yields the window's block ids once every live run has consumed it,
        so progressive-round callers can inspect run state between windows.
        """
        live = self.runs
        for window, at_end in self.cursor.windows():
            masks = [run.select_blocks(window) for run in live]
            self._process(window, at_end, live, masks)
            yield window
            live = [run for run in live if not run.finished]
            if not live:
                break

    def _process(self, window: np.ndarray, at_end: bool, live: list, masks: list):
        """One window; ``masks`` are the ``live`` runs' charged block masks."""
        # A lone run's mask is the union itself, which the frame's
        # element_selector then recognises by identity.
        union = masks[0] if len(masks) == 1 else np.logical_or.reduce(masks)
        frame = WindowFrame(
            self.cursor.scramble, window, union, shared=not self.solo
        )
        self._ingest(frame, at_end, live, masks)
        if self.solo:
            metrics = live[0].metrics
        else:
            metrics = self.metrics
            fetched = int(union.sum())
            metrics.blocks_fetched += fetched
            metrics.blocks_skipped += int(window.size - fetched)
            metrics.rows_read += frame.n_rows
            metrics.rounds += 1
        metrics.values_gathered += frame.values_gathered
        self._storage_tracker.drain(metrics)

    def _ingest(self, frame: WindowFrame, at_end: bool, live: list, masks: list):
        """Feed one frame to every live run, in run order."""
        for run, mask in zip(live, masks):
            run.consume(frame, mask, at_end)
            if run.finished and not self.solo:
                # Seal the run the moment it retires so its wall time
                # spans construction → retirement, not the whole batch
                # (finalize is cached; later calls return this result).
                run.finalize()

    def finish(self) -> ExecutionMetrics:
        """Seal and return the batch metrics."""
        metrics = self.metrics
        metrics.stopped_early = all(run.satisfied for run in self.runs)
        for name in ("bounds_recomputed", "index_probes", "batch_probes"):
            setattr(metrics, name, sum(getattr(run.metrics, name) for run in self.runs))
        metrics.wall_time_s = time.perf_counter() - self._start_time
        return metrics


def scan_driver(runs, cursor, config: ExecConfig, solo: bool = False) -> ScanDriver:
    """The driver ``config`` asks for: the one place serial or parallel is
    decided (the parallel module imports this one, hence the late import)."""
    if config.parallelism > 1:
        from repro.fastframe.parallel import ParallelScanDriver

        return ParallelScanDriver(runs, cursor, config, solo)
    return ScanDriver(runs, cursor, solo)


def run_shared_scan(
    runs: list[QueryRun], cursor: ScanCursor, config: ExecConfig
) -> ExecutionMetrics:
    """Drive many query runs from one scan cursor (the gather hot loop).

    Each pass takes the next lookahead window off the shared cursor,
    collects every unfinished run's block mask, fetches the **union**
    once, and materializes one :class:`WindowFrame` over it — value
    arrays, pool-row ranks, and predicate masks are gathered once
    per window, however many queries consume them.  Each run then slices
    its private view out of the frame, so a block wanted by k queries is
    fetched once, a column aggregated by k queries is gathered once, and
    the returned metrics count that union — the physical cost of the
    whole batch (``values_gathered`` counts the frame's shared gathers;
    per-run metrics record no gathers of their own in this mode).  Runs
    retire independently as their stopping conditions fire; the scan
    stops as soon as every run is finished (or the scramble is
    exhausted).

    Per-run results are untouched by the sharing: call
    ``run.finalize()`` on each run afterwards to collect per-query results whose intervals match sequential execution
    from the same start block exactly.

    ``metrics.rounds`` counts shared passes (windows taken off the
    cursor); ``stopped_early`` is True when every run satisfied its
    stopping condition before the scramble ran out;
    ``bounds_recomputed`` and the probe counters sum the runs'.

    ``config.parallelism`` above 1 routes the same loop through
    :class:`~repro.fastframe.parallel.ParallelScanDriver`: per-query
    window slices are partitioned on ingest threads and folded back in
    deterministic order, so results and metrics (except wall time) are
    bit-identical to the serial :class:`ScanDriver`.
    """
    return scan_driver(runs, cursor, config).run()
