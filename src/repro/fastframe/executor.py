"""The approximate query executor (§4): rounds, views, early termination.

:class:`ApproximateExecutor` runs a :class:`~repro.fastframe.query.Query`
against a :class:`~repro.fastframe.scramble.Scramble`:

1. The scramble is consumed in scan order from a random start position,
   in lookahead windows of 1024 blocks; the sampling strategy (Scan /
   ActiveSync / ActivePeek) decides which blocks of each window to fetch.
2. Each window's fetched rows, value arrays, combined group codes, and
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
select, consume, the round cadence, snapshots, finalize — are written
once on the base class and call one hook per engine-specific step of
Algorithm 5: ``_init_views`` (allocate per-view state), ``_ingest`` (fold
a partitioned window), ``_recompute_bounds`` (per-view CIs at the decayed
δ), ``_refresh_active`` (active set + stopping test),
``_active_key_codes`` / ``_group_snapshots`` (state reads for block
selection and progressive rounds), ``_finalize_exhausted`` (mark views
whose every row is settled; their aggregates are exact) and ``_results``.

* ``engine="pool"`` (``_PoolRun``) — the vectorized core: all per-view
  state lives in a struct-of-arrays
  :class:`~repro.fastframe.viewpool.ViewPool`; ingest is a few
  ``np.bincount`` passes per window and each round is a fixed number of
  array expressions over all views at once ("the per-view bounder state is
  updated vectorized", §4.2).
* ``engine="scalar"`` (``_ScalarRun``) — the reference implementation: one
  ``_ViewState`` object per view, Python loops over views.  Kept as the
  executable specification the pool engine is tested against, and for
  few-view workloads where the loop is the faster of the two.

``QueryRun(executor, query)`` is the one constructor and the one place
the choice is made: the default ``engine="auto"`` picks per query — pool
at or above :data:`AUTO_POOL_THRESHOLD` aggregate views, scalar below.

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

from repro.bounders.base import ErrorBounder, Interval
from repro.fastframe.bitmap import BlockBitmapIndex
from repro.fastframe.config import ExecConfig
from repro.fastframe.count import (
    DEFAULT_ALPHA,
    SelectivityState,
    count_interval,
    count_interval_batch,
    sum_interval,
    sum_interval_batch,
    upper_bound_population,
    upper_bound_population_batch,
)
from repro.fastframe.hypergeometric import (
    hypergeometric_count_interval,
    hypergeometric_count_interval_batch,
    hypergeometric_upper_bound_population,
    hypergeometric_upper_bound_population_batch,
)
from repro.fastframe.query import (
    AggregateFunction,
    ExecutionMetrics,
    GroupResult,
    Query,
    QueryResult,
)
from repro.fastframe.scan import (
    SamplingStrategy,
    ScanContext,
    ScanCursor,
    ScanStrategy,
)
from repro.fastframe.scramble import Scramble
from repro.fastframe.storage import storage_tracker
from repro.fastframe.kernels import IngestDelta, partition_ingest
from repro.fastframe.viewpool import ViewPool
from repro.fastframe.window import WindowFrame
from repro.stats.delta import DEFAULT_DELTA, DeltaBudget
from repro.stats.streaming import MomentState
from repro.stopping.conditions import GroupSnapshot, SamplesTaken
from repro.stopping.optstop import RunningIntersection

__all__ = [
    "ApproximateExecutor",
    "QueryRun",
    "ScanDriver",
    "scan_driver",
    "run_shared_scan",
    "DEFAULT_ROUND_ROWS",
    "COUNT_METHODS",
    "ENGINES",
]

#: Recompute bounds every 40,000 rows read, as in the paper (§4.2).
DEFAULT_ROUND_ROWS = 40_000

#: Selectivity/COUNT bounding methods: Lemma 5's Hoeffding-Serfling bound
#: (the paper's choice, "a simple strategy", §4.1) or exact hypergeometric
#: test inversion (the tailored alternative the paper mentions).  Each maps
#: to a ``(count_interval, upper_bound_population, count_interval_batch,
#: upper_bound_population_batch)`` tuple — scalar and vectorized flavours
#: with identical signatures and guarantees.
COUNT_METHODS = {
    "serfling": (
        count_interval,
        upper_bound_population,
        count_interval_batch,
        upper_bound_population_batch,
    ),
    "exact": (
        hypergeometric_count_interval,
        hypergeometric_upper_bound_population,
        hypergeometric_count_interval_batch,
        hypergeometric_upper_bound_population_batch,
    ),
}

#: Executor engines: ``"pool"`` is the vectorized struct-of-arrays core,
#: ``"scalar"`` the per-view-object reference implementation it is
#: parity-tested against, and ``"auto"`` (the default) picks per query:
#: pool at or above :data:`AUTO_POOL_THRESHOLD` views, scalar below, where
#: the constant-factor overhead of array machinery still loses to a short
#: Python loop.
ENGINES = ("auto", "pool", "scalar")

#: View count at which ``engine="auto"`` switches to the pool engine (the
#: measured crossover sits between 10 and 100 views; see PERFORMANCE.md).
AUTO_POOL_THRESHOLD = 32


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


class ApproximateExecutor:
    """Executes approximate aggregate queries with SSI guarantees.

    Parameters
    ----------
    scramble:
        The pre-shuffled table (Definition 4).
    bounder:
        Any SSI range-based error bounder; per-group states are created
        from it.
    strategy:
        Block-selection strategy; defaults to plain Scan.
    delta:
        Total error probability for the query (δ = 1e-15 in §5.2).
    round_rows:
        Rows read between bound recomputations (B in Algorithm 5).
    alpha:
        Theorem 3's split weight for the unknown-N bound (0.99 in §4.1).
    count_method:
        COUNT/selectivity bounding method, a key of :data:`COUNT_METHODS`:
        ``"serfling"`` (Lemma 5, the paper's default) or ``"exact"``
        (hypergeometric test inversion — tighter, more CPU per round).
    rng:
        Randomness for the scan start position.
    engine:
        ``"pool"`` for the vectorized struct-of-arrays core, ``"scalar"``
        for the per-view-object reference implementation, or ``"auto"``
        (default) to pick per query by view count.  Semantics are identical
        within floating-point tolerance.
    config:
        The :class:`~repro.fastframe.config.ExecConfig` that
        :meth:`execute` drives the scan under (``None`` resolves one from
        the environment here, once).  Results and every metric except
        wall time are bit-identical under any configuration.
    """

    def __init__(
        self,
        scramble: Scramble,
        bounder: ErrorBounder,
        strategy: SamplingStrategy | None = None,
        delta: float = DEFAULT_DELTA,
        round_rows: int = DEFAULT_ROUND_ROWS,
        alpha: float = DEFAULT_ALPHA,
        count_method: str = "serfling",
        rng: np.random.Generator | None = None,
        engine: str = "auto",
        config: ExecConfig | None = None,
    ) -> None:
        if count_method not in COUNT_METHODS:
            raise ValueError(
                f"unknown count_method {count_method!r}; "
                f"expected one of {sorted(COUNT_METHODS)}"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.scramble = scramble
        self.bounder = bounder
        self.strategy = strategy or ScanStrategy()
        self.delta = delta
        self.round_rows = round_rows
        self.alpha = alpha
        self.count_method = count_method
        self.engine = engine
        self.config = ExecConfig.resolve() if config is None else config
        (
            self._count_interval,
            self._upper_bound_population,
            self._count_interval_batch,
            self._upper_bound_population_batch,
        ) = COUNT_METHODS[count_method]
        self.rng = rng or np.random.default_rng()

    # ------------------------------------------------------------------
    # Metadata (bitmap indexes, group domains) — catalog-style state a
    # deployed system builds once at load time.  Cached on the *scramble*
    # so it is shared by every executor (any bounder/strategy combination)
    # over the same data, exactly like a real system's load-time indexes.
    # ------------------------------------------------------------------

    def index_for(self, column: str) -> BlockBitmapIndex:
        """The (lazily built, scramble-cached) bitmap index for a column."""
        cache = self.scramble.metadata_cache
        key = ("bitmap", column)
        if key not in cache:
            cache[key] = BlockBitmapIndex(self.scramble, column)
        return cache[key]

    def _group_domain(self, group_by: tuple[str, ...]) -> np.ndarray:
        """Combined codes of the groups actually present in the data.

        Cached per GROUP BY column set.  A real system reads this from its
        dictionary/bitmap metadata; it is not charged to query metrics.
        """
        cache = self.scramble.metadata_cache
        key = ("domain", group_by)
        if key not in cache:
            combined = self._combined_codes(group_by, rows=None)
            cache[key] = np.unique(combined)
        return cache[key]

    def _cardinalities(self, group_by: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(
            self.scramble.table.categorical(column).cardinality for column in group_by
        )

    def _combined_codes(
        self, group_by: tuple[str, ...], rows: np.ndarray | None
    ) -> np.ndarray:
        """Row-aligned combined group codes (mixed-radix over the columns).

        The full-table array is computed once per GROUP BY column set and
        cached on the scramble (invalidated by inserts, like the bitmap
        indexes); per-window calls just slice it.
        """
        if not group_by:
            length = self.scramble.num_rows if rows is None else len(rows)
            return np.zeros(length, dtype=np.int64)
        cache = self.scramble.metadata_cache
        key = ("combined", group_by)
        if key not in cache:
            combined = None
            # column_codes reads through the attached block store when one
            # is present; this is a one-time load-level metadata build (the
            # array is cached on the scramble), not a per-window gather.
            for column, card in zip(group_by, self._cardinalities(group_by)):
                codes = self.scramble.column_codes(column)
                combined = (
                    codes.astype(np.int64)
                    if combined is None
                    else combined * card + np.asarray(codes)
                )
            cache[key] = combined
        full = cache[key]
        return full if rows is None else full[rows]

    def _split_combined(
        self, combined: int, group_by: tuple[str, ...]
    ) -> tuple[int, ...]:
        """Invert the mixed-radix combination back to per-column codes."""
        if not group_by:
            return ()
        cards = self._cardinalities(group_by)
        codes = []
        for card in reversed(cards):
            codes.append(combined % card)
            combined //= card
        return tuple(reversed(codes))

    def _resolve_value_column(
        self, query: Query
    ) -> tuple[Callable[[np.ndarray], np.ndarray] | None, tuple[float, float]]:
        """Value accessor + range bounds for the aggregated column.

        Accepts a continuous column name or any expression object exposing
        ``evaluate(table, rows)`` and ``range_bounds(bounds_by_column)``
        (see :mod:`repro.expressions`, Appendix B).
        """
        table = self.scramble.table
        if query.aggregate is AggregateFunction.COUNT:
            return None, (0.0, 1.0)
        column = query.column
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, query: Query, start_block: int | None = None) -> QueryResult:
        """Run a query to its stopping condition (or data exhaustion)."""
        run = QueryRun(self, query)
        cursor = self.cursor(start_block, window_blocks=run.window_blocks)
        for _ in run.drive(cursor, self.config):
            pass
        return run.finalize()

    def cursor(
        self, start_block: int | None = None, window_blocks: int | None = None
    ) -> ScanCursor:
        """A fresh scan cursor (random start position unless pinned)."""
        if start_block is None:
            start_block = int(self.rng.integers(self.scramble.num_blocks))
        return ScanCursor(
            self.scramble,
            start_block,
            window_blocks or self.strategy.window_blocks,
        )


class QueryRun:
    """The steppable execution state of one query over a scramble.

    A run is the executor's unit of progress: it owns the per-view state
    (laid out by the engine subclass ``QueryRun(executor, query)``
    resolves to — see the module docstring), the δ budget, and the round
    counters — but *not* the scan position.  Each window is processed in
    two phases: :meth:`select_blocks` computes the run's
    block-fetch mask, then :meth:`consume` slices the run's private view
    out of a materialized :class:`~repro.fastframe.window.WindowFrame`.
    That split makes the same state machine serve both flavours of the
    one window loop (:class:`ScanDriver`):

    * :meth:`drive` (behind :meth:`ApproximateExecutor.execute` and the
      connection's ``result()``/``rounds()``) — one run, one private
      :class:`~repro.fastframe.scan.ScanCursor`; the solo driver builds
      each frame over the run's own mask and charges it to the run;
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
    #: The parallel driver partitions on ingest threads only for runs
    #: that have one (a thread's delta merges into pool arrays).
    pool: ViewPool | None = None

    def __new__(cls, executor: ApproximateExecutor, query: Query):
        if cls is QueryRun:
            # The one place an engine is chosen.
            engine = executor.engine
            if engine == "auto":
                views = executor._group_domain(query.group_by).size
                engine = "pool" if views >= AUTO_POOL_THRESHOLD else "scalar"
            cls = _PoolRun if engine == "pool" else _ScalarRun
        return super().__new__(cls)

    def __init__(self, executor: ApproximateExecutor, query: Query) -> None:
        ex = executor
        self.executor = ex
        self.query = query
        self.metrics = ExecutionMetrics()
        self._start_time = time.perf_counter()

        # The quantile family certifies order statistics, not means, so
        # each MEDIAN/PERCENTILE query gets its own DKW-inversion bounder
        # at the query's level p; everything else shares the executor's.
        if query.aggregate.is_quantile:
            from repro.bounders.quantile import QuantileBounder

            self.bounder: ErrorBounder = QuantileBounder(query.quantile_p)
        else:
            self.bounder = ex.bounder

        self.values_of, self.bounds = ex._resolve_value_column(query)
        # Frame memoization key for the aggregated column: queries over the
        # same named column share one gathered value array per window.
        if query.aggregate is AggregateFunction.COUNT:
            self.value_key = None
        elif isinstance(query.column, str):
            self.value_key = ("column", query.column)
        else:
            self.value_key = ("expression", id(query.column))
        self.group_by = query.group_by
        # Building the domain also caches the scramble's full-table
        # combined codes, so per-window frame slices never pay that build.
        self.domain = ex._group_domain(self.group_by)
        self.indexes = {
            column: ex.index_for(column) for column in self.group_by
        }
        self.predicate_requirements = query.predicate.categorical_requirements(
            ex.scramble.table
        )
        for column in self.predicate_requirements:
            self.indexes.setdefault(column, ex.index_for(column))

        self.strategy = ex.strategy
        self.uses_active = ex.strategy.uses_active_groups
        self.freezes_groups = self.uses_active and bool(self.group_by)
        # Condition Ê: with a fixed requested sample count, Algorithm 5's
        # δ-decay is unnecessary (§4.2) — rounds only check sample counts,
        # and a single full-budget CI is issued at the end of the run.
        self.fixed_sample_mode = isinstance(query.stopping, SamplesTaken)

        #: Per-column codes of each view's group key, aligned with
        #: :attr:`domain` (and so with the engine's view order).
        self.key_codes = [
            ex._split_combined(int(code), self.group_by) for code in self.domain
        ]
        self._init_views()
        self.view_budget = DeltaBudget(ex.delta).split_even(
            max(self.domain.size, 1)
        )

        self.rows_since_bound = 0
        self.round_index = 0
        self.satisfied = False
        self._scan_ended = False
        self._finalized: QueryResult | None = None
        self._group_keys: list[tuple] | None = None

    # -- driver interface ----------------------------------------------

    @property
    def window_blocks(self) -> int:
        """Lookahead window size the run expects to be fed in."""
        return self.strategy.window_blocks

    @property
    def finished(self) -> bool:
        """True once the run needs no further windows."""
        return self.satisfied or self._scan_ended

    def scan_context(self) -> ScanContext:
        """The run's current block-selection context (pure state read).

        Exposed separately from :meth:`select_blocks` so the parallel
        driver can compute *uncharged* lookahead masks (selection for
        window k+1 overlapping ingest of window k) and charge them via
        :meth:`charge_blocks` only when the mask is actually consumed.
        """
        return ScanContext(
            indexes=self.indexes,
            predicate_requirements=self.predicate_requirements,
            group_columns=self.group_by,
            active_groups=self._active_key_codes() if self.uses_active else [],
        )

    def charge_blocks(self, window: np.ndarray, mask: np.ndarray) -> None:
        """Account a block-fetch mask to this run's metrics."""
        fetched = int(mask.sum())
        self.metrics.blocks_fetched += fetched
        self.metrics.blocks_skipped += int(window.size - fetched)

    def select_blocks(self, window: np.ndarray) -> np.ndarray:
        """Phase 1 of a window: this run's block-fetch mask.

        Computed from the run's own state (strategy, active groups,
        predicate requirements) without touching the scramble's data, so a
        shared-scan driver can collect every run's mask first and fetch
        the union once.
        """
        mask = self.strategy.select_blocks(window, self.scan_context())
        self.charge_blocks(window, mask)
        return mask

    def consume(self, frame: WindowFrame, mask: np.ndarray, at_end: bool) -> None:
        """Phase 2 of a window: ingest this run's slice of a shared frame.

        ``mask`` is this run's :meth:`select_blocks` result (a subset of
        the frame's union mask).  Value arrays, combined group codes, and
        predicate masks come from the frame's shared materializations —
        the run never touches the scramble here.  Every ``round_rows``
        rows or at scan end (``at_end=True``), one OptStop round runs.
        """
        # Both engines partition through the same fused kernel over the
        # same domain; they differ only in the merge half
        # (:meth:`consume_delta`'s ``_ingest`` hook).
        delta = partition_ingest(
            frame.rows.size,
            frame.element_selector(mask),
            lambda: frame.predicate_mask(self.query.predicate),
            self.domain,
            self.frame_values_of(frame),
            self.frame_combined_of(frame),
        )
        self.consume_delta(delta, frame.window_rows, at_end)

    def frame_values_of(self, frame: WindowFrame):
        """Lazy pick-slicer over the frame's shared value array, or
        ``None`` for COUNT queries (the serial lazy-gather condition —
        the frame materializes the column only if this is invoked)."""
        if self.values_of is None:
            return None
        return lambda pick: frame.values(self.value_key, self.values_of)[pick]

    def frame_combined_of(self, frame: WindowFrame):
        """Lazy pick-slicer over the frame's combined group codes, or
        ``None`` for single-view runs (which need no partitioning)."""
        if self.domain.size <= 1:
            return None
        group_by = self.group_by
        ex = self.executor
        return lambda pick: frame.combined_codes(
            group_by, lambda rows: ex._combined_codes(group_by, rows)
        )[pick]

    def consume_delta(
        self, delta: IngestDelta, window_rows: int, at_end: bool
    ) -> None:
        """Phase 2 of a window from a pre-partitioned :class:`IngestDelta`.

        The merge half of :meth:`consume`: the delta carries
        this run's window slice already partitioned by view (built in
        place by :meth:`consume`, or returned by a parallel ingest thread
        that ran :func:`~repro.fastframe.kernels.partition_ingest` over the
        frame's arrays).  Always called on the scanning thread: the pool
        it mutates is unlocked.  For delta-capable bounders the thread may
        also have pre-partitioned the bounder-state update
        (``IngestDelta.bounder_delta``); when it did not,
        :meth:`~repro.fastframe.viewpool.ViewPool.apply_ingest` runs the
        *identical* ``partition_delta`` → ``merge_delta`` pair in place,
        so serial and parallel execute the same float program.  Merging
        deltas in window order is bit-identical to serial ingest because
        the delta arrays are exactly what the serial path computes in
        place.

        Then the round cadence, shared by both engines: every
        ``round_rows`` rows read or at scan end, one OptStop round —
        recompute bounds, refresh the active set, test the stopping
        condition.
        """
        self.metrics.rows_read += delta.n_read
        self._ingest(delta, window_rows)
        self.rows_since_bound += delta.n_read
        if at_end:
            self._scan_ended = True

        if self.rows_since_bound >= self.executor.round_rows or at_end:
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
        the generator closes the driver's window iterator (the parallel
        one reconciles its prefetched selection there) before returning.
        """
        yield from scan_driver([self], cursor, config, solo=True).windows()

    def group_keys(self) -> list[tuple]:
        """Decoded GROUP BY key per view, aligned with :attr:`domain` (the
        pool's rows, the scalar ``views`` in order).

        Decoded once per run, on first use: every round's
        :meth:`group_snapshots` and the final result reuse the list.
        """
        if self._group_keys is None:
            table = self.executor.scramble.table
            dictionaries = [
                table.categorical(column).dictionary for column in self.group_by
            ]
            self._group_keys = [
                tuple(d[code] for d, code in zip(dictionaries, codes))
                for codes in self.key_codes
            ]
        return self._group_keys

    def group_snapshots(self) -> dict:
        """Decoded per-group snapshots of the run's current intervals.

        The progressive view a live dashboard renders between rounds
        (:meth:`repro.api.QueryHandle.rounds`); keys are decoded group-by
        values, values are :class:`~repro.stopping.conditions.GroupSnapshot`.
        """
        return self._group_snapshots(self.group_keys())

    def finalize(self, merge_index_counters: bool = True) -> QueryResult:
        """Seal the run and materialize its :class:`QueryResult`.

        ``merge_index_counters=False`` leaves the (scramble-shared) bitmap
        probe counters untouched so a shared-scan driver can attribute them
        to the whole gather instead of whichever run finalizes first.
        """
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
        if merge_index_counters:
            self.metrics.merge_index_counters(self.indexes.values())
        self.metrics.wall_time_s = time.perf_counter() - self._start_time
        self._finalized = QueryResult(
            query=self.query, groups=groups, metrics=self.metrics
        )
        return self._finalized

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
        _, ci_budget = half.split_unknown_n(self.executor.alpha)
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

    def _active_key_codes(self) -> list[tuple[int, ...]]:
        return [
            view.key_codes
            for view in self.views.values()
            if view.active and not view.dropped
        ]

    def _ingest(self, delta: IngestDelta, window_rows: int) -> None:
        """Fold one partitioned window slice into the per-view states.

        The scalar mirror of :meth:`ViewPool.apply_ingest`: it consumes
        the same :class:`IngestDelta` the fused
        :func:`~repro.fastframe.kernels.partition_ingest` kernel produces
        for the pool engine, so the two engines share every byte of
        slicing/gather/sort arithmetic and differ only in how per-view
        state is stored.  The delta's ``view_idx`` is sorted with ties in
        stream order, so each view's value segment arrives in exactly the
        order the seed's per-view loop fed it (``delta.values`` is
        ``None`` for COUNT queries, which only need segment lengths).
        """
        bounder = self.bounder
        domain = self.domain
        freezes_groups = self.freezes_groups
        needs_values = self.query.aggregate is not AggregateFunction.COUNT
        segments: dict[int, np.ndarray | int] = {}
        if delta.n_in_view:
            view_idx = delta.view_idx
            boundaries = np.flatnonzero(np.diff(view_idx)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [view_idx.size]))
            for start, end in zip(starts, ends):
                segments[int(domain[view_idx[start]])] = (
                    delta.values[start:end] if needs_values else int(end - start)
                )

        for code, view in self.views.items():
            if view.dropped or view.exhausted:
                continue
            segment = segments.get(code)
            if needs_values:
                values = segment
                in_view = 0 if values is None else values.size
                if in_view:
                    # One reduction of the segment serves every moment
                    # consumer below (bit-equal to each reducing it itself).
                    moments = MomentState.batch_moments(values)
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

    def _recompute_bounds(self, round_index: int | None) -> int:
        """One OptStop round: per-view CIs at the decayed δ (Algorithm 5).

        ``round_index=None`` is the fixed-sample-count single shot
        (:meth:`_round_deltas`), covering every surviving view regardless
        of activity.  Returns the number of views whose bounds were
        recomputed.
        """
        ex = self.executor
        a, b = self.bounds
        aggregate = self.query.aggregate
        scramble_rows = ex.scramble.num_rows
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
                ex._count_interval(view.selectivity, scramble_rows, interval_delta)
            )
            if view.count_iv.hi < 1.0:
                # Certified empty: the view contributes no row, so its
                # aggregate does not exist in the exact answer either.
                view.dropped = True
                continue
            if aggregate is AggregateFunction.COUNT:
                view.interval = view.count_iv
                continue
            n_plus = ex._upper_bound_population(
                view.selectivity, scramble_rows, interval_delta, alpha=ex.alpha
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

    def _snapshots(self) -> dict[int, GroupSnapshot]:
        a, b = self.bounds
        snapshots = {}
        for code, view in self.views.items():
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
            snapshots[code] = GroupSnapshot(
                interval=interval,
                estimate=self._estimate(view, interval),
                samples=view.sample_moments.count,
                exhausted=view.exhausted,
            )
        return snapshots

    def _estimate(self, view: _ViewState, interval: Interval) -> float:
        if view.sample_moments.count > 0:
            if self.query.aggregate.is_quantile:
                return self.bounder.estimate(view.bounder_state)
            return view.sample_moments.mean
        return interval.midpoint

    def _refresh_active(self) -> bool:
        snapshots = self._snapshots()
        stopping = self.query.stopping
        active = stopping.active_groups(snapshots)
        for code, view in self.views.items():
            if view.dropped or view.exhausted:
                view.active = False
                continue
            view.active = code in active
        return stopping.satisfied(snapshots)

    def _group_snapshots(self, keys: list[tuple]) -> dict:
        snapshots = self._snapshots()
        return {
            key: snapshots[code]
            for key, code in zip(keys, self.views)
            if code in snapshots
        }

    def _finalize_exhausted(self) -> None:
        aggregate = self.query.aggregate
        scramble_rows = self.executor.scramble.num_rows
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
            * self.executor.scramble.num_rows
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

    def _active_key_codes(self) -> list[tuple[int, ...]]:
        active_rows = np.flatnonzero(self.pool.active & ~self.pool.dropped)
        return [self.key_codes[i] for i in active_rows]

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
        ex = self.executor
        pool = self.pool
        a, b = self.bounds
        aggregate = self.query.aggregate
        scramble_rows = ex.scramble.num_rows
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
        count_lo, count_hi = ex._count_interval_batch(
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
        n_plus = ex._upper_bound_population_batch(
            pool.in_view[idx], pool.covered[idx], scramble_rows,
            interval_delta, alpha=ex.alpha,
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

    def _refresh_active(self) -> bool:
        pool = self.pool
        stopping = self.query.stopping
        columns = pool.snapshot_columns(*self.bounds)
        active = stopping.active_mask(columns)
        pool.active[:] = False
        pool.active[columns.rows] = active & ~pool.exhausted[columns.rows]
        return stopping.satisfied_columns(columns)

    def _group_snapshots(self, keys: list[tuple]) -> dict:
        columns = self.pool.snapshot_columns(*self.bounds)
        return {
            keys[row]: GroupSnapshot(
                interval=Interval(lo, hi),
                estimate=estimate,
                samples=samples,
                exhausted=exhausted,
            )
            for row, lo, hi, estimate, samples, exhausted in zip(
                columns.rows.tolist(),
                columns.lo.tolist(),
                columns.hi.tolist(),
                columns.estimate.tolist(),
                columns.samples.tolist(),
                columns.exhausted.tolist(),
            )
        }

    def _finalize_exhausted(self) -> None:
        pool = self.pool
        aggregate = self.query.aggregate
        done = ~pool.dropped & (pool.covered >= self.executor.scramble.num_rows)
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
        """Materialize per-group results (the only O(views) Python loop).

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
            * self.executor.scramble.num_rows
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
        for position, row in enumerate(live):
            key = keys[row]
            groups[key] = GroupResult(
                key=key,
                estimate=float(estimate[position]),
                interval=Interval(float(lo[position]), float(hi[position])),
                count_interval=Interval(
                    float(pool.civ_lo[row]), float(pool.civ_hi[row])
                ),
                samples=int(samples[position]),
                exhausted=bool(pool.exhausted[row]),
            )
        return groups


def validate_shared_runs(runs: list[QueryRun], cursor: ScanCursor) -> None:
    """Check a run batch is drivable from one cursor (shared preflight)."""
    if not runs:
        raise ValueError("run_shared_scan requires at least one QueryRun")
    scramble = cursor.scramble
    for run in runs:
        if run.executor.scramble is not scramble:
            raise ValueError(
                "all runs in a shared scan must target the cursor's scramble"
            )
        if run.window_blocks != cursor.window_blocks:
            raise ValueError(
                "all runs in a shared scan must use the cursor's window size "
                f"({run.window_blocks} != {cursor.window_blocks})"
            )


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
    are charged to the run, the run is not sealed on retirement and the
    scramble-shared bitmap counters are left for ``run.finalize()``;
    nobody reads a solo driver's batch metrics, so they stay untouched.

    This is the lean serial loop.  The parallel driver subclasses it, not
    the reverse, so serial execution pays for none of the parallel
    per-window bookkeeping (PERFORMANCE.md, "Why two engines, and why
    serial does not go through the driver"); it overrides only
    :meth:`windows` (prefetched selection) and :meth:`_ingest` (fan-out).
    """

    def __init__(self, runs: list[QueryRun], cursor: ScanCursor, solo=False) -> None:
        validate_shared_runs(runs, cursor)
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
        try:
            for _ in self.windows():
                pass
        finally:
            # Also when a window raises: finish() takes the scramble-shared
            # probe counters, which would otherwise be charged to whichever
            # query next runs over this scramble.
            metrics = self.finish()
        return metrics

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
        frame = WindowFrame(self.cursor.scramble, window, union)
        self._ingest(frame, at_end, live, masks)
        if self.solo:
            metrics = live[0].metrics
        else:
            metrics = self.metrics
            fetched = int(union.sum())
            metrics.blocks_fetched += fetched
            metrics.blocks_skipped += int(window.size - fetched)
            metrics.rows_read += frame.rows.size
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
                run.finalize(merge_index_counters=False)

    def finish(self) -> ExecutionMetrics:
        """Seal and return the batch metrics."""
        metrics = self.metrics
        metrics.stopped_early = all(run.satisfied for run in self.runs)
        metrics.bounds_recomputed = sum(
            run.metrics.bounds_recomputed for run in self.runs
        )
        if not self.solo:
            # Solo accounting leaves the scramble-shared counters for the
            # run's own finalize().
            indexes: dict[str, BlockBitmapIndex] = {}
            for run in self.runs:
                indexes.update(run.indexes)
            metrics.merge_index_counters(indexes.values())
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
    runs: list[QueryRun],
    cursor: ScanCursor,
    config: ExecConfig | None = None,
) -> ExecutionMetrics:
    """Drive many query runs from one scan cursor (the gather hot loop).

    Each pass takes the next lookahead window off the shared cursor,
    collects every unfinished run's block mask, fetches the **union**
    once, and materializes one :class:`WindowFrame` over it — value
    arrays, combined group codes, and predicate masks are gathered once
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
    ``run.finalize(merge_index_counters=False)`` on each run afterwards to
    collect per-query results whose intervals match sequential execution
    from the same start block exactly.

    ``metrics.rounds`` counts shared passes (windows taken off the
    cursor); ``stopped_early`` is True when every run satisfied its
    stopping condition before the scramble ran out;
    ``bounds_recomputed`` sums the runs' incremental round work.

    ``config.parallelism`` above 1 (``None`` takes the config the runs'
    executor was built with) routes the same loop through
    :class:`~repro.fastframe.parallel.ParallelScanDriver`: per-query
    window slices are partitioned on ingest threads and folded back in
    deterministic order, so results and metrics (except wall time) are
    bit-identical to the serial :class:`ScanDriver`.
    """
    validate_shared_runs(runs, cursor)
    if config is None:
        config = runs[0].executor.config
    return scan_driver(runs, cursor, config).run()
