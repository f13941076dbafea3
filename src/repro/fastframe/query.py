"""Query specifications and results for FastFrame.

A :class:`Query` describes a single-aggregate SQL query of the shape the
paper evaluates (Figure 5): an AVG/SUM/COUNT aggregate over a continuous
column (or derived expression), an optional WHERE predicate, an optional
GROUP BY over categorical columns, and a stopping condition from §4.2 that
encodes how the aggregate is consumed downstream (HAVING threshold, ORDER
BY … LIMIT K, accuracy contract, …).

Each (group × predicate) combination induces one *aggregate view*
(Definition 5); the error probability δ is divided across views to
preserve guarantees (§4.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable

from repro.bounders.base import Interval
from repro.fastframe.predicate import Predicate, TruePredicate
from repro.stopping.conditions import StoppingCondition

__all__ = [
    "AggregateFunction",
    "Query",
    "GroupResult",
    "ExecutionMetrics",
    "StorageCounters",
    "QueryResult",
]


class AggregateFunction(Enum):
    """Aggregates supported with confidence intervals (§4.1).

    MEDIAN/PERCENTILE are the order-statistics family: their intervals
    come from DKW-band inversion (:mod:`repro.cdfbounds.quantile`) rather
    than a mean bounder, so the executor gives each such query its own
    :class:`~repro.bounders.quantile.QuantileBounder`.
    """

    AVG = "AVG"
    SUM = "SUM"
    COUNT = "COUNT"
    MEDIAN = "MEDIAN"
    PERCENTILE = "PERCENTILE"

    @property
    def is_quantile(self) -> bool:
        """True for the order-statistics aggregates (MEDIAN/PERCENTILE)."""
        return self in (AggregateFunction.MEDIAN, AggregateFunction.PERCENTILE)


@dataclass(frozen=True)
class Query:
    """A single-aggregate approximate query.

    Parameters
    ----------
    aggregate:
        The aggregate function.
    column:
        Continuous column to aggregate (or a
        :class:`~repro.expressions.Expression` over continuous columns,
        whose derived range bounds are computed per Appendix B).  ``None``
        for COUNT.
    predicate:
        WHERE filter; defaults to TRUE.
    group_by:
        Categorical columns to group by (empty for a scalar aggregate).
    stopping:
        Stopping condition driving early termination and active groups.
    percentile:
        Quantile level ``p`` in (0, 1) for PERCENTILE queries (MEDIAN is
        fixed at 0.5 and must leave this ``None``).
    name:
        Label for experiment tables (e.g. ``"F-q2"``).
    """

    aggregate: AggregateFunction
    column: object | None
    stopping: StoppingCondition
    predicate: Predicate = field(default_factory=TruePredicate)
    group_by: tuple[str, ...] = ()
    percentile: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.aggregate is AggregateFunction.COUNT:
            if self.column is not None:
                raise ValueError("COUNT queries must not specify a column")
        elif self.column is None:
            raise ValueError(f"{self.aggregate.value} queries require a column")
        if self.aggregate is AggregateFunction.PERCENTILE:
            if self.percentile is None:
                raise ValueError("PERCENTILE queries require a percentile level")
            if not 0.0 < self.percentile < 1.0:
                raise ValueError(
                    f"percentile level must be in (0, 1), got {self.percentile}"
                )
        elif self.percentile is not None:
            raise ValueError(
                f"{self.aggregate.value} queries must not specify a percentile"
            )

    @property
    def quantile_p(self) -> float:
        """The quantile level of a MEDIAN/PERCENTILE query (0.5 for MEDIAN)."""
        if self.aggregate is AggregateFunction.MEDIAN:
            return 0.5
        if self.aggregate is AggregateFunction.PERCENTILE:
            return float(self.percentile)  # type: ignore[arg-type]
        raise ValueError(f"{self.aggregate.value} has no quantile level")

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.aggregate is AggregateFunction.PERCENTILE:
            parts = [f"PERCENTILE({self.column}, {self.percentile:g})"]
        else:
            parts = [f"{self.aggregate.value}({self.column or '*'})"]
        if not isinstance(self.predicate, TruePredicate):
            parts.append(f"WHERE {self.predicate!r}")
        if self.group_by:
            parts.append(f"GROUP BY {', '.join(self.group_by)}")
        parts.append(f"STOP WHEN {self.stopping!r}")
        return " ".join(parts)


@dataclass
class GroupResult:
    """Final state of one aggregate view.

    Attributes
    ----------
    key:
        Decoded group-by values (empty tuple for scalar queries).
    estimate:
        Point estimate of the group's aggregate.
    interval:
        Certified (1 − δ/views) CI for the aggregate (the OptStop running
        intersection).
    count_interval:
        Certified CI for the view's cardinality (Lemma 5); for exact
        execution this is the degenerate exact count.
    samples:
        Sampled tuples that contributed to the aggregate.
    exhausted:
        True if the entire view was read (the aggregate is exact).
    """

    key: tuple
    estimate: float
    interval: Interval
    count_interval: Interval
    samples: int
    exhausted: bool = False


@dataclass
class ExecutionMetrics:
    """Cost counters for one query execution (§5.3's metrics).

    ``blocks_fetched`` is the paper's CPU-independent comparison metric;
    ``rows_read`` counts tuples examined; ``index_probes`` counts
    synchronous single-block bitmap queries (ActiveSync cost) and
    ``batch_probes`` counts vectorized lookahead batches (ActivePeek cost).
    ``values_gathered`` counts aggregate-column value elements gathered
    from the scramble (per window-frame materialization — in a shared
    scan the batch metrics carry the union's gathers and per-run metrics
    record none); ``bounds_recomputed`` counts per-view OptStop bound
    recomputations (the incremental-rounds work metric).

    Parallel-ingest accounting: ``delta_bytes_returned`` counts array
    bytes the ingest threads' partition tasks hand back to the fold
    (native bounder deltas are O(views); the loop-fallback path returns
    the O(rows) sorted value arrays).  ``partition_wall_s`` /
    ``merge_wall_s`` split the ingest wall between the threads'
    partition stage (summed across tasks, so it can exceed elapsed time)
    and the scanning thread's delta-merge stage.  All three are zero for
    serial execution; the byte counter is deterministic at a fixed
    parallelism, the walls are timing (excluded from determinism
    contracts like ``wall_time_s``).

    Out-of-core storage accounting (all zero for the in-memory backend):
    ``blocks_read`` / ``bytes_read`` count block-file opens charged by
    the mmap store's cache misses; ``cache_hits`` counts gathers served
    from the shared block cache; ``cache_evictions`` counts LRU drops
    under the byte budget; ``prefetch_hits`` counts demand reads whose
    block the async prefetcher had already been scheduled to warm.  They
    describe where bytes came from, never what they were — results are
    byte-identical across backends.
    """

    rows_read: int = 0
    blocks_fetched: int = 0
    blocks_skipped: int = 0
    index_probes: int = 0
    batch_probes: int = 0
    rounds: int = 0
    values_gathered: int = 0
    bounds_recomputed: int = 0
    delta_bytes_returned: int = 0
    partition_wall_s: float = 0.0
    merge_wall_s: float = 0.0
    wall_time_s: float = 0.0
    stopped_early: bool = False
    # Benchmark-only, always zero: benchmarks/e2e/run.py still reads them.
    tasks_retried: int = 0
    inline_fallbacks: int = 0
    blocks_read: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    prefetch_hits: int = 0

    def merge_index_counters(self, indexes) -> None:
        """Pull probe counters from bitmap indexes into this record."""
        for index in indexes:
            self.index_probes += index.probe_count
            self.batch_probes += index.batch_probe_count
            index.reset_counters()

    def storage_snapshot(self) -> "StorageCounters":
        """The out-of-core storage counters as one frozen record (truthy
        iff any block I/O happened) — what rounds() updates and the CLI
        dashboard surface."""
        return StorageCounters(
            blocks_read=self.blocks_read,
            bytes_read=self.bytes_read,
            cache_hits=self.cache_hits,
            cache_evictions=self.cache_evictions,
            prefetch_hits=self.prefetch_hits,
        )


@dataclass(frozen=True)
class StorageCounters:
    """A frozen snapshot of :class:`ExecutionMetrics`' out-of-core storage
    counters; ``bool()`` is True exactly when any block I/O happened."""

    blocks_read: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    prefetch_hits: int = 0

    def __bool__(self) -> bool:
        return bool(
            self.blocks_read
            or self.bytes_read
            or self.cache_hits
            or self.cache_evictions
            or self.prefetch_hits
        )


@dataclass
class QueryResult:
    """Result of executing a :class:`Query`: per-group results + metrics.

    ``delta`` is the error probability the execution was charged.  It is
    populated by :class:`repro.api.Connection`, which allocates each query
    a slice of the joint session budget; a bare
    :class:`~repro.fastframe.executor.ApproximateExecutor` run leaves it
    ``None`` (the executor's own ``delta`` applies).
    """

    query: Query
    groups: dict[Hashable, GroupResult]
    metrics: ExecutionMetrics
    delta: float | None = None

    def scalar(self) -> GroupResult:
        """The single group of a scalar (no GROUP BY) query."""
        if len(self.groups) != 1:
            raise ValueError(
                f"scalar() requires exactly one group, found {len(self.groups)}"
            )
        return next(iter(self.groups.values()))

    def keys_above(self, threshold: float) -> set:
        """Group keys certified above ``threshold`` (HAVING agg > t).

        A group qualifies when its whole interval lies above the threshold;
        with the ThresholdSide stopping condition every group is certified
        on one side at termination (up to the δ failure probability).
        """
        return {
            result.key
            for result in self.groups.values()
            if result.interval.lo > threshold
        }

    def keys_below(self, threshold: float) -> set:
        """Group keys certified below ``threshold`` (HAVING agg < t)."""
        return {
            result.key
            for result in self.groups.values()
            if result.interval.hi < threshold
        }

    def top_k(self, k: int, largest: bool = True) -> list:
        """Group keys of the k largest (or smallest) estimates, ranked."""
        ranked = sorted(
            self.groups.values(), key=lambda g: g.estimate, reverse=largest
        )
        return [result.key for result in ranked[:k]]

    def ordering(self) -> list:
        """All group keys ordered by descending estimate."""
        return self.top_k(len(self.groups))

    def max_interval_width(self) -> float:
        """Widest group CI (∞ if any group never gathered a sample)."""
        widths = [result.interval.width for result in self.groups.values()]
        return max(widths) if widths else math.inf
