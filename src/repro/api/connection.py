"""The connection/handle front door: lazy queries over one scramble.

:func:`connect` opens a :class:`Connection` — the session-scoped object
the paper's §4.1 multi-query story implies: one scramble (whose shuffling
cost is paid once), one joint error-probability budget, many queries.
Queries are *lazy*: ``conn.sql(...)`` and the fluent builder
(``conn.table().where(...).group_by(...).avg(...)``) return
:class:`QueryHandle`\\ s that carry a compiled
:class:`~repro.fastframe.query.Query` and its stopping condition but cost
nothing until resolved.  A handle resolves three ways:

* :meth:`QueryHandle.result` — run this one query to completion;
* :meth:`QueryHandle.rounds` — iterate progressive per-round interval
  snapshots (what a live dashboard renders while sampling continues);
* :meth:`Connection.gather` — the headline: run N handles off **one**
  shared scan cursor.  Each pass over the scramble materializes one
  :class:`~repro.fastframe.window.WindowFrame` over the union of the
  queries' block masks — row ids, value arrays, combined group codes,
  and predicate masks are gathered once per window, however many queries
  consume them — and feeds every unfinished query's view pool from it.
  A block wanted by k queries is charged to the batch's I/O accounting
  once instead of k times, a column aggregated by k queries is gathered
  once, and queries retire independently as their stopping conditions
  fire — so an N-query dashboard costs roughly one scan instead of N by
  the paper's blocks-fetched cost metric (§5.3).

δ accounting is identical across all three paths: every execution is
charged to the connection's :class:`~repro.api.ledger.DeltaLedger`
*before* it runs, in resolution order, so ``gather([h1..hN])`` spends
exactly what the same N queries would spend resolved sequentially, under
either allocation policy.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.api.ledger import DeltaLedger, QueryLedgerEntry
from repro.bounders.base import ErrorBounder
from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import (
    ApproximateExecutor,
    QueryRun,
    run_shared_scan,
)
from repro.fastframe.query import (
    ExecutionMetrics,
    Query,
    QueryResult,
    StorageCounters,
)
from repro.fastframe.scan import SamplingStrategy, get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.sql.compiler import parse_statements
from repro.stats.delta import DEFAULT_DELTA
from repro.stopping.conditions import StoppingCondition

__all__ = [
    "connect",
    "Connection",
    "QueryHandle",
    "GatherResult",
    "RoundUpdate",
]

#: Default bounder for connections: the paper's headline configuration
#: (empirical Bernstein-Serfling + RangeTrim, "no PMA, no PHOS").
DEFAULT_BOUNDER = "bernstein+rt"


def connect(
    source: Scramble | Table,
    *,
    bounder: ErrorBounder | str = DEFAULT_BOUNDER,
    delta: float = DEFAULT_DELTA,
    policy: str = "even",
    max_queries: int = 100,
    strategy: SamplingStrategy | str | None = None,
    rng: np.random.Generator | None = None,
    require_ssi: bool = True,
    parallelism: int | None = None,
    storage: str | None = None,
    cache_bytes: int | None = None,
    **executor_kwargs,
) -> "Connection":
    """Open a :class:`Connection` over a scramble (or a table to scramble).

    Parameters
    ----------
    source:
        A :class:`~repro.fastframe.scramble.Scramble`, or a
        :class:`~repro.fastframe.table.Table` to shuffle now (the one-time
        scramble cost the connection then amortizes over every query).
    bounder:
        Error bounder instance or registry name (default
        ``"bernstein+rt"``).
    delta:
        Joint error probability for the whole connection: with
        probability at least ``1 − delta`` every interval returned by
        every query on this connection is simultaneously valid.
    policy:
        Ledger allocation policy — ``"even"`` (δ/max_queries each) or
        ``"harmonic"`` (open-ended 6/π²·δ/k² decay).
    max_queries:
        Declared capacity for the ``"even"`` policy.
    strategy:
        Sampling strategy instance or name (``"scan"``, ``"activesync"``,
        ``"activepeek"``); defaults to plain Scan.
    rng:
        Randomness for scramble construction (when ``source`` is a table)
        and scan start positions.
    require_ssi:
        Multi-query guarantees need sample-size-independent bounders
        (§1); pass ``False`` only for single-shot ad-hoc use of a
        non-SSI bounder.
    parallelism, storage, cache_bytes:
        Execution settings (``None`` = unset), resolved here, once, into
        :attr:`Connection.config` — see
        :class:`~repro.fastframe.config.ExecConfig` for meanings,
        environment variables and defaults.  None of them changes a
        result or the δ accounting.
    executor_kwargs:
        Passed through to each query's
        :class:`~repro.fastframe.executor.ApproximateExecutor`
        (``round_rows``, ``alpha``, ``count_method``, ``engine``, …);
        a keyword it does not take raises :class:`TypeError` here.
    """
    return Connection(
        source,
        bounder=bounder,
        delta=delta,
        policy=policy,
        max_queries=max_queries,
        strategy=strategy,
        rng=rng,
        require_ssi=require_ssi,
        parallelism=parallelism,
        storage=storage,
        cache_bytes=cache_bytes,
        **executor_kwargs,
    )


@dataclass(frozen=True)
class RoundUpdate:
    """One progressive snapshot from :meth:`QueryHandle.rounds`.

    Attributes
    ----------
    round_index:
        1-indexed OptStop round that produced the snapshot.
    rows_read:
        Rows the query has read so far.
    groups:
        Decoded group key →
        :class:`~repro.stopping.conditions.GroupSnapshot` (current
        certified interval, estimate, sample count, exhaustion flag).
    storage:
        Cumulative :class:`~repro.fastframe.query.StorageCounters` as of
        this round (block reads, cache hits/evictions, prefetch hits) —
        ``None`` when the scramble runs on resident in-memory arrays,
        where no block I/O happens.
    """

    round_index: int
    rows_read: int
    groups: dict
    storage: StorageCounters | None = None


class QueryHandle:
    """A lazy, single-use query bound to a connection.

    Carries the compiled :class:`~repro.fastframe.query.Query` (including
    its stopping condition); nothing executes and no δ is charged until
    the handle is resolved through :meth:`result`, :meth:`rounds`, or
    :meth:`Connection.gather`.  Resolution charges the connection ledger
    once and caches the :class:`~repro.fastframe.query.QueryResult`;
    subsequent :meth:`result` calls are free.
    """

    def __init__(self, connection: "Connection", query: Query) -> None:
        self.connection = connection
        self.query = query
        self._entry: QueryLedgerEntry | None = None
        self._result: QueryResult | None = None

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.query.name or self.query.describe()

    @property
    def stopping(self) -> StoppingCondition:
        return self.query.stopping

    @property
    def resolved(self) -> bool:
        """True once the handle holds a cached result."""
        return self._result is not None

    @property
    def delta(self) -> float | None:
        """The δ this handle was charged (``None`` while unresolved)."""
        return None if self._entry is None else self._entry.delta

    def describe(self) -> str:
        return self.query.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "resolved" if self.resolved else "lazy"
        return f"QueryHandle({self.name!r}, {state})"

    # ------------------------------------------------------------------

    def result(self, start_block: int | None = None) -> QueryResult:
        """Resolve the handle (running the query now if needed)."""
        if self._result is not None:
            return self._result
        self._check_unconsumed()
        (run,), cursor, _ = self.connection._begin([self], start_block)
        for _ in run.drive(cursor, self.connection.config):
            pass
        return self._settle(run.finalize())

    def rounds(
        self, start_block: int | None = None
    ) -> Iterator[RoundUpdate]:
        """Resolve progressively, yielding one update per OptStop round.

        Validates the handle and charges its δ **at call time** (the
        consumed-handle contract: a resolved handle raises here, not at
        first iteration), then returns the update iterator.  Iterate it
        to completion (it seals the handle's result, after which
        :meth:`result` returns the cached final answer).  This is the
        live-dashboard path: each update carries every group's current
        certified interval while sampling continues.
        """
        if self._result is not None:
            raise RuntimeError(
                f"handle {self.name!r} is already resolved; rounds() "
                "streams a query's one execution — create a new handle to "
                "re-run it progressively"
            )
        self._check_unconsumed()
        (run,), cursor, _ = self.connection._begin([self], start_block)
        config = self.connection.config

        def updates() -> Iterator[RoundUpdate]:
            seen_rounds = 0
            completed = False
            pass_iter = run.drive(cursor, config)
            try:
                for _ in pass_iter:
                    if run.metrics.rounds > seen_rounds:
                        seen_rounds = run.metrics.rounds
                        yield RoundUpdate(
                            round_index=seen_rounds,
                            rows_read=run.metrics.rows_read,
                            groups=run.group_snapshots(),
                            storage=(
                                run.metrics.storage_snapshot()
                                if self.connection.scramble.storage is not None
                                else None
                            ),
                        )
                completed = True
                self._settle(run.finalize())
            finally:
                if not completed:
                    # Abandoned (or crashed) mid-stream.  Teardown order
                    # matters: FIRST close the window driver explicitly —
                    # a parallel driver reconciles any prefetched block
                    # selection's probe counters in its own finally —
                    # THEN seal the run, merging the scramble-shared
                    # bitmap probe counters into THIS execution's metrics.
                    # (Relying on the for-loop's iterator temp being
                    # collected before this block is a CPython accident.)
                    # Leaving the counters unmerged would double-count
                    # them in whichever query next runs over the same
                    # scramble.  The handle stays charged-but-unresolved
                    # per the consumed-handle contract — only its
                    # accounting is closed out.
                    pass_iter.close()
                    run.finalize()

        return updates()

    # ------------------------------------------------------------------

    def _check_unconsumed(self) -> None:
        if self._entry is not None and self._result is None:
            raise RuntimeError(
                f"handle {self.name!r} was already charged but never "
                "completed (an abandoned rounds() iterator?); its δ is "
                "spent — create a new handle to re-run the query"
            )

    def _settle(self, result: QueryResult) -> QueryResult:
        """Seal the handle: cache the result and close its ledger line."""
        result.delta = self._entry.delta
        self.connection.ledger.settle(
            self._entry.index,
            result.metrics.rows_read,
            result.metrics.stopped_early,
        )
        self._result = result
        return result


@dataclass
class GatherResult:
    """Outcome of one shared-scan batch (:meth:`Connection.gather`).

    ``results`` are per-query :class:`~repro.fastframe.query.QueryResult`
    objects, positionally aligned with the gathered handles, and identical
    to what sequential execution from the same start block would return.
    ``metrics`` is the *physical* cost of the batch under the shared
    cursor: the union of the queries' block fetches per pass
    (``metrics.rounds`` counts lookahead windows taken off the shared
    cursor).  The difference between
    :attr:`rows_read_sequential` and :attr:`rows_read_shared` is the
    I/O the shared cursor saved.
    """

    handles: tuple[QueryHandle, ...]
    results: tuple[QueryResult, ...] = field(repr=False)
    metrics: ExecutionMetrics
    start_block: int

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def rows_read_shared(self) -> int:
        """Rows the shared cursor physically fetched (union accounting)."""
        return self.metrics.rows_read

    @property
    def values_gathered(self) -> int:
        """Value elements the shared window frames gathered — once per
        distinct aggregate column per window, however many queries
        consumed them (per-query runs gather nothing in a shared scan)."""
        return self.metrics.values_gathered

    @property
    def rows_read_sequential(self) -> int:
        """Rows the same queries would have fetched run one at a time."""
        return sum(result.metrics.rows_read for result in self.results)

    @property
    def savings(self) -> float:
        """Fraction of sequential row fetches the shared scan avoided."""
        sequential = self.rows_read_sequential
        if sequential == 0:
            return 0.0
        return 1.0 - self.rows_read_shared / sequential


class Connection:
    """One scramble, one joint δ budget, many lazy queries.

    Construct through :func:`connect`.  The connection owns the
    :class:`~repro.api.ledger.DeltaLedger` that every resolution
    path (:meth:`QueryHandle.result`, :meth:`QueryHandle.rounds`,
    :meth:`gather`) charges before executing, so the §4.1 union bound
    holds jointly across everything the connection ever runs.
    """

    def __init__(
        self,
        source: Scramble | Table,
        *,
        bounder: ErrorBounder | str = DEFAULT_BOUNDER,
        delta: float = DEFAULT_DELTA,
        policy: str = "even",
        max_queries: int = 100,
        strategy: SamplingStrategy | str | None = None,
        rng: np.random.Generator | None = None,
        require_ssi: bool = True,
        parallelism: int | None = None,
        storage: str | None = None,
        cache_bytes: int | None = None,
        **executor_kwargs,
    ) -> None:
        from repro.fastframe.storage import attach_block_storage

        try:
            # Every handle builds its executor from these keywords: check
            # them before anything happens, not at the first result()
            # after a δ charge.
            inspect.signature(ApproximateExecutor).bind_partial(
                source, bounder, **executor_kwargs
            )
        except TypeError as error:
            raise TypeError(f"connect() {error}") from None
        config = ExecConfig.resolve(
            parallelism=parallelism, storage=storage, cache_bytes=cache_bytes
        )
        self.rng = rng or np.random.default_rng()
        if isinstance(source, Scramble):
            self.scramble = source
        elif isinstance(source, Table):
            self.scramble = Scramble(source, rng=self.rng)
        else:
            raise TypeError(
                f"connect() expects a Scramble or a Table, got "
                f"{type(source).__name__}"
            )
        if self.scramble.storage is not None or config.storage == "mmap":
            # A scramble that is already store-backed (open_block_scramble,
            # or a prior connection's spill) keeps serving every gather
            # from that store whatever was asked for; attach is idempotent
            # and only applies the cache budget then.
            attach_block_storage(self.scramble, cache_bytes=config.cache_bytes)
            config = replace(config, storage="mmap")
        #: The resolved :class:`~repro.fastframe.config.ExecConfig` every
        #: resolution path on this connection runs under.
        self.config = config
        self.bounder = get_bounder(bounder) if isinstance(bounder, str) else bounder
        if require_ssi and not self.bounder.ssi:
            raise ValueError(
                f"bounder {self.bounder.name!r} is not SSI; session-level "
                "guarantees require sample-size-independent bounders (§1) — "
                "pass require_ssi=False for single-shot ad-hoc use"
            )
        self.strategy = (
            get_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        self.executor_kwargs = executor_kwargs
        self.ledger = DeltaLedger(delta, policy=policy, max_queries=max_queries)

    # ------------------------------------------------------------------
    # Handle construction (all lazy, nothing charged here)
    # ------------------------------------------------------------------

    def query(self, query: Query) -> QueryHandle:
        """Wrap a pre-built :class:`~repro.fastframe.query.Query`."""
        return QueryHandle(self, query)

    def sql(
        self,
        text: str,
        *,
        stopping: StoppingCondition | None = None,
        name: str = "",
    ) -> QueryHandle | list[QueryHandle]:
        """Compile SQL into lazy handles.

        A single statement returns one :class:`QueryHandle`; a
        ``;``-separated script returns a list of handles (pass the list to
        :meth:`gather` to run the whole dashboard off one scan).
        ``stopping`` is the fallback for statements whose SQL implies no
        stopping condition (no HAVING / CASE WHEN / ORDER BY).
        """
        queries = parse_statements(text, stopping=stopping, name=name)
        handles = [self.query(query) for query in queries]
        return handles[0] if len(handles) == 1 else handles

    def table(self) -> "QueryBuilder":
        """Start a fluent query: ``conn.table().where(...).avg(...)``."""
        from repro.api.builder import QueryBuilder

        return QueryBuilder(self)

    # ------------------------------------------------------------------
    # Batched execution: the shared scan cursor
    # ------------------------------------------------------------------

    def gather(
        self,
        handles: list[QueryHandle] | QueryHandle,
        start_block: int | None = None,
    ) -> GatherResult:
        """Resolve many handles off **one** shared scan cursor.

        Every handle is charged its ledger δ up front (in list order —
        exactly what sequential resolution would spend), then a single
        sequential pass over the scramble feeds each window into every
        unfinished query's view pool.  Queries retire independently as
        their stopping conditions fire; the scan ends when the last one
        does.  Per-query results (cached on the handles) are identical to
        sequential execution from the same ``start_block``; the gather's
        own metrics count each fetched block once in the I/O accounting,
        however many queries consumed it.

        A bare handle is accepted too, so ``conn.gather(conn.sql(text))``
        works whatever the statement count of ``text``.
        """
        if isinstance(handles, QueryHandle):
            handles = [handles]
        handles = list(handles)
        if not handles:
            raise ValueError("gather() requires at least one handle")
        if len({id(handle) for handle in handles}) != len(handles):
            raise ValueError("gather() handles must be distinct")
        for handle in handles:
            if not isinstance(handle, QueryHandle):
                raise TypeError(
                    f"gather() takes QueryHandles, got {type(handle).__name__}"
                )
            if handle.connection is not self:
                raise ValueError(
                    f"handle {handle.name!r} belongs to a different connection"
                )
            if handle._entry is not None:
                raise RuntimeError(
                    f"handle {handle.name!r} was already executed; gather() "
                    "takes fresh handles"
                )
        runs, cursor, start_block = self._begin(handles, start_block)
        metrics = run_shared_scan(runs, cursor, self.config)
        # Index-probe counters were merged into the gather metrics.
        results = [
            handle._settle(run.finalize(merge_index_counters=False))
            for handle, run in zip(handles, runs)
        ]
        return GatherResult(
            handles=tuple(handles),
            results=tuple(results),
            metrics=metrics,
            start_block=start_block,
        )

    # ------------------------------------------------------------------
    # Ledger views
    # ------------------------------------------------------------------

    @property
    def session_delta(self) -> float:
        return self.ledger.session_delta

    @property
    def policy(self) -> str:
        return self.ledger.policy

    @property
    def queries_run(self) -> int:
        return self.ledger.queries_run

    @property
    def spent_delta(self) -> float:
        """Total error probability consumed so far (union bound)."""
        return self.ledger.spent_delta

    def next_query_delta(self) -> float:
        """The δ the next resolved handle will receive."""
        return self.ledger.next_delta()

    def audit(self):
        """The δ ledger, one entry per charged query."""
        return self.ledger.audit()

    # ------------------------------------------------------------------

    def _begin(self, handles: list[QueryHandle], start_block: int | None):
        """Validate-then-charge startup of result(), rounds() and gather().

        Returns ``(runs, cursor, start_block)``.  Every run is built (and
        thereby validated: resolving columns, building the view pool —
        anything that can fail) against the *previewed* δ allocations
        BEFORE anything is charged: a capacity overflow or a bad query
        (e.g. an unknown column surfacing at resolution) must neither
        strand spent δ on the ledger nor poison its co-gathered handles.
        Allocation is deterministic in charge order, so the previewed δs
        are exactly what charge() then records.
        """
        deltas = self.ledger.preview(len(handles))
        runs = [
            QueryRun(self._executor(delta), handle.query)
            for handle, delta in zip(handles, deltas)
        ]
        if start_block is None:
            start_block = int(self.rng.integers(self.scramble.num_blocks))
        cursor = runs[0].executor.cursor(
            start_block, window_blocks=runs[0].window_blocks
        )
        for handle in handles:
            handle._entry = self.ledger.charge(handle.name)
        return runs, cursor, start_block

    def _executor(self, delta: float) -> ApproximateExecutor:
        return ApproximateExecutor(
            self.scramble,
            self.bounder,
            strategy=self.strategy,
            delta=delta,
            rng=self.rng,
            config=self.config,
            **self.executor_kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Connection(rows={self.scramble.num_rows:,}, "
            f"bounder={self.bounder.name!r}, policy={self.policy!r}, "
            f"spent={self.spent_delta:.3g} of {self.session_delta:.3g})"
        )
