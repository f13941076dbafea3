"""Golden parity: the vectorized pool engine vs the scalar reference engine.

The ISSUE's statistical-honesty contract: for identical inputs (same
scramble, same start block), both engines must produce identical group
keys, intervals, count intervals, estimates, sample counts,
drop/exhaust flags, and cost metrics — within 1e-9 relative floating-point
tolerance — across AVG/SUM/COUNT, every evaluated bounder, every sampling
strategy, both COUNT methods, and every stopping-condition family.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.fastframe.executor import (
    AUTO_POOL_THRESHOLD,
    ApproximateExecutor,
    QueryRun,
)
from repro.fastframe.predicate import Eq
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    GroupsOrdered,
    RelativeAccuracy,
    SamplesTaken,
    ThresholdSide,
    TopKSeparated,
)

RTOL = 1e-9
ATOL = 1e-9
DELTA = 1e-6
ROUND_ROWS = 3_000
START_BLOCK = 11
BOUNDERS = (
    "hoeffding",
    "hoeffding+rt",
    "bernstein",
    "bernstein+rt",
    "anderson",
    "anderson+rt",
    "bernstein-no-fpc",
)
STRATEGIES = ("scan", "activesync", "activepeek")


@pytest.fixture(scope="module")
def parity_scramble():
    rng = np.random.default_rng(0)
    n = 30_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={
            "g": rng.integers(0, 30, n).astype(str),
            "h": rng.integers(0, 4, n).astype(str),
        },
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(1))


def _run(scramble, engine, agg, bounder, strategy, stopping, *, count_method="serfling",
         predicate=None, group_by=("g",)):
    kwargs = {} if predicate is None else {"predicate": predicate}
    column = None if agg is AggregateFunction.COUNT else "x"
    query = Query(agg, column, stopping, group_by=group_by, **kwargs)
    executor = ApproximateExecutor(
        scramble,
        get_bounder(bounder),
        strategy=get_strategy(strategy),
        delta=DELTA,
        round_rows=ROUND_ROWS,
        count_method=count_method,
        rng=np.random.default_rng(7),
        engine=engine,
    )
    return executor.execute(query, start_block=START_BLOCK)


def _interval_close(left, right):
    for x, y in ((left.lo, right.lo), (left.hi, right.hi)):
        if np.isfinite(x) or np.isfinite(y):
            assert x == pytest.approx(y, rel=RTOL, abs=ATOL), (left, right)
        else:
            assert x == y or (np.isnan(x) and np.isnan(y))


def _assert_parity(scalar, pool):
    assert scalar.metrics.rows_read == pool.metrics.rows_read
    assert scalar.metrics.rounds == pool.metrics.rounds
    assert scalar.metrics.blocks_fetched == pool.metrics.blocks_fetched
    assert scalar.metrics.blocks_skipped == pool.metrics.blocks_skipped
    assert scalar.metrics.stopped_early == pool.metrics.stopped_early
    assert set(scalar.groups) == set(pool.groups)
    for key, left in scalar.groups.items():
        right = pool.groups[key]
        _interval_close(left.interval, right.interval)
        _interval_close(left.count_interval, right.count_interval)
        if np.isfinite(left.estimate) or np.isfinite(right.estimate):
            assert left.estimate == pytest.approx(right.estimate, rel=RTOL, abs=ATOL)
        assert left.samples == right.samples
        assert left.exhausted == right.exhausted


@pytest.mark.parametrize(
    "bounder,strategy", list(itertools.product(BOUNDERS, STRATEGIES))
)
def test_avg_parity(parity_scramble, bounder, strategy):
    stopping = AbsoluteAccuracy(3.0)
    scalar = _run(parity_scramble, "scalar", AggregateFunction.AVG, bounder, strategy, stopping)
    pool = _run(parity_scramble, "pool", AggregateFunction.AVG, bounder, strategy, stopping)
    _assert_parity(scalar, pool)


@pytest.mark.parametrize(
    "bounder,strategy",
    list(itertools.product(("hoeffding", "bernstein+rt", "anderson"), STRATEGIES)),
)
def test_sum_parity(parity_scramble, bounder, strategy):
    stopping = AbsoluteAccuracy(40_000.0)
    scalar = _run(parity_scramble, "scalar", AggregateFunction.SUM, bounder, strategy, stopping)
    pool = _run(parity_scramble, "pool", AggregateFunction.SUM, bounder, strategy, stopping)
    _assert_parity(scalar, pool)


@pytest.mark.parametrize(
    "bounder,strategy",
    list(itertools.product(("hoeffding", "bernstein+rt"), STRATEGIES)),
)
def test_count_parity(parity_scramble, bounder, strategy):
    stopping = AbsoluteAccuracy(400.0)
    scalar = _run(parity_scramble, "scalar", AggregateFunction.COUNT, bounder, strategy, stopping)
    pool = _run(parity_scramble, "pool", AggregateFunction.COUNT, bounder, strategy, stopping)
    _assert_parity(scalar, pool)


@pytest.mark.parametrize(
    "stopping",
    [
        RelativeAccuracy(0.08),
        TopKSeparated(3),
        TopKSeparated(2, largest=False),
        GroupsOrdered(),
        ThresholdSide(20.0),
        SamplesTaken(2_000),
    ],
    ids=lambda s: type(s).__name__ + getattr(s, "largest", True) * "",
)
def test_stopping_condition_parity(parity_scramble, stopping):
    scalar = _run(parity_scramble, "scalar", AggregateFunction.AVG, "bernstein+rt",
                  "activepeek", stopping)
    pool = _run(parity_scramble, "pool", AggregateFunction.AVG, "bernstein+rt",
                "activepeek", stopping)
    _assert_parity(scalar, pool)


def test_predicate_parity(parity_scramble):
    scalar = _run(parity_scramble, "scalar", AggregateFunction.AVG, "bernstein+rt",
                  "activepeek", AbsoluteAccuracy(4.0), predicate=Eq("h", "1"))
    pool = _run(parity_scramble, "pool", AggregateFunction.AVG, "bernstein+rt",
                "activepeek", AbsoluteAccuracy(4.0), predicate=Eq("h", "1"))
    _assert_parity(scalar, pool)


def test_multi_column_group_parity(parity_scramble):
    scalar = _run(parity_scramble, "scalar", AggregateFunction.AVG, "bernstein+rt",
                  "activepeek", AbsoluteAccuracy(6.0), group_by=("g", "h"))
    pool = _run(parity_scramble, "pool", AggregateFunction.AVG, "bernstein+rt",
                "activepeek", AbsoluteAccuracy(6.0), group_by=("g", "h"))
    _assert_parity(scalar, pool)


def test_scalar_aggregate_parity(parity_scramble):
    """No GROUP BY: the one-view special case."""
    scalar = _run(parity_scramble, "scalar", AggregateFunction.AVG, "bernstein+rt",
                  "scan", AbsoluteAccuracy(1.0), group_by=())
    pool = _run(parity_scramble, "pool", AggregateFunction.AVG, "bernstein+rt",
                "scan", AbsoluteAccuracy(1.0), group_by=())
    _assert_parity(scalar, pool)


@pytest.mark.parametrize("agg", [AggregateFunction.AVG, AggregateFunction.COUNT])
def test_exact_count_method_parity(parity_scramble, agg):
    stopping = AbsoluteAccuracy(3.0 if agg is AggregateFunction.AVG else 400.0)
    scalar = _run(parity_scramble, "scalar", agg, "bernstein", "scan", stopping,
                  count_method="exact")
    pool = _run(parity_scramble, "pool", agg, "bernstein", "scan", stopping,
                count_method="exact")
    _assert_parity(scalar, pool)


@pytest.mark.parametrize("engine", ["scalar", "pool"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_gather_matches_sequential(parity_scramble, engine, strategy):
    """Shared-scan batching is physical only: per-query results off one
    cursor equal sequential execution from the same start block."""
    from repro.api import connect

    def dashboard(conn):
        return [
            conn.table().group_by("g").avg("x", above=20.0),
            conn.table().where("h", "1").avg("x", rel=0.2),
            conn.table().group_by("g").avg("x", top=3),
            conn.table().group_by("g").count(abs=600.0),
        ]

    def connection():
        return connect(
            parity_scramble,
            delta=DELTA,
            policy="harmonic",
            strategy=strategy,
            round_rows=ROUND_ROWS,
            engine=engine,
            rng=np.random.default_rng(7),
        )

    batched = connection()
    batch = batched.gather(dashboard(batched), start_block=START_BLOCK)
    sequential = connection()
    for gathered, handle in zip(batch.results, dashboard(sequential)):
        _assert_parity(handle.result(start_block=START_BLOCK), gathered)
    # The shared cursor fetches the union of the queries' blocks: never
    # more than the sequential total, never less than the costliest query.
    sequential_rows = sum(
        entry.rows_read for entry in sequential.audit()
    )
    assert batch.rows_read_shared <= sequential_rows
    assert batch.rows_read_shared >= max(
        result.metrics.rows_read for result in batch.results
    )


@pytest.mark.parametrize("engine", ["scalar", "pool"])
def test_gather_shares_value_gathering(parity_scramble, engine):
    """The window frame gathers each aggregate column once per shared
    window: the batch's values-gathered never exceeds (and with
    overlapping columns undercuts) the sequential total, while intervals
    stay identical (pinned by test_gather_matches_sequential)."""
    from repro.api import connect

    def dashboard(conn):
        return [
            conn.table().group_by("g").avg("x", above=20.0),
            conn.table().group_by("g").avg("x", top=3),
            conn.table().where("h", "1").avg("x", rel=0.2),
        ]

    def connection():
        return connect(
            parity_scramble,
            delta=DELTA,
            policy="harmonic",
            round_rows=ROUND_ROWS,
            engine=engine,
            rng=np.random.default_rng(7),
        )

    batched = connection()
    batch = batched.gather(dashboard(batched), start_block=START_BLOCK)
    sequential = connection()
    seq_handles = dashboard(sequential)
    results = [handle.result(start_block=START_BLOCK) for handle in seq_handles]
    sequential_values = sum(r.metrics.values_gathered for r in results)
    assert 0 < batch.values_gathered < sequential_values
    # Shared runs never gather privately; solo runs always do.
    assert all(r.metrics.values_gathered == 0 for r in batch.results)
    assert all(r.metrics.values_gathered > 0 for r in results)
    # δ accounting is untouched by the sharing.
    assert [h.delta for h in batch.handles] == [h.delta for h in seq_handles]


def test_gather_mixed_stopping_saves_rows(parity_scramble):
    """With early-stopping queries alongside a full-scan query, the union
    accounting reads measurably fewer rows than sequential."""
    from repro.api import connect

    conn = connect(
        parity_scramble,
        delta=DELTA,
        policy="harmonic",
        round_rows=ROUND_ROWS,
        rng=np.random.default_rng(7),
    )
    batch = conn.gather(
        [
            conn.table().group_by("g").avg("x", abs=5.0),
            conn.table().avg("x", rel=0.15),
            conn.table().group_by("g").avg("x", top=2),
        ],
        start_block=START_BLOCK,
    )
    assert batch.rows_read_shared < batch.rows_read_sequential
    assert batch.savings > 0.0


def test_unknown_engine_rejected(parity_scramble):
    with pytest.raises(ValueError, match="engine"):
        ApproximateExecutor(parity_scramble, get_bounder("bernstein"), engine="simd")


def test_auto_engine_matches_both(parity_scramble):
    """`auto` must route to one of the two parity-locked engines."""
    stopping = AbsoluteAccuracy(3.0)
    auto = _run_engine_override(parity_scramble, "auto", stopping)
    pool = _run_engine_override(parity_scramble, "pool", stopping)
    _assert_parity(auto, pool)  # 30 groups ≤/≥ threshold either way: parity
    assert AUTO_POOL_THRESHOLD >= 1


def _run_engine_override(scramble, engine, stopping):
    return _run(scramble, engine, AggregateFunction.AVG, "bernstein+rt", "scan", stopping)


@pytest.mark.parametrize(
    "views,auto_is_pool",
    [(AUTO_POOL_THRESHOLD, True), (AUTO_POOL_THRESHOLD - 1, False)],
)
def test_auto_threshold_selects_engine(views, auto_is_pool):
    """`auto` is the pool engine from exactly AUTO_POOL_THRESHOLD views up
    and the scalar engine one view below; `pool` / `scalar` override it;
    whichever engine runs, the intervals agree."""
    rng = np.random.default_rng(5)
    n = 12_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={"g": (np.arange(n) % views).astype(str)},
        range_pad=0.1,
    )
    scramble = Scramble(table, rng=np.random.default_rng(6))
    stopping = AbsoluteAccuracy(3.0)
    query = Query(AggregateFunction.AVG, "x", stopping, group_by=("g",))
    on_pool = {"auto": auto_is_pool, "pool": True, "scalar": False}
    for engine, expected in on_pool.items():
        executor = ApproximateExecutor(scramble, get_bounder("bernstein+rt"), engine=engine)
        run = QueryRun(executor, query)
        assert run.domain.size == views
        assert (run.pool is not None) == expected, engine
    scalar = _run_engine_override(scramble, "scalar", stopping)
    for engine in ("auto", "pool"):
        _assert_parity(scalar, _run_engine_override(scramble, engine, stopping))
