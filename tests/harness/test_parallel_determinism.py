"""Parallel ingest determinism: parallelism must not change a single byte.

The parallel driver's contract is stronger than 1e-9 parity: because
workers run only the pure partition half of ingest (including the
bounder's ``partition_delta`` kernel) and the main process merges deltas
in serial order, the same seed and start block must produce
**byte-identical** `ViewPool` state — *including the bounder pool* — and
identical `ExecutionMetrics` (windows, values gathered, bounds
recomputed, probe counts — everything but wall time) at ``parallelism``
1, 2, and 4 — including when queries retire mid-scan and when the
driver's lookahead prefetch is discarded.  Every delta-capable bounder
family is pinned separately, and the worker payload for native-delta
runs is asserted to carry no per-row value arrays
(``delta_bytes_returned`` stays O(views)-sized).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import ApproximateExecutor, QueryRun, run_shared_scan
from repro.fastframe.query import AggregateFunction, ExecutionMetrics, Query
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    RelativeAccuracy,
    SamplesTaken,
)

from tests.support import bounder_pool_bytes as _bounder_pool_bytes

PARALLELISMS = (1, 2, 4)
START_BLOCK = 5

#: One representative per delta-capable bounder family: Hoeffding,
#: Bernstein, the asymptotic (CLT) family, RangeTrim composites over an
#: O(1) and an O(m) inner, and the plain O(m) Anderson/CSR pool.
FAMILY_BOUNDERS = (
    "hoeffding",
    "bernstein",
    "clt",
    "bernstein+rt",
    "anderson",
    "anderson+rt",
)


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(0)
    n = 80_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={
            "g": rng.integers(0, 24, n).astype(str),
            "h": rng.integers(0, 5, n).astype(str),
        },
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(1))


def _executor(scramble, strategy_name, parallelism=None):
    strategy = get_strategy(strategy_name)
    strategy.window_blocks = 512  # several windows per scan
    return ApproximateExecutor(
        scramble,
        get_bounder("bernstein+rt"),
        strategy=strategy,
        delta=1e-6,
        round_rows=6_000,
        rng=np.random.default_rng(7),
        engine="pool",
        config=ExecConfig.resolve(parallelism=parallelism),
    )


def _dashboard_queries():
    """A retirement mix: one full-scan query, two that stop mid-scan, one
    fixed-sample query — exercising live-set churn and prefetch discard."""
    return [
        Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)),
        Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2)),
        Query(AggregateFunction.COUNT, None, AbsoluteAccuracy(2_000.0), group_by=("g",)),
        Query(AggregateFunction.AVG, "x", SamplesTaken(9_000), group_by=("h",)),
    ]


def _pool_snapshot(pool) -> tuple:
    """Every array of the pool, as raw bytes (bounder pool included)."""
    return (
        _bounder_pool_bytes(pool.bounder_pool),
        pool.codes.tobytes(),
        pool.sample.count.tobytes(),
        pool.sample.mean.tobytes(),
        pool.sample.m2.tobytes(),
        pool.all_read.count.tobytes(),
        pool.all_read.mean.tobytes(),
        pool.all_read.m2.tobytes(),
        pool.in_view.tobytes(),
        pool.covered.tobytes(),
        pool.run_lo.tobytes(),
        pool.run_hi.tobytes(),
        pool.crun_lo.tobytes(),
        pool.crun_hi.tobytes(),
        pool.iv_lo.tobytes(),
        pool.iv_hi.tobytes(),
        pool.civ_lo.tobytes(),
        pool.civ_hi.tobytes(),
        pool.active.tobytes(),
        pool.dropped.tobytes(),
        pool.exhausted.tobytes(),
        pool.dirty.tobytes(),
        pool.snap_dirty.tobytes(),
    )


def _metrics_snapshot(metrics: ExecutionMetrics) -> tuple:
    """Every counter but wall time (the one legitimately varying field)."""
    return (
        metrics.rows_read,
        metrics.blocks_fetched,
        metrics.blocks_skipped,
        metrics.index_probes,
        metrics.batch_probes,
        metrics.rounds,
        metrics.values_gathered,
        metrics.bounds_recomputed,
        metrics.stopped_early,
    )


@pytest.mark.parametrize("strategy_name", ["scan", "activepeek"])
def test_shared_scan_byte_identical_across_parallelism(scramble, strategy_name):
    snapshots = {}
    for parallelism in PARALLELISMS:
        executor = _executor(scramble, strategy_name)
        runs = [QueryRun(executor, query) for query in _dashboard_queries()]
        cursor = executor.cursor(START_BLOCK, window_blocks=runs[0].window_blocks)
        batch = run_shared_scan(runs, cursor, ExecConfig.resolve(parallelism=parallelism))
        for run in runs:
            run.finalize(merge_index_counters=False)
        snapshots[parallelism] = (
            [_pool_snapshot(run.pool) for run in runs],
            [_metrics_snapshot(run.metrics) for run in runs],
            _metrics_snapshot(batch),
        )
    reference = snapshots[PARALLELISMS[0]]
    for parallelism in PARALLELISMS[1:]:
        pools, run_metrics, batch_metrics = snapshots[parallelism]
        ref_pools, ref_run_metrics, ref_batch_metrics = reference
        assert pools == ref_pools, f"ViewPool state diverged at parallelism={parallelism}"
        assert run_metrics == ref_run_metrics, (
            f"per-run metrics diverged at parallelism={parallelism}"
        )
        assert batch_metrics == ref_batch_metrics, (
            f"batch metrics diverged at parallelism={parallelism}"
        )


def test_mid_scan_retirement_happens(scramble):
    """The determinism fixture must actually exercise live-set churn:
    some queries retire while others keep scanning."""
    executor = _executor(scramble, "scan")
    runs = [QueryRun(executor, query) for query in _dashboard_queries()]
    cursor = executor.cursor(START_BLOCK, window_blocks=runs[0].window_blocks)
    batch = run_shared_scan(runs, cursor, ExecConfig.resolve(parallelism=2))
    rows = [run.metrics.rows_read for run in runs]
    assert max(rows) == scramble.num_rows  # the full-scan anchor
    assert min(rows) < scramble.num_rows  # at least one early retirement
    assert batch.rounds > 1  # several shared windows


def test_solo_execute_byte_identical_across_parallelism(scramble):
    results = []
    for parallelism in PARALLELISMS:
        executor = _executor(scramble, "scan", parallelism)
        query = Query(
            AggregateFunction.AVG, "x", RelativeAccuracy(0.1), group_by=("g",)
        )
        results.append(executor.execute(query, start_block=START_BLOCK))
    reference = results[0]
    for result in results[1:]:
        assert _metrics_snapshot(result.metrics) == _metrics_snapshot(
            reference.metrics
        )
        assert set(result.groups) == set(reference.groups)
        for key, group in reference.groups.items():
            other = result.groups[key]
            # Exact equality — not approx — the parallel fold is the same
            # float program as the serial one.
            assert group.interval == other.interval
            assert group.count_interval == other.count_interval
            assert group.estimate == other.estimate
            assert group.samples == other.samples


@pytest.fixture(scope="module")
def family_scramble():
    rng = np.random.default_rng(21)
    n = 24_000
    table = Table(
        continuous={"x": rng.lognormal(2.0, 0.6, n)},
        categorical={"g": rng.integers(0, 16, n).astype(str)},
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(22))


@pytest.mark.parametrize("bounder_name", FAMILY_BOUNDERS)
def test_bounder_family_byte_identical_across_parallelism(
    family_scramble, bounder_name
):
    """Each family's pool — moments, RangeTrim clip state, CSR sample
    buffers — must evolve byte-identically at any parallelism, and
    native-delta worker payloads must stay free of per-row arrays."""
    snapshots = {}
    for parallelism in PARALLELISMS:
        strategy = get_strategy("scan")
        strategy.window_blocks = 192  # several windows per scan
        executor = ApproximateExecutor(
            family_scramble,
            get_bounder(bounder_name),
            strategy=strategy,
            delta=1e-6,
            round_rows=4_000,
            rng=np.random.default_rng(9),
            engine="pool",
        )
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        run = QueryRun(executor, query)
        cursor = executor.cursor(START_BLOCK, window_blocks=run.window_blocks)
        run_shared_scan([run], cursor, ExecConfig.resolve(parallelism=parallelism))
        run.finalize(merge_index_counters=False)
        snapshots[parallelism] = (
            _pool_snapshot(run.pool),
            _metrics_snapshot(run.metrics),
            run.metrics.delta_bytes_returned,
        )
    ref_pool, ref_metrics, _ = snapshots[PARALLELISMS[0]]
    for parallelism in PARALLELISMS[1:]:
        pool_bytes, metrics, _ = snapshots[parallelism]
        assert pool_bytes == ref_pool, (
            f"{bounder_name}: pool state diverged at parallelism={parallelism}"
        )
        assert metrics == ref_metrics, (
            f"{bounder_name}: metrics diverged at parallelism={parallelism}"
        )
    # Payload contract: serial ships nothing; worker runs ship the same
    # bytes at any worker count (the offload split is parallelism-
    # independent); and native families never ship the O(rows) int64
    # view_idx column — Anderson's samples are the one irreducible
    # O(rows) payload, everyone else stays O(views) per window.
    assert snapshots[1][2] == 0
    assert snapshots[2][2] == snapshots[4][2]
    shipped = snapshots[2][2]
    assert shipped > 0, f"{bounder_name}: no worker task shipped a delta"
    rows = family_scramble.num_rows
    if bounder_name in ("hoeffding", "bernstein", "clt", "bernstein+rt"):
        assert shipped < rows, (bounder_name, shipped)  # O(views), not O(rows)
    else:
        # O(m) family: float64 samples ship (8 bytes/row at most once per
        # row, ×2 for RangeTrim's two clipped streams), but never the
        # int64 view_idx on top.
        streams = 2 if bounder_name == "anderson+rt" else 1
        assert shipped <= streams * 8 * rows + 64 * 16 * 40, (bounder_name, shipped)


@pytest.mark.parametrize("aggregate", ["MEDIAN", "PERCENTILE"])
def test_quantile_family_byte_identical_across_parallelism(
    family_scramble, aggregate
):
    """The order-statistics family rides Anderson's CSR pool and delta
    protocol; its per-query bounder must evolve byte-identically at any
    parallelism, with native O(views)-shaped worker deltas."""
    snapshots = {}
    for parallelism in PARALLELISMS[:2]:
        strategy = get_strategy("scan")
        strategy.window_blocks = 192
        executor = ApproximateExecutor(
            family_scramble,
            get_bounder("bernstein+rt"),
            strategy=strategy,
            delta=1e-6,
            round_rows=4_000,
            rng=np.random.default_rng(9),
            engine="pool",
        )
        query = Query(
            AggregateFunction[aggregate],
            "x",
            SamplesTaken(12_000),
            group_by=("g",),
            percentile=0.75 if aggregate == "PERCENTILE" else None,
        )
        run = QueryRun(executor, query)
        cursor = executor.cursor(START_BLOCK, window_blocks=run.window_blocks)
        run_shared_scan([run], cursor, ExecConfig.resolve(parallelism=parallelism))
        run.finalize(merge_index_counters=False)
        snapshots[parallelism] = (
            _pool_snapshot(run.pool),
            _metrics_snapshot(run.metrics),
            run.metrics.delta_bytes_returned,
        )
    assert snapshots[2][0] == snapshots[1][0], "quantile pool state diverged"
    assert snapshots[2][1] == snapshots[1][1], "quantile metrics diverged"
    # Serial ships nothing; worker runs ship the float64 samples (the
    # O(m) family's irreducible payload) but never the int64 view_idx.
    assert snapshots[1][2] == 0
    rows = family_scramble.num_rows
    assert 0 < snapshots[2][2] <= 8 * rows + 64 * 16 * 40


def test_rounds_stream_identical_across_parallelism(scramble):
    from repro.api import connect

    streams = []
    for parallelism in (1, 2):
        conn = connect(
            scramble,
            delta=1e-6,
            round_rows=6_000,
            engine="pool",
            strategy=_executor(scramble, "scan").strategy,
            rng=np.random.default_rng(3),
            parallelism=parallelism,
        )
        handle = conn.table().group_by("g").avg("x", rel=0.1)
        updates = list(handle.rounds(start_block=START_BLOCK))
        streams.append(
            [
                (
                    update.round_index,
                    update.rows_read,
                    tuple(sorted(
                        (key, snap.interval, snap.samples)
                        for key, snap in update.groups.items()
                    )),
                )
                for update in updates
            ]
        )
    assert streams[0] == streams[1]
