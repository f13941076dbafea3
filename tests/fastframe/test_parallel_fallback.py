"""Safety nets around the threaded ingest of ``ParallelScanDriver``.

* a **third-party bounder** implementing only the scalar §2.2.2 interface
  (``init_state``/``update``/``lbound``/``rbound``) must produce
  ≤1e-9-parity results through the scalar, pool, and ``parallelism=2``
  engines — the base class's loop fall-backs carry it, on an ingest
  thread like any built-in;
* the **thread boundary**: an ingest task folds only its own run's pool,
  while the frame's memo dicts, the block store and its cache, block
  selection, rounds and finalize stay on the scanning thread;
* the **shared thread pool**: a scan that grows it must not cancel
  another scan's queued tasks.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

import repro.fastframe.parallel as parallel
from repro.bounders.base import ErrorBounder
from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import (
    QueryRun,
    ScanDriver,
    _PoolRun,
    run_shared_scan,
    scan_driver,
)
from repro.fastframe.parallel import ParallelScanDriver
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import ScanCursor, get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.storage import (
    BlockedColumnArray,
    MmapBlockStore,
    attach_block_storage,
)
from repro.fastframe.table import Table
from repro.fastframe.viewpool import ViewPool
from repro.fastframe.window import WindowFrame
from repro.stopping.conditions import AbsoluteAccuracy, RelativeAccuracy

from tests.support import MinimalBounder, execute

RTOL = 1e-9
START_BLOCK = 2


class BatchOnlyBounder(MinimalBounder):
    """Third-party shape with a vectorized ``update_batch(state, values)``
    and nothing else: it has never heard of the scalar engine's shared
    moments, which must reach it as plain ``update_batch`` calls."""

    name = "batch-only"

    def __init__(self):
        self.batches = 0

    def update_batch(self, state, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        self.batches += 1
        state["count"] += values.size
        state["total"] += float(values.sum())


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(11)
    n = 40_000
    table = Table(
        continuous={"x": rng.normal(40.0, 12.0, n)},
        categorical={"g": rng.integers(0, 20, n).astype(str)},
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(12))


def _options(bounder):
    strategy = get_strategy("scan")
    strategy.window_blocks = 256
    return dict(bounder=bounder, strategy=strategy, delta=1e-6, round_rows=5_000)


def _query():
    return Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.5), group_by=("g",))


def _execute(scramble, bounder, engine, parallelism=None, query=None):
    """``query`` (default :func:`_query`) run to completion on ``engine``."""
    return execute(
        scramble,
        query=query or _query(),
        engine=engine,
        start_block=START_BLOCK,
        config=ExecConfig.resolve(parallelism=parallelism),
        **_options(bounder),
    )


def _pool_runs(scramble, bounder, queries):
    """Pool-engine runs of ``queries`` and a cursor to drive them."""
    runs = [_PoolRun(scramble, query, **_options(bounder)) for query in queries]
    return runs, ScanCursor(scramble, START_BLOCK, runs[0].window_blocks)


def _assert_parity(reference, other, context):
    assert reference.metrics.rows_read == other.metrics.rows_read, context
    assert reference.metrics.rounds == other.metrics.rounds, context
    assert set(reference.groups) == set(other.groups), context
    for key, left in reference.groups.items():
        right = other.groups[key]
        assert left.interval.lo == pytest.approx(
            right.interval.lo, rel=RTOL, abs=1e-9
        ), (context, key)
        assert left.interval.hi == pytest.approx(
            right.interval.hi, rel=RTOL, abs=1e-9
        ), (context, key)
        assert left.estimate == pytest.approx(right.estimate, rel=RTOL, abs=1e-9), (
            context,
            key,
        )
        assert left.samples == right.samples, (context, key)


class TestThirdPartyBounderFallback:
    def test_scalar_pool_parallel_parity(self, scramble):
        results = {}
        for label, engine, parallelism in (
            ("scalar", "scalar", 1),
            ("pool", "pool", 1),
            ("parallel", "pool", 2),
        ):
            results[label] = _execute(scramble, MinimalBounder(), engine, parallelism)
        _assert_parity(results["scalar"], results["pool"], "scalar-vs-pool")
        _assert_parity(results["scalar"], results["parallel"], "scalar-vs-parallel")
        assert results["parallel"].metrics.partition_wall_s > 0  # threads ran

    @pytest.mark.parametrize("wrap", [lambda inner: inner, RangeTrimBounder])
    def test_batch_only_bounder_ignores_moments_hand_down(self, scramble, wrap):
        """The scalar engine hands every bounder the segment's moments;
        one that only implements ``update_batch(state, values)`` — bare or
        as RangeTrim's inner — must see exactly the values a per-element
        bounder sees."""
        batch_only = BatchOnlyBounder()
        results = {
            label: _execute(scramble, wrap(inner), "scalar", 1)
            for label, inner in (("loop", MinimalBounder()), ("batch", batch_only))
        }
        _assert_parity(results["loop"], results["batch"], "loop-vs-batch")
        assert batch_only.batches > 0

    def test_scalar_only_bounder_folds_on_ingest_threads(self, scramble, monkeypatch):
        """The base ``update_pool`` loop is the path every pool takes, so a
        scalar-only bounder is folded on the ingest threads too."""
        threads = set()
        original = ErrorBounder.update_pool

        def spy(self, pool, indices, values):
            threads.add(threading.get_ident())
            return original(self, pool, indices, values)

        monkeypatch.setattr(ErrorBounder, "update_pool", spy)
        _execute(scramble, MinimalBounder(), "pool", parallelism=2)
        assert threads - {threading.get_ident()}, "no fold ran on an ingest thread"


class TestDriverChoice:
    @pytest.mark.parametrize("solo", [True, False])
    def test_parallelism_picks_the_class(self, scramble, solo):
        """Serial execution is the plain base loop — it never builds the
        parallel driver's per-window bookkeeping."""
        for parallelism, expected in ((1, ScanDriver), (2, ParallelScanDriver)):
            [run], cursor = _pool_runs(scramble, get_bounder("bernstein+rt"), [_query()])
            config = ExecConfig.resolve(parallelism=parallelism)
            driver = scan_driver([run], cursor, config, solo=solo)
            assert type(driver) is expected
            assert driver.solo is solo


class TestIngestThreads:
    def test_threads_fold_only_their_own_run(self, tmp_path, monkeypatch):
        """Everything shared or ordered — the block store and its cache,
        the frame's memo dicts, block selection, rounds and finalize — is
        touched by the scanning thread alone, while an offloaded pool
        run's fold (``ViewPool.apply_ingest``) runs on an ingest thread."""
        rng = np.random.default_rng(21)
        n = 40_000
        table = Table(
            continuous={"x": rng.normal(40.0, 12.0, n)},
            categorical={"g": rng.integers(0, 20, n).astype(str)},
            range_pad=0.1,
        )
        scramble = Scramble(table, rng=np.random.default_rng(22))
        attach_block_storage(scramble, directory=tmp_path / "store")
        runs, cursor = _pool_runs(
            scramble,
            RangeTrimBounder(EmpiricalBernsteinSerflingBounder()),
            [_query(), Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2))],
        )

        callers: dict = {}

        def record(owner, name):
            original = getattr(owner, name)

            def spy(*args, **kwargs):
                callers.setdefault(name, set()).add(threading.get_ident())
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        record(MmapBlockStore, "block")
        record(BlockedColumnArray, "__getitem__")
        for name in ("values", "combined_codes", "predicate_mask"):
            record(WindowFrame, name)
        record(QueryRun, "select_blocks")
        record(_PoolRun, "_recompute_bounds")
        record(QueryRun, "_refresh_active")
        record(QueryRun, "finalize")
        record(ViewPool, "apply_ingest")

        batch = run_shared_scan(runs, cursor, ExecConfig.resolve(parallelism=2))
        assert batch.blocks_read + batch.cache_hits > 0  # the store served

        scanning = {threading.get_ident()}
        fold_threads = callers.pop("apply_ingest")
        assert fold_threads - scanning, "no offloaded fold ran on an ingest thread"
        assert set(callers) == {
            "block",
            "__getitem__",
            "values",
            "combined_codes",
            "predicate_mask",
            "select_blocks",
            "_recompute_bounds",
            "_refresh_active",
            "finalize",
        }
        for name, threads in callers.items():
            assert threads == scanning, name

    def test_more_threads_than_cores_stay_byte_identical(self, scramble):
        """More ingest threads than cores on a short switch interval: a
        task that raced the fold on shared state would show as a
        diverging interval or sample count."""
        queries = (
            _query(),
            Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2)),
            Query(AggregateFunction.COUNT, None, RelativeAccuracy(0.1), group_by=("g",)),
        )

        def gather(parallelism):
            runs, cursor = _pool_runs(
                scramble, RangeTrimBounder(EmpiricalBernsteinSerflingBounder()), queries
            )
            run_shared_scan(runs, cursor, ExecConfig.resolve(parallelism=parallelism))
            return [run.finalize() for run in runs]

        serial = gather(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = gather((os.cpu_count() or 1) + 1)
        finally:
            sys.setswitchinterval(interval)
        for left, right in zip(serial, stressed):
            assert right.metrics.partition_wall_s > 0
            assert set(left.groups) == set(right.groups)
            for key, group in left.groups.items():
                other = right.groups[key]
                assert group.interval == other.interval, key
                assert group.count_interval == other.count_interval, key
                assert group.estimate == other.estimate, key
                assert group.samples == other.samples, key

    @pytest.mark.parametrize("name", ["anderson", "anderson+rt"])
    def test_zero_copy_stream_folds_like_serial(self, scramble, name):
        """A single-view all-pass window reaches the kernel as a zero-copy
        view of the frame's value array; a pool that keeps the stream
        (Anderson's segments, RangeTrim's unclipped pass-through) must
        still hold exactly the serial stream after a threaded fold."""
        query = Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9))
        results = {
            parallelism: _execute(
                scramble, get_bounder(name), "pool", parallelism, query=query
            )
            for parallelism in (1, 2)
        }
        assert results[2].metrics.partition_wall_s > 0
        _assert_parity(results[1], results[2], f"{name}: serial-vs-parallel")


class TestSharedWorkerPool:
    def test_growing_the_pool_keeps_queued_work(self):
        """A scan that asks for more threads than the shared pool holds
        must not cancel another scan's queued tasks: both threads of a
        two-thread pool are busy, one more task waits in its queue, and a
        scan on another thread grows the pool to three."""
        parallel.shutdown_worker_pool()
        release = threading.Event()
        try:
            pool = parallel._worker_pool(2)
            busy = [pool.submit(release.wait) for _ in range(2)]
            queued = pool.submit(lambda: "ran")
            grower = threading.Thread(target=parallel._worker_pool, args=(3,))
            grower.start()
            grower.join(timeout=1.0)
        finally:
            release.set()
        grower.join(timeout=10)
        assert not grower.is_alive()
        try:
            assert queued.result(timeout=10) == "ran"
            assert all(task.result(timeout=10) for task in busy)
            assert parallel._worker_pool(3) is not pool
        finally:
            parallel.shutdown_worker_pool()
