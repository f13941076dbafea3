"""Compatibility paths of the worker-side bounder-kernel protocol.

Three safety nets around the native-delta fast path:

* a **third-party bounder** implementing only the scalar §2.2.2 interface
  (``init_state``/``update``/``lbound``/``rbound``) must produce
  ≤1e-9-parity results through the scalar, pool, and ``parallelism=2``
  engines — the loop fall-backs plus the return-the-sorted-values worker
  protocol keep working unchanged;
* the **thread boundary** of ``ParallelScanDriver``: ingest threads run
  only the pure kernel, never the unlocked frame, store, cache or pool;
* the worker **payload contract**: native deltas carry no per-row
  arrays, and a run whose bounder lacks the protocol returns strictly
  more bytes (``ExecutionMetrics.delta_bytes_returned``).
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import (
    ApproximateExecutor,
    QueryRun,
    ScanDriver,
    run_shared_scan,
    scan_driver,
)
from repro.fastframe.parallel import ParallelScanDriver
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import get_strategy
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

from tests.support import MinimalBounder

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


class _NoDeltaRangeTrim(RangeTrimBounder):
    """Delta-capable math with the protocol switched off — isolates the
    loop-fallback + values-shipping path for payload comparisons."""

    supports_delta = False


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


def _executor(scramble, bounder, engine, parallelism=None):
    strategy = get_strategy("scan")
    strategy.window_blocks = 256
    return ApproximateExecutor(
        scramble,
        bounder,
        strategy=strategy,
        delta=1e-6,
        round_rows=5_000,
        rng=np.random.default_rng(3),
        engine=engine,
        config=ExecConfig.resolve(parallelism=parallelism),
    )


def _query():
    return Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.5), group_by=("g",))


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
            executor = _executor(scramble, MinimalBounder(), engine, parallelism)
            results[label] = executor.execute(_query(), start_block=START_BLOCK)
        _assert_parity(results["scalar"], results["pool"], "scalar-vs-pool")
        _assert_parity(results["scalar"], results["parallel"], "scalar-vs-parallel")
        # The fallback protocol must have shipped the sorted per-row
        # values (no native delta exists for this bounder).
        assert results["parallel"].metrics.delta_bytes_returned > 0

    @pytest.mark.parametrize("wrap", [lambda inner: inner, RangeTrimBounder])
    def test_batch_only_bounder_ignores_moments_hand_down(self, scramble, wrap):
        """The scalar engine hands every bounder the segment's moments;
        one that only implements ``update_batch(state, values)`` — bare or
        as RangeTrim's inner — must see exactly the values a per-element
        bounder sees."""
        batch_only = BatchOnlyBounder()
        results = {
            label: _executor(scramble, wrap(inner), "scalar", 1).execute(
                _query(), start_block=START_BLOCK
            )
            for label, inner in (("loop", MinimalBounder()), ("batch", batch_only))
        }
        _assert_parity(results["loop"], results["batch"], "loop-vs-batch")
        assert batch_only.batches > 0

    def test_fallback_deltas_keep_row_arrays(self, scramble, monkeypatch):
        """Worker deltas for a non-delta bounder must carry view_idx and
        values; apply_ingest replays them through update_pool."""
        seen = []
        original = QueryRun.consume_delta

        def spy(self, delta, window_rows, at_end):
            seen.append(
                (
                    delta.bounder_delta is not None,
                    delta.view_idx is not None,
                    delta.values is not None,
                )
            )
            return original(self, delta, window_rows, at_end)

        monkeypatch.setattr(QueryRun, "consume_delta", spy)
        executor = _executor(scramble, MinimalBounder(), "pool", parallelism=2)
        executor.execute(_query(), start_block=START_BLOCK)
        assert seen
        assert all(not native for native, _, _ in seen)
        assert all(has_idx and has_values for _, has_idx, has_values in seen)


class TestNativeDeltaPayload:
    def test_native_deltas_ship_no_row_arrays(self, scramble, monkeypatch):
        seen = []
        original = QueryRun.consume_delta

        def spy(self, delta, window_rows, at_end):
            seen.append(
                (
                    delta.bounder_delta is not None,
                    delta.view_idx is not None,
                    delta.values is not None,
                )
            )
            return original(self, delta, window_rows, at_end)

        monkeypatch.setattr(QueryRun, "consume_delta", spy)
        bounder = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
        executor = _executor(scramble, bounder, "pool", parallelism=2)
        executor.execute(_query(), start_block=START_BLOCK)
        native = [entry for entry in seen if entry[0]]
        assert native, "no worker task shipped a native bounder delta"
        assert all(
            not has_idx and not has_values for _, has_idx, has_values in native
        ), "a native delta carried per-row arrays"

    @pytest.mark.parametrize("name", ["anderson", "anderson+rt"])
    def test_native_delta_owns_the_values_it_keeps(self, scramble, name):
        """A single-view all-pass window reaches the kernel as a zero-copy
        view of the frame's value array; a bounder delta that keeps the
        stream (Anderson's segments, RangeTrim's unclipped pass-through)
        carries that view into the fold, which must still see exactly the
        serial stream."""
        query = Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9))
        results = {
            parallelism: _executor(
                scramble, get_bounder(name), "pool", parallelism
            ).execute(query, start_block=START_BLOCK)
            for parallelism in (1, 2)
        }
        assert results[2].metrics.delta_bytes_returned > 0
        _assert_parity(results[1], results[2], f"{name}: serial-vs-parallel")

    def test_native_payload_smaller_than_fallback(self, scramble):
        def bytes_for(bounder):
            executor = _executor(scramble, bounder, "pool", parallelism=2)
            result = executor.execute(_query(), start_block=START_BLOCK)
            return result, result.metrics.delta_bytes_returned

        native_result, native_bytes = bytes_for(
            RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
        )
        fallback_result, fallback_bytes = bytes_for(
            _NoDeltaRangeTrim(EmpiricalBernsteinSerflingBounder())
        )
        # Same math, same answers — only the wire format differs.
        _assert_parity(native_result, fallback_result, "native-vs-fallback")
        assert native_bytes > 0
        assert fallback_bytes > native_bytes, (native_bytes, fallback_bytes)
        # The fallback ships O(rows) of int64+float64; native is O(views).
        assert native_bytes < fallback_bytes / 4, (native_bytes, fallback_bytes)


class TestDriverChoice:
    @pytest.mark.parametrize("solo", [True, False])
    def test_parallelism_picks_the_class(self, scramble, solo):
        """Serial execution is the plain base loop — it never builds the
        parallel driver's per-window bookkeeping."""
        executor = _executor(scramble, get_bounder("bernstein+rt"), "pool")
        for parallelism, expected in ((1, ScanDriver), (2, ParallelScanDriver)):
            run = QueryRun(executor, _query())
            cursor = executor.cursor(START_BLOCK, window_blocks=run.window_blocks)
            config = ExecConfig.resolve(parallelism=parallelism)
            driver = scan_driver([run], cursor, config, solo=solo)
            assert type(driver) is expected
            assert driver.solo is solo


class TestIngestThreads:
    def test_threads_run_only_the_pure_kernel(self, tmp_path, monkeypatch):
        """Everything unlocked — the block store and its cache, the
        frame's memo dicts, the view pools, the runs — is touched by the
        scanning thread alone; the offloaded partitions really ran on
        other threads."""
        rng = np.random.default_rng(21)
        n = 40_000
        table = Table(
            continuous={"x": rng.normal(40.0, 12.0, n)},
            categorical={"g": rng.integers(0, 20, n).astype(str)},
            range_pad=0.1,
        )
        scramble = Scramble(table, rng=np.random.default_rng(22))
        attach_block_storage(scramble, directory=tmp_path / "store")
        executor = _executor(
            scramble, RangeTrimBounder(EmpiricalBernsteinSerflingBounder()), "pool"
        )
        runs = [
            QueryRun(executor, query)
            for query in (
                _query(),
                Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2)),
            )
        ]
        cursor = executor.cursor(START_BLOCK, window_blocks=runs[0].window_blocks)

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
        record(ViewPool, "apply_ingest")
        record(QueryRun, "consume_delta")
        import repro.fastframe.parallel as parallel

        record(parallel, "partition_ingest")

        batch = run_shared_scan(runs, cursor, ExecConfig.resolve(parallelism=2))
        assert batch.blocks_read + batch.cache_hits > 0  # the store served

        scanning = {threading.get_ident()}
        kernel_threads = callers.pop("partition_ingest")
        assert kernel_threads - scanning, "no partition ran off the scanning thread"
        assert set(callers) == {
            "block",
            "__getitem__",
            "values",
            "combined_codes",
            "predicate_mask",
            "apply_ingest",
            "consume_delta",
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
            executor = _executor(
                scramble, RangeTrimBounder(EmpiricalBernsteinSerflingBounder()), "pool"
            )
            runs = [QueryRun(executor, query) for query in queries]
            cursor = executor.cursor(START_BLOCK, window_blocks=runs[0].window_blocks)
            run_shared_scan(runs, cursor, ExecConfig.resolve(parallelism=parallelism))
            return [run.finalize(merge_index_counters=False) for run in runs]

        serial = gather(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = gather((os.cpu_count() or 1) + 1)
        finally:
            sys.setswitchinterval(interval)
        for left, right in zip(serial, stressed):
            assert right.metrics.delta_bytes_returned > 0
            assert set(left.groups) == set(right.groups)
            for key, group in left.groups.items():
                other = right.groups[key]
                assert group.interval == other.interval, key
                assert group.count_interval == other.count_interval, key
                assert group.estimate == other.estimate, key
                assert group.samples == other.samples, key
