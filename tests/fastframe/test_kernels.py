"""Property suite for the fused ingest kernel and batched worker tasks.

Two contracts are pinned here:

* **Fused ≡ composed.**  :func:`repro.fastframe.kernels.partition_ingest`
  replaced three near-copies of the slice → gather → stable sort →
  bincount hot path with one fused pass (all-pass gather elision,
  sort-fused value gather, low-cardinality bucketing).  Every fusion is
  an *optimization*, not an algorithm change: against a faithful
  reimplementation of the legacy composed passes the kernel must return
  byte-identical deltas across every edge case — empty partition, all
  rows filtered, single group, bucket-dtype boundaries, max cardinality,
  non-contiguous slices.

* **Batching is invisible.**  Bundling several runs' (query, window)
  ingests into one thread task changes only how many share a round
  trip, never the folds or the round order — pool state, results, and
  deterministic metrics must be byte-identical to serial at any
  ``parallelism`` × batch size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import _PoolRun, run_shared_scan
from repro.fastframe.kernels import (
    BUCKET_MAX_CARDINALITY,
    IngestDelta,
    group_order,
    lookup_codes,
    partition_ingest,
    slice_elements,
)
from repro.fastframe.parallel import ParallelScanDriver
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import ScanCursor, get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    RelativeAccuracy,
)

from tests.support import bounder_pool_bytes

# ----------------------------------------------------------------------
# Part 1 — fused kernel ≡ composed legacy passes, byte for byte
# ----------------------------------------------------------------------


def _legacy_partition(
    n_rows: int,
    sel,
    pred,
    codes: np.ndarray,
    values: np.ndarray | None,
    combined: np.ndarray | None,
) -> IngestDelta:
    """The pre-kernel composition, reimplemented verbatim: count the
    slice, boolean-gather values and codes, stable-argsort the raw int64
    codes, permute values by the sort order, rank codes into the domain.
    No elision, no index fusion, no bucketing — the reference bytes."""
    n_read = int(n_rows) if sel is None else int(np.count_nonzero(sel))
    pick = None
    n_in_view = 0
    if n_read:
        pick = pred if sel is None else (sel & pred)
        n_in_view = int(np.count_nonzero(pick))
    if n_in_view == 0:
        return IngestDelta(n_read=n_read, n_in_view=0)
    view_values = values[pick].copy() if values is not None else None
    if combined is None or codes.size <= 1:
        view_idx = np.zeros(n_in_view, dtype=np.int64)
        ordered_values = view_values
    else:
        view_combined = combined[pick]
        order = np.argsort(view_combined, kind="stable")
        view_idx = lookup_codes(codes, view_combined[order])
        ordered_values = view_values[order] if view_values is not None else None
    return IngestDelta(
        n_read=n_read,
        n_in_view=n_in_view,
        view_idx=view_idx,
        values=ordered_values,
    )


def _fused_partition(n_rows, sel, pred, codes, values, combined) -> IngestDelta:
    return partition_ingest(
        n_rows,
        sel,
        lambda: pred,
        codes,
        values_of=None if values is None else lambda pick: values[pick],
        combined_of=None if combined is None else lambda pick: combined[pick],
    )


def _assert_deltas_identical(fused: IngestDelta, legacy: IngestDelta) -> None:
    assert fused.n_read == legacy.n_read
    assert fused.n_in_view == legacy.n_in_view
    for field in ("view_idx", "values"):
        left = getattr(fused, field)
        right = getattr(legacy, field)
        if right is None:
            assert left is None, field
        else:
            assert left is not None, field
            assert left.dtype == right.dtype, field
            assert left.tobytes() == right.tobytes(), field


def _case(n_rows: int, cardinality: int, sel_kind: str, pred_kind: str, seed: int):
    """Build one (sel, pred, codes, values, combined) configuration."""
    rng = np.random.default_rng(seed)
    values = rng.normal(50.0, 9.0, n_rows)
    if cardinality <= 1:
        codes = np.array([7], dtype=np.int64)
        combined = None
    else:
        # A sparse domain (stride 3) so ranks differ from raw codes.
        codes = np.arange(cardinality, dtype=np.int64) * 3
        combined = rng.choice(codes, size=n_rows).astype(np.int64)
    if sel_kind == "none":
        sel = None
    elif sel_kind == "all-false":
        sel = np.zeros(n_rows, dtype=bool)
    elif sel_kind == "non-contiguous":
        sel = np.zeros(n_rows, dtype=bool)
        sel[::7] = True
        sel[3::11] = True
    else:  # random
        sel = rng.random(n_rows) < 0.6
    if pred_kind == "all-true":
        pred = np.ones(n_rows, dtype=bool)
    elif pred_kind == "all-false":
        pred = np.zeros(n_rows, dtype=bool)
    else:  # random
        pred = rng.random(n_rows) < 0.5
    return sel, pred, codes, values, combined


class TestFusedEqualsComposed:
    """ISSUE acceptance: fused kernel ≡ composed legacy, byte for byte."""

    @pytest.mark.parametrize(
        "name, n_rows, cardinality, sel_kind, pred_kind",
        [
            ("empty-window", 0, 16, "none", "all-true"),
            ("empty-partition", 4_096, 16, "all-false", "all-true"),
            ("all-rows-filtered", 4_096, 16, "none", "all-false"),
            ("single-group", 4_096, 1, "random", "random"),
            ("all-pass", 4_096, 16, "none", "all-true"),
            ("non-contiguous", 4_096, 16, "non-contiguous", "random"),
            ("uint8-boundary", 4_096, 256, "none", "all-true"),
            ("uint16-entry", 4_096, 257, "random", "random"),
            ("max-cardinality", 20_000, BUCKET_MAX_CARDINALITY, "none", "all-true"),
            ("past-bucket-cap", 20_000, BUCKET_MAX_CARDINALITY + 1, "random", "random"),
        ],
    )
    def test_edge_cases(self, name, n_rows, cardinality, sel_kind, pred_kind):
        sel, pred, codes, values, combined = _case(
            n_rows, cardinality, sel_kind, pred_kind, seed=11
        )
        for use_values in (True, False):
            value_arr = values if use_values else None
            fused = _fused_partition(n_rows, sel, pred, codes, value_arr, combined)
            legacy = _legacy_partition(n_rows, sel, pred, codes, value_arr, combined)
            _assert_deltas_identical(fused, legacy)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_property_sweep(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            n_rows = int(rng.integers(1, 3_000))
            cardinality = int(rng.choice([1, 2, 7, 64, 255, 256, 257, 1000]))
            sel_kind = str(rng.choice(["none", "random", "non-contiguous"]))
            pred_kind = str(rng.choice(["all-true", "random"]))
            sel, pred, codes, values, combined = _case(
                n_rows, cardinality, sel_kind, pred_kind, seed=int(rng.integers(1 << 30))
            )
            use_values = bool(rng.integers(2))
            value_arr = values if use_values else None
            fused = _fused_partition(n_rows, sel, pred, codes, value_arr, combined)
            legacy = _legacy_partition(n_rows, sel, pred, codes, value_arr, combined)
            _assert_deltas_identical(fused, legacy)

    def test_group_order_bucketing_matches_int64_sort(self):
        """The counting-sort path's permutation is the int64 stable
        sort's permutation — including ties, at both dtype boundaries."""
        rng = np.random.default_rng(3)
        for cardinality in (2, 255, 256, 257, 4_000, BUCKET_MAX_CARDINALITY):
            codes = np.arange(cardinality, dtype=np.int64) * 5 + 1
            combined = rng.choice(codes, size=9_000).astype(np.int64)
            order, view_idx = group_order(combined, codes)
            reference = np.argsort(combined, kind="stable")
            assert np.array_equal(order, reference), cardinality
            assert np.array_equal(
                view_idx, lookup_codes(codes, combined[reference])
            ), cardinality

    def test_all_pass_returns_views_and_own_arrays_copies(self):
        """The all-pass elision hands out views into the window buffers."""
        n_rows = 2_048
        pred = np.ones(n_rows, dtype=bool)
        values = np.arange(n_rows, dtype=np.float64)
        codes = np.array([5], dtype=np.int64)
        borrowed = _fused_partition(n_rows, None, pred, codes, values, None)
        assert not borrowed.values.flags.owndata  # the zero-copy fast path

    def test_slice_elements_skips_predicate_when_nothing_read(self):
        called = []

        def pred_of():
            called.append(True)
            return np.ones(8, dtype=bool)

        empty = slice_elements(8, np.zeros(8, dtype=bool), pred_of)
        assert empty.n_read == 0 and empty.n_in_view == 0 and not called


# ----------------------------------------------------------------------
# Part 2 — batched parity at parallelism 2
# ----------------------------------------------------------------------


START_BLOCK = 3


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(29)
    n = 40_000
    table = Table(
        continuous={"x": rng.normal(40.0, 12.0, n)},
        categorical={"g": rng.integers(0, 20, n).astype(str)},
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(30))


def _pool_runs(scramble) -> list[_PoolRun]:
    """The :func:`_queries`, each on the pool engine."""
    strategy = get_strategy("scan")
    strategy.window_blocks = 256
    bounder = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
    options = dict(bounder=bounder, strategy=strategy, delta=1e-6, round_rows=5_000)
    return [_PoolRun(scramble, query, **options) for query in _queries()]


def _queries():
    """Five pool runs per window, so auto/3/16 batch shapes all differ."""
    return [
        Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.5), group_by=("g",)),
        Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2)),
        Query(AggregateFunction.COUNT, None, RelativeAccuracy(0.1), group_by=("g",)),
        Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.8), group_by=("g",)),
        Query(AggregateFunction.SUM, "x", RelativeAccuracy(0.4)),
    ]


def _pool_snapshot(pool) -> tuple:
    return (
        bounder_pool_bytes(pool.bounder_pool),
        pool.codes.tobytes(),
        pool.sample.count.tobytes(),
        pool.sample.mean.tobytes(),
        pool.sample.m2.tobytes(),
        pool.in_view.tobytes(),
        pool.covered.tobytes(),
        pool.iv_lo.tobytes(),
        pool.iv_hi.tobytes(),
        pool.active.tobytes(),
        pool.exhausted.tobytes(),
    )


def _metrics_snapshot(metrics) -> tuple:
    return (
        metrics.rows_read,
        metrics.blocks_fetched,
        metrics.blocks_skipped,
        metrics.rounds,
        metrics.values_gathered,
        metrics.bounds_recomputed,
        metrics.stopped_early,
    )


def _run(scramble, parallelism, task_batch=None):
    """One shared scan.  Batch size is not a user-facing option (the
    driver sizes batches itself), so a test that needs a specific size
    pins it on the driver object it constructs."""
    runs = _pool_runs(scramble)
    cursor = ScanCursor(scramble, START_BLOCK, runs[0].window_blocks)
    config = ExecConfig.resolve(parallelism=parallelism)
    if task_batch is None:
        batch = run_shared_scan(runs, cursor, config)
    else:
        driver = ParallelScanDriver(runs, cursor, config)
        driver._batch_size = lambda n_offload: task_batch
        batch = driver.run()
    results = [run.finalize() for run in runs]
    return (
        [_pool_snapshot(run.pool) for run in runs],
        results,
        [_metrics_snapshot(run.metrics) for run in runs],
        batch,
    )


def _assert_identical(serial, other, context):
    serial_pools, serial_results, serial_metrics, _ = serial
    other_pools, other_results, other_metrics, _ = other
    assert other_pools == serial_pools, f"{context}: ViewPool state diverged"
    assert other_metrics == serial_metrics, f"{context}: metrics diverged"
    for left, right in zip(serial_results, other_results):
        assert set(left.groups) == set(right.groups), context
        for key, group in left.groups.items():
            mirror = right.groups[key]
            assert group.interval == mirror.interval, (context, key)
            assert group.estimate == mirror.estimate, (context, key)
            assert group.samples == mirror.samples, (context, key)


class TestBatchedTaskParity:
    """Byte-identical pool state at any parallelism × batch size —
    pinned 1/3/16 and the driver's own sizing."""

    @pytest.mark.parametrize("task_batch", [1, 3, 16, None])
    def test_batched_scan_byte_identical_to_serial(self, scramble, task_batch):
        serial = _run(scramble, parallelism=1)
        batched = _run(scramble, parallelism=2, task_batch=task_batch)
        _assert_identical(serial, batched, f"task_batch={task_batch}")
