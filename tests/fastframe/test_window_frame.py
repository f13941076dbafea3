"""WindowFrame: shared per-window materialization + incremental rounds.

Covers the frame's slicing/memoization contracts, the shared-gather
accounting (values gathered once per window, not once per query), and the
incremental-rounds dirty-mask machinery (skipping a clean row is
bit-identical, because the decayed-δ interval only widens).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.fastframe.executor import (
    ApproximateExecutor,
    QueryRun,
    run_shared_scan,
    scan_driver,
)
from repro.fastframe.predicate import Eq, TruePredicate
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.storage import attach_block_storage
from repro.fastframe.table import Table
from repro.fastframe.window import WindowFrame
from repro.stopping.conditions import AbsoluteAccuracy, ThresholdSide

DELTA = 1e-6
ROUND_ROWS = 3_000
START_BLOCK = 5


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(0)
    n = 20_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n), "y": rng.uniform(0.0, 5.0, n)},
        categorical={
            "g": rng.integers(0, 12, n).astype(str),
            "h": rng.integers(0, 3, n).astype(str),
        },
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(1))


def _executor(scramble, engine="pool", strategy="scan", bounder="bernstein+rt"):
    return ApproximateExecutor(
        scramble,
        get_bounder(bounder),
        strategy=get_strategy(strategy),
        delta=DELTA,
        round_rows=ROUND_ROWS,
        rng=np.random.default_rng(7),
        engine=engine,
    )


def _window(scramble, n_blocks=64, start=0):
    return np.arange(start, start + n_blocks, dtype=np.int64)


class TestFrameSlicing:
    def test_union_rows_match_rows_of_blocks(self, scramble):
        window = _window(scramble)
        mask = np.zeros(window.shape, dtype=bool)
        mask[::3] = True
        frame = WindowFrame(scramble, window, mask)
        np.testing.assert_array_equal(
            frame.rows, scramble.rows_of_blocks(window[mask])
        )
        assert frame.window_rows == scramble.count_rows_of_blocks(window)

    def test_element_selector_full_mask_is_fast_path(self, scramble):
        window = _window(scramble)
        mask = np.ones(window.shape, dtype=bool)
        frame = WindowFrame(scramble, window, mask)
        assert frame.element_selector(mask) is None
        assert frame.element_selector(mask.copy()) is None  # equal
        assert frame.element_selector(frame.union_mask) is None  # identical

    def test_element_selector_subset_slices_exactly(self, scramble):
        window = _window(scramble)
        union = np.ones(window.shape, dtype=bool)
        union[5] = False  # union itself need not be the whole window
        frame = WindowFrame(scramble, window, union)
        sub = union.copy()
        sub[::2] = False
        sel = frame.element_selector(sub)
        np.testing.assert_array_equal(
            frame.rows[sel], scramble.rows_of_blocks(window[sub])
        )

    def test_element_selector_rejects_non_subset(self, scramble):
        window = _window(scramble)
        union = np.zeros(window.shape, dtype=bool)
        union[:10] = True
        frame = WindowFrame(scramble, window, union)
        rogue = np.zeros(window.shape, dtype=bool)
        rogue[12] = True  # wants a block the union never fetched
        with pytest.raises(ValueError, match="subset"):
            frame.element_selector(rogue)

    def test_last_short_block_rows(self, scramble):
        # The final block of the scramble may be short; slicing must not
        # invent rows past num_rows.
        last = scramble.num_blocks - 1
        window = np.array([last - 1, last], dtype=np.int64)
        union = np.ones(2, dtype=bool)
        frame = WindowFrame(scramble, window, union)
        only_last = np.array([False, True])
        sel = frame.element_selector(only_last)
        np.testing.assert_array_equal(
            frame.rows[sel], scramble.rows_of_blocks(window[only_last])
        )


class TestFrameMemoization:
    def test_values_gathered_once_per_key(self, scramble):
        window = _window(scramble)
        frame = WindowFrame(scramble, window, np.ones(window.shape, dtype=bool))
        x = scramble.table.continuous("x")
        first = frame.values(("column", "x"), lambda rows: x[rows])
        again = frame.values(("column", "x"), lambda rows: x[rows])
        assert first is again
        assert frame.values_gathered == frame.rows.size
        y = scramble.table.continuous("y")
        frame.values(("column", "y"), lambda rows: y[rows])
        assert frame.values_gathered == 2 * frame.rows.size

    def test_predicate_masks_keyed_by_identity(self, scramble):
        window = _window(scramble)
        frame = WindowFrame(scramble, window, np.ones(window.shape, dtype=bool))
        predicate = Eq("h", "1")
        assert frame.predicate_mask(predicate) is frame.predicate_mask(predicate)
        np.testing.assert_array_equal(
            frame.predicate_mask(predicate),
            predicate.mask(scramble.table, frame.rows),
        )

    def test_true_predicates_share_one_mask(self, scramble):
        window = _window(scramble)
        frame = WindowFrame(scramble, window, np.ones(window.shape, dtype=bool))
        assert frame.predicate_mask(TruePredicate()) is frame.predicate_mask(
            TruePredicate()
        )

    def test_combined_codes_memoized_per_group_by(self, scramble):
        window = _window(scramble)
        frame = WindowFrame(scramble, window, np.ones(window.shape, dtype=bool))
        calls = []

        def provider(rows):
            calls.append(len(rows))
            return np.zeros(len(rows), dtype=np.int64)

        frame.combined_codes(("g",), provider)
        frame.combined_codes(("g",), provider)
        assert calls == [frame.rows.size]


class TestSharedValueGathering:
    def _full_scan_queries(self):
        target = AbsoluteAccuracy(1e-9)  # unachievable: forces a full scan
        return [
            Query(AggregateFunction.AVG, "x", target, group_by=("g",)),
            Query(AggregateFunction.AVG, "x", target, group_by=("h",)),
        ]

    def test_shared_scan_gathers_each_column_once_per_window(self, scramble):
        queries = self._full_scan_queries()
        runs = [QueryRun(_executor(scramble), q) for q in queries]
        cursor = runs[0].executor.cursor(START_BLOCK)
        metrics = run_shared_scan(runs, cursor)
        # Both queries aggregate "x": the union frames gather it once per
        # window — num_rows elements over the full scan, not 2×.
        assert metrics.values_gathered == scramble.num_rows
        # In a shared scan the runs themselves gather nothing.
        assert all(run.metrics.values_gathered == 0 for run in runs)

    def test_solo_runs_gather_per_query(self, scramble, tmp_path):
        total = 0
        for query in self._full_scan_queries():
            result = _executor(scramble).execute(query, start_block=START_BLOCK)
            assert result.metrics.values_gathered == scramble.num_rows
            total += result.metrics.values_gathered
        assert total == 2 * scramble.num_rows

        # A solo driver charges the frame's gathers and block I/O to the
        # run and leaves its own metrics alone; a batch of one does the
        # reverse — same intervals either way.
        stored = Scramble(scramble.table, rng=np.random.default_rng(1))
        attach_block_storage(stored, directory=tmp_path)
        query = self._full_scan_queries()[0]

        solo_run = QueryRun(_executor(stored), query)
        cursor = solo_run.executor.cursor(START_BLOCK)
        driver = scan_driver([solo_run], cursor, solo_run.executor.config, solo=True)
        driver.run()
        solo = solo_run.finalize()
        assert driver.metrics.rows_read == driver.metrics.values_gathered == 0
        assert not driver.metrics.storage_snapshot()
        assert solo.metrics.values_gathered == stored.num_rows
        assert solo.metrics.storage_snapshot()

        batch_run = QueryRun(_executor(stored), query)
        batch = run_shared_scan([batch_run], batch_run.executor.cursor(START_BLOCK))
        gathered = batch_run.finalize(merge_index_counters=False)
        assert batch.rows_read == batch.values_gathered == stored.num_rows
        assert batch.storage_snapshot()
        assert gathered.metrics.values_gathered == 0
        assert not gathered.metrics.storage_snapshot()
        assert solo.groups.keys() == gathered.groups.keys()
        for key, group in solo.groups.items():
            assert group.interval == gathered.groups[key].interval

    def test_count_queries_gather_no_values(self, scramble):
        query = Query(
            AggregateFunction.COUNT, None, AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        result = _executor(scramble).execute(query, start_block=START_BLOCK)
        assert result.metrics.values_gathered == 0

    def test_distinct_columns_gather_separately(self, scramble):
        target = AbsoluteAccuracy(1e-9)
        queries = [
            Query(AggregateFunction.AVG, "x", target, group_by=("g",)),
            Query(AggregateFunction.AVG, "y", target, group_by=("g",)),
        ]
        runs = [QueryRun(_executor(scramble), q) for q in queries]
        cursor = runs[0].executor.cursor(START_BLOCK)
        metrics = run_shared_scan(runs, cursor)
        assert metrics.values_gathered == 2 * scramble.num_rows


class TestIncrementalRounds:
    def test_scan_strategy_pool_matches_scalar_recompute_count(self, scramble):
        """Under plain Scan every settling view is dirty each round, so the
        incremental pool recomputes exactly what the scalar engine does."""
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        pool = _executor(scramble, engine="pool").execute(query, START_BLOCK)
        scalar = _executor(scramble, engine="scalar").execute(query, START_BLOCK)
        assert pool.metrics.bounds_recomputed > 0
        assert pool.metrics.bounds_recomputed == scalar.metrics.bounds_recomputed

    def test_active_strategy_recomputes_no_more_than_scalar(self, scramble):
        """With frozen groups the dirty mask can only shrink the recompute
        set relative to the scalar engine's active-mask rule — never grow
        it — while results stay identical (the parity suite pins them)."""
        query = Query(
            AggregateFunction.AVG,
            "x",
            ThresholdSide(21.0),
            group_by=("g",),
        )
        pool = _executor(scramble, engine="pool", strategy="activepeek").execute(
            query, START_BLOCK
        )
        scalar = _executor(scramble, engine="scalar", strategy="activepeek").execute(
            query, START_BLOCK
        )
        assert 0 < pool.metrics.bounds_recomputed <= scalar.metrics.bounds_recomputed
        assert set(pool.groups) == set(scalar.groups)
        for key, left in pool.groups.items():
            right = scalar.groups[key]
            assert left.interval.lo == pytest.approx(right.interval.lo, rel=1e-9)
            assert left.interval.hi == pytest.approx(right.interval.hi, rel=1e-9)

    def test_clean_row_recompute_is_a_fold_no_op(self, scramble):
        """The soundness basis of skipping: recomputing a row whose
        counters did not change, at the next round's smaller decayed δ,
        yields a wider interval whose running-intersection fold is a
        no-op — certified intervals are bit-identical either way."""
        executor = _executor(scramble, engine="pool")
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        run = QueryRun(executor, query)
        cursor = executor.cursor(START_BLOCK, window_blocks=run.window_blocks)
        for _ in run.drive(cursor, executor.config):
            if run.round_index >= 2:
                break
        pool = run.pool
        before = {
            name: getattr(pool, name).copy()
            for name in ("iv_lo", "iv_hi", "civ_lo", "civ_hi", "run_lo",
                         "run_hi", "crun_lo", "crun_hi", "dropped")
        }
        # Force every row dirty WITHOUT changing any counter, then run the
        # next round: the fold must leave every certified interval alone.
        pool.dirty[:] = True
        run._recompute_bounds(run.round_index + 1)
        for name, expected in before.items():
            np.testing.assert_array_equal(getattr(pool, name), expected, err_msg=name)

    def test_dirty_rows_consumed_by_recompute(self, scramble):
        executor = _executor(scramble, engine="pool")
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        run = QueryRun(executor, query)
        cursor = executor.cursor(START_BLOCK, window_blocks=run.window_blocks)
        for _ in run.drive(cursor, executor.config):
            if run.round_index >= 1:
                break
        # The round just recomputed every dirty row and cleared the mask.
        assert not run.pool.dirty.any()
        recomputed = run._recompute_bounds(run.round_index + 1)
        assert recomputed == 0  # nothing changed since the last round


class TestFramePathParity:
    def test_solo_window_equals_two_phase_consume(self, scramble):
        """One window off the solo driver and select_blocks()+consume()
        on a twin run are the same code path: identical state after it."""
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        executor = _executor(scramble)
        solo = QueryRun(executor, query)
        shared = QueryRun(_executor(scramble), query)
        cursor = executor.cursor(0, window_blocks=solo.window_blocks)
        window = next(solo.drive(cursor, executor.config))
        mask = shared.select_blocks(window)
        frame = WindowFrame(scramble, window, mask)
        shared.consume(frame, mask, at_end=cursor.exhausted)
        assert solo.metrics.rows_read == shared.metrics.rows_read
        np.testing.assert_array_equal(solo.pool.in_view, shared.pool.in_view)
        np.testing.assert_array_equal(solo.pool.covered, shared.pool.covered)
        np.testing.assert_array_equal(
            solo.pool.sample.mean, shared.pool.sample.mean
        )
