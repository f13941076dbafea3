"""Integration tests for the approximate executor against Exact (§4)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.bounders.base import Interval
from repro.bounders.registry import get_bounder
from repro.expressions import col
from repro.fastframe.exact import ExactExecutor
from repro.fastframe.executor import _ScalarRun
from repro.fastframe.kernels import IngestDelta
from repro.fastframe.predicate import Compare, Eq
from repro.fastframe.query import (
    AggregateFunction,
    ExecutionMetrics,
    GroupResult,
    Query,
    QueryResult,
)
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    SamplesTaken,
    ThresholdSide,
    TopKSeparated,
)
from tests.support import execute

DELTA = 1e-6  # moderate δ so tests exercise non-trivial intervals quickly


def run_query(scramble, query, bounder="bernstein+rt", strategy="scan", seed=3, **kw):
    return execute(
        scramble,
        get_bounder(bounder),
        query,
        strategy=get_strategy(strategy),
        delta=DELTA,
        round_rows=4_000,
        rng=np.random.default_rng(seed),
        **kw,
    )


class TestScalarAvg:
    def test_interval_encloses_exact(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(5.0),
            predicate=Eq("Origin", "ORD"),
        )
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        result = run_query(small_scramble, query).scalar()
        assert result.interval.lo - 1e-9 <= exact.estimate <= result.interval.hi + 1e-9

    def test_all_bounders_sound(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(3.0))
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        for name in ("hoeffding", "hoeffding+rt", "bernstein", "bernstein+rt"):
            result = run_query(small_scramble, query, bounder=name).scalar()
            assert (
                result.interval.lo - 1e-9
                <= exact.estimate
                <= result.interval.hi + 1e-9
            ), name

    def test_stops_early_when_achievable(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(8.0))
        result = run_query(small_scramble, query)
        assert result.metrics.stopped_early
        assert result.metrics.rows_read < small_scramble.num_rows
        assert result.scalar().interval.width < 8.0

    def test_unachievable_target_degenerates_to_exact(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(1e-9))
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        result = run_query(small_scramble, query).scalar()
        assert result.exhausted
        assert result.interval.lo == pytest.approx(exact.estimate, rel=1e-9)
        assert result.interval.width == pytest.approx(0.0, abs=1e-9)

    def test_fixed_sample_count_condition(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", SamplesTaken(5_000))
        result = run_query(small_scramble, query)
        assert result.scalar().samples >= 5_000
        assert result.metrics.stopped_early


class TestGroupByAvg:
    def test_threshold_partition_matches_exact(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            ThresholdSide(0.0),
            group_by=("Airline",),
        )
        exact = ExactExecutor(small_scramble).execute(query)
        result = run_query(small_scramble, query)
        truth_above = {k for k, g in exact.groups.items() if g.estimate > 0}
        assert result.keys_above(0.0) == truth_above

    def test_group_intervals_sound(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(6.0),
            group_by=("Airline",),
        )
        exact = ExactExecutor(small_scramble).execute(query)
        result = run_query(small_scramble, query)
        assert set(result.groups) == set(exact.groups)
        for key, group in exact.groups.items():
            interval = result.groups[key].interval
            assert interval.lo - 1e-9 <= group.estimate <= interval.hi + 1e-9, key

    def test_top1_matches_exact(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            TopKSeparated(1),
            group_by=("Airline",),
        )
        exact = ExactExecutor(small_scramble).execute(query)
        result = run_query(small_scramble, query)
        assert result.top_k(1) == exact.top_k(1)

    @pytest.mark.parametrize(
        "k,error",
        [(-1, ValueError), (True, TypeError), (1.5, TypeError), ("2", TypeError)],
    )
    def test_top_k_rejects_a_bad_k(self, k, error):
        """``k`` is checked, never coerced: a negative, bool or float k
        must not slice a silent answer out of the ranking."""
        groups = {
            (name,): GroupResult((name,), estimate, Interval(0.0, 9.0),
                                 Interval(1.0, 1.0), samples=1)
            for name, estimate in (("a", 1.0), ("b", 3.0), ("c", 2.0))
        }
        query = Query(AggregateFunction.AVG, "x", TopKSeparated(1))
        result = QueryResult(query, groups, ExecutionMetrics())
        assert result.top_k(0) == []
        assert result.top_k(np.int64(2)) == [("b",), ("c",)]
        with pytest.raises(error, match="k"):
            result.top_k(k)

    @pytest.mark.parametrize("strategy", ["scan", "activesync", "activepeek"])
    def test_strategies_all_give_correct_answers(self, small_scramble, strategy):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            ThresholdSide(0.0),
            group_by=("Airline",),
        )
        exact = ExactExecutor(small_scramble).execute(query)
        result = run_query(small_scramble, query, strategy=strategy)
        truth_above = {k for k, g in exact.groups.items() if g.estimate > 0}
        assert result.keys_above(0.0) == truth_above

    def test_active_strategies_skip_blocks(self, small_scramble):
        """With a selective predicate, active scanning fetches fewer
        blocks than plain Scan for the same answer."""
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(10.0),
            predicate=Eq("Airline", "HP"),
            group_by=("Airline",),
        )
        scan = run_query(small_scramble, query, strategy="scan")
        peek = run_query(small_scramble, query, strategy="activepeek")
        assert peek.metrics.blocks_fetched <= scan.metrics.blocks_fetched
        assert peek.metrics.blocks_skipped > 0

    def test_predicate_group_by_combination(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(8.0),
            predicate=Compare("DepTime", ">", 1800.0),
            group_by=("DayOfWeek",),
        )
        exact = ExactExecutor(small_scramble).execute(query)
        result = run_query(small_scramble, query)
        for key, group in exact.groups.items():
            interval = result.groups[key].interval
            assert interval.lo - 1e-9 <= group.estimate <= interval.hi + 1e-9


class TestCountAndSum:
    def test_count_interval_encloses_exact(self, small_scramble):
        query = Query(
            AggregateFunction.COUNT,
            None,
            AbsoluteAccuracy(4_000.0),
            predicate=Eq("Airline", "WN"),
        )
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        result = run_query(small_scramble, query).scalar()
        assert result.interval.lo <= exact.estimate <= result.interval.hi
        assert result.interval.width < 4_000.0

    def test_count_per_group(self, small_scramble):
        query = Query(
            AggregateFunction.COUNT,
            None,
            AbsoluteAccuracy(6_000.0),
            group_by=("Airline",),
        )
        exact = ExactExecutor(small_scramble).execute(query)
        result = run_query(small_scramble, query)
        for key, group in exact.groups.items():
            interval = result.groups[key].interval
            assert interval.lo <= group.estimate <= interval.hi, key

    def test_sum_interval_encloses_exact(self, small_scramble):
        query = Query(
            AggregateFunction.SUM,
            "DepDelay",
            AbsoluteAccuracy(2e5),
            predicate=Eq("Airline", "WN"),
        )
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        result = run_query(small_scramble, query).scalar()
        assert result.interval.lo <= exact.estimate <= result.interval.hi


class TestExpressionAggregates:
    def test_expression_avg_sound(self, small_scramble):
        """Appendix B end to end: AVG over a derived expression uses
        derived range bounds and stays sound."""
        expr = col("DepDelay") * 2.0 + 10.0
        query = Query(AggregateFunction.AVG, expr, AbsoluteAccuracy(8.0))
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        result = run_query(small_scramble, query).scalar()
        assert result.interval.lo - 1e-9 <= exact.estimate <= result.interval.hi + 1e-9

    def test_convex_expression(self, small_scramble):
        expr = (col("DepDelay") - 5.0) ** 2
        query = Query(AggregateFunction.AVG, expr, SamplesTaken(10_000))
        exact = ExactExecutor(small_scramble).execute(query).scalar()
        result = run_query(small_scramble, query).scalar()
        assert result.interval.lo - 1e-6 <= exact.estimate <= result.interval.hi + 1e-6


class TestScalarSharedMoments:
    def test_no_record_window_bit_equal_to_four_independent_updates(self, rng):
        """The scalar ingest reduces a view's segment once for all four
        moment consumers (all-read, sample, RT-left, RT-right); a window
        holding no record must leave each bit-equal to its own
        ``update_batch`` over the segment."""
        n = 600
        table = Table(
            continuous={"x": rng.normal(0.0, 5.0, n)},
            categorical={"g": rng.integers(0, 3, n).astype(str)},
        )
        scramble = Scramble(table, rng=np.random.default_rng(1))
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1e-9), group_by=("g",)
        )
        run = _ScalarRun(
            scramble, query, bounder=get_bounder("bernstein+rt"), delta=DELTA
        )

        def ingest(view_idx, values):
            run._ingest(
                IngestDelta(values.size, values.size, view_idx, values),
                values.size,
            )

        view_idx = np.sort(rng.integers(0, 3, 300))
        ingest(view_idx, rng.normal(0.0, 5.0, 300))
        before = copy.deepcopy(run.views)
        # Strictly inside every view's extrema: no record on either side.
        lo = max(v.bounder_state.extrema.min for v in run.views.values())
        hi = min(v.bounder_state.extrema.max for v in run.views.values())
        values = rng.uniform(lo, hi, 300)
        ingest(view_idx, values)

        inner = run.bounder.inner
        for position, (code, view) in enumerate(run.views.items()):
            segment = values[view_idx == position]
            expected = before[code]
            expected.all_read_moments.update_batch(segment)
            expected.sample_moments.update_batch(segment)
            inner.update_batch(expected.bounder_state.left, segment)
            inner.update_batch(expected.bounder_state.right, segment)
            expected.bounder_state.count += segment.size
            assert view.all_read_moments == expected.all_read_moments
            assert view.sample_moments == expected.sample_moments
            assert view.bounder_state == expected.bounder_state


class TestEdgeCases:
    def test_empty_predicate_result_drops_group(self, rng):
        table = Table(
            continuous={"v": np.arange(5_000, dtype=float)},
            categorical={"g": ["only"] * 5_000},
        )
        scramble = Scramble(table, block_size=25, rng=rng)
        query = Query(
            AggregateFunction.AVG,
            "v",
            AbsoluteAccuracy(1.0),
            predicate=Compare("v", ">", 1e12),
        )
        result = run_query(scramble, query)
        assert result.groups == {}

    def test_deterministic_given_seed(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(5.0))
        first = run_query(small_scramble, query, seed=9)
        second = run_query(small_scramble, query, seed=9)
        assert first.metrics.rows_read == second.metrics.rows_read
        assert first.scalar().interval == second.scalar().interval

    def test_start_block_override(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(5.0))
        result = run_query(small_scramble, query, start_block=0)
        assert result.scalar().samples > 0

    def test_metrics_populated(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(6.0),
            group_by=("Airline",),
        )
        result = run_query(small_scramble, query, strategy="activepeek")
        metrics = result.metrics
        assert metrics.rows_read > 0
        assert metrics.blocks_fetched > 0
        assert metrics.rounds >= 1
        assert metrics.wall_time_s > 0
        assert metrics.batch_probes > 0  # ActivePeek charged batched probes

    def test_scalar_on_group_query_raises(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(10.0),
            group_by=("Airline",),
        )
        result = run_query(small_scramble, query)
        with pytest.raises(ValueError):
            result.scalar()


class TestExactExecutor:
    def test_matches_numpy_groupby(self, small_scramble):
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            AbsoluteAccuracy(1.0),
            group_by=("Airline",),
        )
        result = ExactExecutor(small_scramble).execute(query)
        table = small_scramble.table
        codes = table.categorical("Airline").codes
        delays = table.continuous("DepDelay")
        for key, group in result.groups.items():
            code = table.categorical("Airline").code_of(key[0])
            expected = delays[codes == code].mean()
            assert group.estimate == pytest.approx(expected, rel=1e-12)
            assert group.interval.width == 0.0
            assert group.exhausted

    def test_count_and_sum(self, small_scramble):
        table = small_scramble.table
        codes = table.categorical("Airline").codes
        delays = table.continuous("DepDelay")
        count_query = Query(
            AggregateFunction.COUNT, None, AbsoluteAccuracy(1.0), group_by=("Airline",)
        )
        counts = ExactExecutor(small_scramble).execute(count_query)
        sum_query = Query(
            AggregateFunction.SUM,
            "DepDelay",
            AbsoluteAccuracy(1.0),
            group_by=("Airline",),
        )
        sums = ExactExecutor(small_scramble).execute(sum_query)
        for key in counts.groups:
            code = table.categorical("Airline").code_of(key[0])
            assert counts.groups[key].estimate == pytest.approx(
                (codes == code).sum()
            )
            assert sums.groups[key].estimate == pytest.approx(
                delays[codes == code].sum(), rel=1e-9
            )

    def test_metrics_full_scan(self, small_scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(1.0))
        result = ExactExecutor(small_scramble).execute(query)
        assert result.metrics.rows_read == small_scramble.num_rows
        assert result.metrics.blocks_fetched == small_scramble.num_blocks
