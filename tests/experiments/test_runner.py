"""Tests for ``benchmarks/paper.py``'s runners: the full Table 5/6 grids
and the Figure 7(a) sweep at test scale, with the paper's claims asserted."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import connect
from repro.bounders.registry import EVALUATED_BOUNDERS
from repro.datasets import airports_by_selectivity, make_flights_scramble
from repro.datasets.queries import GROUP_BY_QUERIES, build_query
from repro.fastframe.exact import ExactExecutor
from tests.support import paper_harness

paper = paper_harness()
check_correctness = paper.check_correctness
run_query_once = paper.run_query_once

#: Moderate delta so the tiny test scramble can terminate early.
TEST_DELTA = 1e-6


class TestRunQueryOnce:
    def test_returns_result_with_metrics(self, small_scramble):
        query = build_query("F-q1", epsilon=1.0)
        result = run_query_once(
            small_scramble, query, "bernstein+rt", delta=TEST_DELTA
        )
        assert result.metrics.rows_read > 0
        assert result.scalar().interval.width >= 0


class TestCheckCorrectness:
    def test_threshold_semantics(self, small_scramble):
        query = build_query("F-q2")
        exact = ExactExecutor(small_scramble).execute(query)
        approx = run_query_once(small_scramble, query, "bernstein+rt", delta=TEST_DELTA)
        assert check_correctness(query, approx, exact)

    def test_topk_semantics(self, small_scramble):
        query = build_query("F-q9")
        exact = ExactExecutor(small_scramble).execute(query)
        approx = run_query_once(small_scramble, query, "bernstein+rt", delta=TEST_DELTA)
        assert check_correctness(query, approx, exact)

    def test_relative_accuracy_semantics(self, small_scramble):
        query = build_query("F-q1", epsilon=1.0)
        exact = ExactExecutor(small_scramble).execute(query)
        approx = run_query_once(small_scramble, query, "bernstein+rt", delta=TEST_DELTA)
        assert check_correctness(query, approx, exact, epsilon_slack=1e-9)


@pytest.fixture(scope="module")
def scramble_250k():
    """At the 60k rows of ``small_scramble`` Bernstein and Hoeffding read
    the same rows on every query; from 250k on Bernstein's edge shows on
    F-q1 and F-q2."""
    return make_flights_scramble(rows=250_000, seed=7)


@pytest.fixture(scope="module")
def table5_rows(scramble_250k):
    """The whole Table 5 grid (nine queries × the four evaluated bounders,
    one run per cell) on a 250k-row scramble."""
    return paper.run_table5(scramble_250k, reps=1, delta=TEST_DELTA)


@pytest.fixture(scope="module")
def table6_rows(small_scramble):
    """The whole Table 6 grid: five GROUP BY queries × three strategies."""
    return paper.run_table6(small_scramble, reps=1, delta=TEST_DELTA)


class TestTables:
    def test_table5_rows_structure(self, table5_rows):
        assert [row.query_name for row in table5_rows] == [
            f"F-q{i}" for i in range(1, 10)
        ]
        for row in table5_rows:
            assert row.baseline.approach == "Exact"
            assert len(row.approaches) == len(EVALUATED_BOUNDERS)
            for cell in row.approaches:
                assert cell.correct, (row.query_name, cell.approach)
                assert math.isfinite(cell.speedup_wall)
                assert cell.blocks_fetched > 0

    def test_table5_bounder_order_in_rows_read(self, table5_rows):
        """§5.4.1: Bernstein+RT ≤ Bernstein ≤ Hoeffding and Hoeffding+RT ≤
        Hoeffding on every query; strictly so on F-q1 and F-q2."""
        for row in table5_rows:
            rows = {cell.approach: cell.rows_read for cell in row.approaches}
            h, h_rt = rows["Hoeffding"], rows["Hoeffding+RT"]
            b, b_rt = rows["Bernstein"], rows["Bernstein+RT"]
            assert b_rt <= b <= h and h_rt <= h, (row.query_name, rows)
            if row.query_name in ("F-q1", "F-q2"):
                assert b_rt < b < h and h_rt < h, (row.query_name, rows)

    def test_table5_formatting(self, table5_rows):
        text = paper.format_table5(table5_rows)
        assert "Table 5" in text
        assert "F-q1" in text
        assert "Bernstein+RT" in text
        assert "!WRONG" not in text

    def test_table6_rows_structure(self, table6_rows):
        """Every strategy answers every GROUP BY query correctly, and the
        active strategies never fetch more blocks than Scan."""
        assert [row.query_name for row in table6_rows] == list(GROUP_BY_QUERIES)
        for row in table6_rows:
            assert row.baseline.approach == "Scan" and row.baseline.correct
            assert [cell.approach for cell in row.approaches] == [
                "ActiveSync", "ActivePeek",
            ]
            for cell in row.approaches:
                assert cell.correct, (row.query_name, cell.approach)
                assert cell.blocks_fetched <= row.baseline.blocks_fetched

    def test_table6_formatting(self, table6_rows):
        assert "Table 6" in paper.format_table6(table6_rows)


def test_bernstein_without_fpc_reads_fewer_rows(scramble_250k):
    """Why the registry keeps ``bernstein-no-fpc``: at a small sampling
    fraction Maurer-Pontil is narrower than the Serfling-corrected
    Bernstein, so F-q1 stops on fewer rows (82 300 vs 124 250 here)."""

    def rows_read(bounder):
        conn = connect(
            scramble_250k, bounder=bounder, delta=TEST_DELTA, policy="even",
            max_queries=1, rng=np.random.default_rng(0),
        )
        return conn.query(build_query("F-q1")).result(0).metrics.rows_read

    assert rows_read("bernstein-no-fpc") < rows_read("bernstein")


class TestSweeps:
    def test_airports_span_selectivity(self, small_scramble):
        airports = airports_by_selectivity(small_scramble, count=5)
        selectivities = [sel for _, sel in airports]
        assert selectivities == sorted(selectivities, reverse=True)
        assert selectivities[0] > 10 * selectivities[-1]

    def test_fig7a_errors_within_requested(self, small_scramble):
        """§5.3: the observed error always falls within the requested bound."""
        paper.warm(small_scramble, build_query("F-q1"))
        result = paper.sweep_fig7a_relative_error(
            small_scramble,
            epsilons=(2.0, 1.0, 0.5, 0.25, 0.1),
            delta=TEST_DELTA,
        )
        assert [s.approach for s in result.series] == list(EVALUATED_BOUNDERS)
        for series in result.series:
            for requested, actual in zip(result.x_values, series.values):
                assert actual <= requested, (series.approach, requested, actual)

    def test_fig8_series_shape(self, small_scramble):
        result = paper.sweep_fig8_min_dep_time(
            small_scramble,
            min_dep_times=(1000, 2000),
            bounders=("bernstein+rt",),
            delta=TEST_DELTA,
        )
        series = result.series_by_name("bernstein+rt")
        assert len(series.values) == 2
        assert all(v > 0 for v in series.values)
        assert "Figure 8" in paper.format_sweep(result)

    def test_series_by_name_missing(self, small_scramble):
        result = paper.sweep_fig8_min_dep_time(
            small_scramble,
            min_dep_times=(1000,),
            bounders=("bernstein+rt",),
            delta=TEST_DELTA,
        )
        with pytest.raises(KeyError):
            result.series_by_name("clt")
