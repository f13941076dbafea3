"""Tests for SQL→Query compilation, including all nine Figure 5 queries
(compiled from :mod:`repro.datasets.queries`)."""

import numpy as np
import pytest

from repro.datasets.queries import build_query
from repro.expressions import Expression
from repro.fastframe import AggregateFunction, And, Compare, Eq, In, Not
from repro.sql import SqlCompileError, parse_query
from repro.stopping import (
    GroupsOrdered,
    RelativeAccuracy,
    ThresholdSide,
    TopKSeparated,
)


class TestFigure5:
    """Every query of the catalogue compiles, at its defaults, to the
    stopping condition Table 4 assigns it (the sweep parameters are
    covered in ``tests/experiments/test_queries.py``)."""

    def test_fq1(self):
        query = build_query("F-q1")
        assert query.aggregate is AggregateFunction.AVG
        assert query.column == "DepDelay"
        assert isinstance(query.predicate, Eq)
        assert isinstance(query.stopping, RelativeAccuracy)

    def test_fq2(self):
        query = build_query("F-q2")
        assert query.group_by == ("Airline",)
        assert isinstance(query.stopping, ThresholdSide)
        assert query.stopping.threshold == 0.0

    def test_fq3(self):
        query = build_query("F-q3")
        assert isinstance(query.predicate, Compare)
        assert query.predicate.threshold == 2250.0
        assert isinstance(query.stopping, TopKSeparated)
        assert query.stopping.k == 2 and query.stopping.largest is False

    def test_fq4(self):
        query = build_query("F-q4")
        assert isinstance(query.stopping, ThresholdSide)
        assert query.stopping.threshold == 10.0
        assert query.group_by == ()

    def test_fq5(self):
        query = build_query("F-q5")
        assert query.group_by == ("Origin",)
        assert isinstance(query.stopping, ThresholdSide)

    def test_fq6(self):
        query = build_query("F-q6")
        assert query.group_by == ("DayOfWeek", "Origin")
        assert query.predicate.threshold == 1350.0
        assert query.stopping.k == 5 and query.stopping.largest is True

    def test_fq7(self):
        query = build_query("F-q7")
        assert isinstance(query.stopping, GroupsOrdered)
        assert isinstance(query.predicate, Eq)

    @pytest.mark.parametrize("name", ["F-q8", "F-q9"])
    def test_top1_queries(self, name):
        query = build_query(name)
        assert query.stopping.k == 1 and query.stopping.largest is True


class TestPredicateLowering:
    def test_not_equal(self):
        query = parse_query(
            "SELECT AVG(x) FROM t WHERE Origin != 'ORD'",
            stopping=RelativeAccuracy(0.5),
        )
        assert isinstance(query.predicate, Not)
        assert isinstance(query.predicate.inner, Eq)

    def test_in_list(self):
        query = parse_query(
            "SELECT AVG(x) FROM t WHERE Origin IN ('ORD', 'SFO')",
            stopping=RelativeAccuracy(0.5),
        )
        assert isinstance(query.predicate, In)
        assert query.predicate.values == ("ORD", "SFO")

    def test_flipped_comparison(self):
        query = parse_query(
            "SELECT AVG(x) FROM t WHERE 1000 < DepTime",
            stopping=RelativeAccuracy(0.5),
        )
        assert isinstance(query.predicate, Compare)
        assert query.predicate.op == ">"

    def test_and_or_combination(self):
        query = parse_query(
            "SELECT AVG(x) FROM t WHERE a = 'p' AND (b = 'q' OR c > 1)",
            stopping=RelativeAccuracy(0.5),
        )
        assert isinstance(query.predicate, And)

    def test_string_ordering_rejected(self):
        with pytest.raises(SqlCompileError, match="not defined for string"):
            parse_query(
                "SELECT AVG(x) FROM t WHERE Origin > 'ORD'",
                stopping=RelativeAccuracy(0.5),
            )


class TestExpressionAggregates:
    def test_arithmetic_argument_becomes_expression(self):
        query = parse_query(
            "SELECT AVG(2 * DepDelay + 1) FROM flights",
            stopping=RelativeAccuracy(0.5),
        )
        assert isinstance(query.column, Expression)

    def test_bare_column_stays_string(self):
        query = parse_query(
            "SELECT AVG(DepDelay) FROM flights", stopping=RelativeAccuracy(0.5)
        )
        assert query.column == "DepDelay"

    def test_count_star(self):
        query = parse_query(
            "SELECT COUNT(*) FROM flights WHERE Origin = 'ORD'",
            stopping=RelativeAccuracy(0.5),
        )
        assert query.aggregate is AggregateFunction.COUNT
        assert query.column is None

    def test_sum(self):
        query = parse_query(
            "SELECT SUM(DepDelay) FROM flights", stopping=RelativeAccuracy(0.5)
        )
        assert query.aggregate is AggregateFunction.SUM


class TestQuantileCompilation:
    def test_median_compiles(self):
        query = parse_query(
            "SELECT g, MEDIAN(x) FROM t GROUP BY g",
            stopping=RelativeAccuracy(0.3),
        )
        assert query.aggregate is AggregateFunction.MEDIAN
        assert query.column == "x"
        assert query.percentile is None
        assert query.quantile_p == 0.5

    def test_percentile_level_threads_through(self):
        query = parse_query(
            "SELECT PERCENTILE(x, 0.95) FROM t",
            stopping=RelativeAccuracy(0.3),
        )
        assert query.aggregate is AggregateFunction.PERCENTILE
        assert query.percentile == 0.95
        assert query.quantile_p == 0.95

    def test_median_topk_infers_separation(self):
        query = parse_query(
            "SELECT g FROM t GROUP BY g ORDER BY MEDIAN(x) DESC LIMIT 3"
        )
        assert query.aggregate is AggregateFunction.MEDIAN
        assert isinstance(query.stopping, TopKSeparated)
        assert query.stopping.k == 3
        assert query.stopping.largest

    def test_percentile_having_threshold(self):
        query = parse_query(
            "SELECT g FROM t GROUP BY g HAVING PERCENTILE(x, 0.9) > 25"
        )
        assert isinstance(query.stopping, ThresholdSide)
        assert query.stopping.threshold == 25.0

    def test_median_sql_matches_exact(self):
        from repro.api import connect
        from repro.datasets import make_flights_scramble
        from repro.fastframe import ExactExecutor

        scramble = make_flights_scramble(rows=20_000, seed=0)
        query = parse_query(
            "SELECT Airline, MEDIAN(DepDelay) FROM flights GROUP BY Airline",
            stopping=RelativeAccuracy(0.25),
        )
        conn = connect(scramble, delta=1e-6, max_queries=1, rng=np.random.default_rng(0))
        approx = conn.query(query).result()
        exact = ExactExecutor(scramble).execute(query)
        assert set(approx.groups) == set(exact.groups)
        for key, truth in exact.groups.items():
            group = approx.groups[key]
            assert (
                group.interval.lo - 1e-9
                <= truth.estimate
                <= group.interval.hi + 1e-9
            ), key


class TestCompileErrors:
    def test_no_aggregate(self):
        with pytest.raises(SqlCompileError, match="no aggregate"):
            parse_query("SELECT Origin FROM flights GROUP BY Origin")

    def test_two_distinct_aggregates(self):
        with pytest.raises(SqlCompileError, match="distinct aggregates"):
            parse_query(
                "SELECT AVG(x), SUM(y) FROM t", stopping=RelativeAccuracy(0.5)
            )

    def test_missing_stopping(self):
        with pytest.raises(SqlCompileError, match="stopping"):
            parse_query("SELECT AVG(x) FROM t")

    def test_ungrouped_bare_column(self):
        with pytest.raises(SqlCompileError, match="GROUP BY"):
            parse_query(
                "SELECT Origin, AVG(x) FROM t", stopping=RelativeAccuracy(0.5)
            )

    def test_order_by_non_aggregate(self):
        with pytest.raises(SqlCompileError, match="ORDER BY"):
            parse_query("SELECT AVG(x) FROM t ORDER BY y")

    def test_having_against_expression(self):
        with pytest.raises(SqlCompileError, match="numeric literal"):
            parse_query(
                "SELECT a FROM t GROUP BY a HAVING AVG(x) > AVG(x)"
            )


class TestEndToEnd:
    def test_sql_query_executes_and_matches_exact(self):
        from repro.api import connect
        from repro.datasets import make_flights_scramble
        from repro.fastframe import ExactExecutor

        scramble = make_flights_scramble(rows=40_000, seed=0)
        query = build_query("F-q2")
        conn = connect(scramble, delta=1e-6, max_queries=1, rng=np.random.default_rng(0))
        approx = conn.query(query).result()
        exact = ExactExecutor(scramble).execute(query)
        exact_above = {k for k, g in exact.groups.items() if g.estimate > 0.0}
        assert approx.keys_above(0.0) == exact_above
