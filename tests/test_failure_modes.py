"""Failure-injection and robustness tests across module boundaries.

Production systems fail at the seams; these tests pin down the error
behaviour of the public API for malformed inputs, degenerate data, and
misuse, so failures are loud, early, and informative.
"""

import numpy as np
import pytest

from repro.bounders import get_bounder
from repro.datasets import make_flights_scramble
from repro.fastframe import (
    AggregateFunction,
    Compare,
    Eq,
    ExactExecutor,
    Query,
    Scramble,
    Table,
)
from repro.stopping import AbsoluteAccuracy, RelativeAccuracy, SamplesTaken
from tests.support import execute


@pytest.fixture(scope="module")
def scramble():
    return make_flights_scramble(rows=10_000, seed=0)


class TestTableMisuse:
    def test_missing_continuous_column(self, scramble):
        with pytest.raises(KeyError, match="no continuous column"):
            scramble.table.continuous("NoSuchColumn")

    def test_missing_categorical_column(self, scramble):
        with pytest.raises(KeyError, match="no categorical column"):
            scramble.table.categorical("NoSuchColumn")

    def test_nan_rejected_at_load(self):
        with pytest.raises(ValueError, match="non-finite"):
            Table(continuous={"x": np.array([1.0, np.nan])})

    def test_inf_rejected_at_load(self):
        with pytest.raises(ValueError, match="non-finite"):
            Table(continuous={"x": np.array([1.0, np.inf])})

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Table(
                continuous={"x": np.ones(3)},
                categorical={"g": ["a", "b"]},
            )

    def test_empty_table_cannot_scramble(self):
        with pytest.raises(ValueError, match="empty"):
            Scramble(Table())


class TestQueryMisuse:
    def test_count_with_column_rejected(self):
        with pytest.raises(ValueError, match="COUNT"):
            Query(AggregateFunction.COUNT, "DepDelay", SamplesTaken(10))

    def test_avg_without_column_rejected(self):
        with pytest.raises(ValueError, match="require a column"):
            Query(AggregateFunction.AVG, None, SamplesTaken(10))

    def test_unknown_predicate_value(self, scramble):
        query = Query(
            AggregateFunction.AVG, "DepDelay", SamplesTaken(100),
            predicate=Eq("Origin", "NOT_AN_AIRPORT"),
        )
        with pytest.raises(KeyError, match="not in the column dictionary"):
            execute(scramble, get_bounder("bernstein"), query)

    def test_group_by_continuous_column_rejected(self, scramble):
        query = Query(
            AggregateFunction.AVG, "DepDelay", SamplesTaken(100),
            group_by=("DepTime",),  # continuous, not categorical
        )
        with pytest.raises(KeyError, match="no categorical column"):
            execute(scramble, get_bounder("bernstein"), query)

    def test_bad_stopping_parameters(self):
        with pytest.raises(ValueError):
            SamplesTaken(0)
        with pytest.raises(ValueError):
            AbsoluteAccuracy(0.0)
        with pytest.raises(ValueError):
            RelativeAccuracy(-0.5)


class TestDegenerateData:
    def test_constant_column_certifies_instantly(self):
        table = Table(continuous={"x": np.full(50_000, 7.0)})
        scramble = Scramble(table, rng=np.random.default_rng(0))
        query = Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.5))
        result = execute(
            scramble, get_bounder("bernstein+rt"), query, start_block=0,
            delta=1e-9, round_rows=5_000,
        )
        group = result.scalar()
        assert group.interval.lo <= 7.0 <= group.interval.hi
        assert result.metrics.stopped_early

    def test_single_row_table(self):
        table = Table(continuous={"x": np.array([3.0])})
        scramble = Scramble(table, rng=np.random.default_rng(0))
        approx = execute(
            scramble, get_bounder("bernstein+rt"),
            Query(AggregateFunction.AVG, "x", SamplesTaken(1)), delta=1e-6,
        )
        assert approx.scalar().interval.lo == pytest.approx(3.0)
        assert approx.scalar().interval.hi == pytest.approx(3.0)

    def test_predicate_matching_nothing(self, scramble):
        query = Query(
            AggregateFunction.AVG, "DepDelay", SamplesTaken(100),
            predicate=Compare("DepTime", ">", 1e12),
        )
        approx = execute(
            scramble, get_bounder("bernstein+rt"), query, delta=1e-6,
            rng=np.random.default_rng(0),
        )
        # The only view is certified empty and dropped, matching Exact.
        exact = ExactExecutor(scramble).execute(query)
        assert len(approx.groups) == len(exact.groups) == 0

    def test_two_distinct_values(self):
        """Hoeffding's worst case: half at each endpoint — still covered."""
        rng = np.random.default_rng(2)
        table = Table(continuous={"x": rng.choice([0.0, 1.0], size=40_000)})
        scramble = Scramble(table, rng=np.random.default_rng(3))
        result = execute(
            scramble, get_bounder("hoeffding"),
            Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.05)),
            delta=1e-6, rng=np.random.default_rng(4),
        )
        truth = float(table.continuous("x").mean())
        group = result.scalar()
        # ulp slack: the run exhausts the data and both sides reduce to the
        # same exact mean computed in different summation orders.
        assert group.interval.lo - 1e-12 <= truth <= group.interval.hi + 1e-12


class TestExecutorMisuse:
    def test_bad_start_block(self, scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", SamplesTaken(10))
        with pytest.raises(IndexError):
            execute(scramble, get_bounder("bernstein"), query, start_block=10**9)

    def test_delta_validated_at_bound_time(self, scramble):
        query = Query(AggregateFunction.AVG, "DepDelay", SamplesTaken(10))
        with pytest.raises(ValueError, match="delta"):
            execute(scramble, get_bounder("bernstein"), query, delta=2.0)


class TestSqlExpressionIntegration:
    def test_expression_aggregate_end_to_end(self, scramble):
        """Appendix B through the SQL door: AVG over an arithmetic
        expression compiles, derives range bounds, and certifies."""
        from repro.sql import parse_query

        query = parse_query(
            "SELECT AVG(2 * DepDelay + 10) FROM flights",
            stopping=RelativeAccuracy(0.5),
        )
        approx = execute(
            scramble, get_bounder("bernstein+rt"), query, delta=1e-6,
            rng=np.random.default_rng(5),
        )
        truth = float(2.0 * scramble.table.continuous("DepDelay").mean() + 10.0)
        group = approx.scalar()
        slack = 1e-9 * max(1.0, abs(truth))
        assert group.interval.lo - slack <= truth <= group.interval.hi + slack
