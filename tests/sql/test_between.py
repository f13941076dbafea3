"""Tests for the SQL BETWEEN predicate."""

import numpy as np
import pytest

from repro.fastframe import And, Compare
from repro.sql import SqlCompileError, SqlSyntaxError, parse, parse_query
from repro.sql.ast import Between, ColumnRef, NumberLiteral
from repro.stopping import RelativeAccuracy


class TestParsing:
    def test_between_shape(self):
        stmt = parse("SELECT AVG(x) FROM t WHERE DepTime BETWEEN 9:00am AND 5:00pm")
        assert stmt.where == Between(
            ColumnRef("DepTime"), NumberLiteral(900.0), NumberLiteral(1700.0)
        )

    def test_between_composes_with_and(self):
        stmt = parse(
            "SELECT AVG(x) FROM t WHERE a BETWEEN 1 AND 2 AND b > 3"
        )
        # the first AND binds to BETWEEN; the second joins the conjunction
        assert stmt.where.op == "AND"
        assert isinstance(stmt.where.parts[0], Between)

    def test_between_requires_and(self):
        with pytest.raises(SqlSyntaxError, match="AND"):
            parse("SELECT AVG(x) FROM t WHERE a BETWEEN 1 2")


class TestCompilation:
    def test_lowers_to_conjunction(self):
        query = parse_query(
            "SELECT AVG(DepDelay) FROM flights WHERE DepTime BETWEEN 1000 AND 2000",
            stopping=RelativeAccuracy(0.5),
        )
        assert isinstance(query.predicate, And)
        low, high = query.predicate.parts
        assert isinstance(low, Compare) and low.op == ">=" and low.threshold == 1000.0
        assert isinstance(high, Compare) and high.op == "<=" and high.threshold == 2000.0

    def test_string_endpoints_rejected(self):
        with pytest.raises(SqlCompileError, match="numeric"):
            parse_query(
                "SELECT AVG(x) FROM t WHERE a BETWEEN 'p' AND 'q'",
                stopping=RelativeAccuracy(0.5),
            )

    def test_executes_end_to_end(self):
        from repro.api import connect
        from repro.datasets import make_flights_scramble
        from repro.fastframe import ExactExecutor

        scramble = make_flights_scramble(rows=30_000, seed=0)
        query = parse_query(
            "SELECT AVG(DepDelay) FROM flights "
            "WHERE DepTime BETWEEN 12:00pm AND 6:00pm",
            stopping=RelativeAccuracy(0.5),
        )
        conn = connect(scramble, delta=1e-6, max_queries=1, rng=np.random.default_rng(1))
        approx = conn.query(query).result()
        truth = ExactExecutor(scramble).execute(query).scalar().estimate
        interval = approx.scalar().interval
        slack = 1e-9 * max(1.0, abs(truth))
        assert interval.lo - slack <= truth <= interval.hi + slack
