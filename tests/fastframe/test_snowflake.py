"""Tests for snowflake-schema join views (Extensibility, §1)."""

import numpy as np
import pytest

from repro.fastframe import Eq, Table
from repro.fastframe.snowflake import Dimension, ForeignKey, denormalize


def _star_schema(rows: int = 2_000, seed: int = 0):
    """A flights-like star: fact(delay, airport_fk) + airport dimension."""
    rng = np.random.default_rng(seed)
    airports = ["ORD", "SFO", "JFK", "AUS"]
    states = ["IL", "CA", "NY", "TX"]
    fact = Table(
        continuous={"DepDelay": rng.normal(10.0, 20.0, size=rows)},
        categorical={"Origin": rng.choice(airports, size=rows)},
    )
    airport_dim = Table(
        continuous={"elevation": np.array([672.0, 13.0, 13.0, 542.0])},
        categorical={"code": airports, "state": states},
    )
    dimension = Dimension(name="airport", table=airport_dim, key="code")
    return fact, dimension


class TestStarJoin:
    def test_attributes_attached(self):
        fact, dimension = _star_schema()
        view = denormalize(fact, [ForeignKey("Origin", dimension)])
        assert set(view.columns()) == {
            "DepDelay", "Origin", "airport.state", "airport.elevation",
        }
        assert view.num_rows == fact.num_rows

    def test_join_values_correct(self):
        fact, dimension = _star_schema(rows=200)
        view = denormalize(fact, [ForeignKey("Origin", dimension)])
        origin = view.categorical("Origin")
        state = view.categorical("airport.state")
        state_of = {"ORD": "IL", "SFO": "CA", "JFK": "NY", "AUS": "TX"}
        for row in range(200):
            airport = origin.dictionary[origin.codes[row]]
            assert state.dictionary[state.codes[row]] == state_of[airport]

    def test_continuous_attribute_joined_with_bounds(self):
        fact, dimension = _star_schema()
        view = denormalize(fact, [ForeignKey("Origin", dimension)])
        bounds = view.catalog.bounds("airport.elevation")
        assert bounds.a <= 13.0 and bounds.b >= 672.0

    def test_fact_bounds_inherited(self):
        fact, dimension = _star_schema()
        view = denormalize(fact, [ForeignKey("Origin", dimension)])
        assert view.catalog.bounds("DepDelay") == fact.catalog.bounds("DepDelay")

    def test_no_foreign_keys_copies_fact(self):
        fact, _ = _star_schema(rows=50)
        view = denormalize(fact, [])
        assert set(view.columns()) == {"DepDelay", "Origin"}
        np.testing.assert_array_equal(
            view.continuous("DepDelay"), fact.continuous("DepDelay")
        )


class TestSnowflakeJoin:
    def test_two_level_snowflake(self):
        """fact -> airport -> region resolves transitively."""
        fact, airport_dim = _star_schema()
        region_dim = Dimension(
            name="region",
            table=Table(
                categorical={
                    "state_code": ["IL", "CA", "NY", "TX"],
                    "name": ["midwest", "west", "east", "south"],
                }
            ),
            key="state_code",
        )
        snowflake_airport = Dimension(
            name="airport",
            table=airport_dim.table,
            key="code",
            foreign_keys=(ForeignKey("state", region_dim),),
        )
        view = denormalize(fact, [ForeignKey("Origin", snowflake_airport)])
        assert "airport.name" in view.columns()  # region.name via airport
        origin = view.categorical("Origin")
        region = view.categorical("airport.name")
        region_of = {"ORD": "midwest", "SFO": "west", "JFK": "east", "AUS": "south"}
        for row in range(100):
            airport = origin.dictionary[origin.codes[row]]
            assert region.dictionary[region.codes[row]] == region_of[airport]


class TestIntegrity:
    def test_missing_key_raises(self):
        fact = Table(
            continuous={"x": np.ones(3)},
            categorical={"fk": ["A", "B", "MISSING"]},
        )
        dim = Dimension(
            name="d",
            table=Table(categorical={"k": ["A", "B"], "attr": ["p", "q"]}),
            key="k",
        )
        with pytest.raises(ValueError, match="no dimension match"):
            denormalize(fact, [ForeignKey("fk", dim)])

    def test_duplicate_dimension_key_raises(self):
        fact = Table(continuous={"x": np.ones(2)}, categorical={"fk": ["A", "A"]})
        dim = Dimension(
            name="d",
            table=Table(categorical={"k": ["A", "A"], "attr": ["p", "q"]}),
            key="k",
        )
        with pytest.raises(ValueError, match="duplicates"):
            denormalize(fact, [ForeignKey("fk", dim)])

    def test_integer_surrogate_keys(self):
        fact = Table(
            continuous={"x": np.array([1.0, 2.0, 3.0]), "fk": np.array([2.0, 0.0, 1.0])},
        )
        dim = Dimension(
            name="d",
            table=Table(
                continuous={"k": np.array([0.0, 1.0, 2.0])},
                categorical={"attr": ["zero", "one", "two"]},
            ),
            key="k",
        )
        view = denormalize(fact, [ForeignKey("fk", dim)])
        attr = view.categorical("d.attr")
        assert attr.decode(attr.codes) == ["two", "zero", "one"]


class TestQueryOverJoinedView:
    def test_group_by_dimension_attribute(self):
        """The extensibility claim end-to-end: AVG over the fact measure
        grouped by a joined dimension attribute, with certified intervals."""
        from repro.api import connect
        from repro.fastframe import (
            AggregateFunction,
            ExactExecutor,
            Query,
            Scramble,
        )
        from repro.stopping import GroupsOrdered

        fact, dimension = _star_schema(rows=60_000, seed=3)
        view = denormalize(fact, [ForeignKey("Origin", dimension)])
        scramble = Scramble(view, rng=np.random.default_rng(4))
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            GroupsOrdered(),
            group_by=("airport.state",),
        )
        conn = connect(scramble, delta=1e-6, max_queries=1, rng=np.random.default_rng(5))
        approx = conn.query(query).result()
        exact = ExactExecutor(scramble).execute(query)
        assert approx.ordering() == exact.ordering()
        for key, group in exact.groups.items():
            interval = approx.groups[key].interval
            slack = 1e-9 * max(1.0, abs(group.estimate))
            assert interval.lo - slack <= group.estimate <= interval.hi + slack

    def test_predicate_on_dimension_attribute(self):
        from repro.api import connect
        from repro.fastframe import AggregateFunction, Query, Scramble
        from repro.stopping import SamplesTaken

        fact, dimension = _star_schema(rows=30_000, seed=6)
        view = denormalize(fact, [ForeignKey("Origin", dimension)])
        scramble = Scramble(view, rng=np.random.default_rng(7))
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            SamplesTaken(4_000),
            predicate=Eq("airport.state", "CA"),
        )
        conn = connect(scramble, delta=1e-6, max_queries=1, rng=np.random.default_rng(8))
        result = conn.query(query).result()
        group = result.scalar()
        values = view.continuous("DepDelay")
        state = view.categorical("airport.state")
        truth = float(values[state.codes == state.code_of("CA")].mean())
        slack = 1e-9 * max(1.0, abs(truth))
        assert group.interval.lo - slack <= truth <= group.interval.hi + slack
