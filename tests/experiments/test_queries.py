"""Tests for the F-q1..F-q9 query catalogue (Figure 5 / Table 4)."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.datasets import airports_by_selectivity
from repro.datasets.queries import FIGURE5_SQL, GROUP_BY_QUERIES, build_query
from repro.fastframe.exact import ExactExecutor
from repro.fastframe.predicate import Compare, Eq
from repro.fastframe.query import AggregateFunction
from repro.stopping.conditions import (
    GroupsOrdered,
    RelativeAccuracy,
    ThresholdSide,
    TopKSeparated,
)
from tests.support import paper_harness


def test_all_nine_queries_defined():
    assert set(FIGURE5_SQL) == {f"F-q{i}" for i in range(1, 10)}


def test_group_by_queries_subset():
    assert set(GROUP_BY_QUERIES) <= set(FIGURE5_SQL)
    for name in GROUP_BY_QUERIES:
        assert build_query(name).group_by, name


def test_build_query_unknown():
    with pytest.raises(KeyError):
        build_query("F-q10")
    with pytest.raises(TypeError, match="airport"):
        build_query("F-q4", airport="SFO")


def test_fq1_stopping_condition():
    """Table 4: F-q1 stops on relative accuracy (Ì)."""
    query = build_query("F-q1", airport="ORD", epsilon=0.25)
    assert isinstance(query.stopping, RelativeAccuracy)
    assert query.stopping.epsilon == 0.25
    assert isinstance(query.predicate, Eq)
    assert query.aggregate is AggregateFunction.AVG


def test_fq2_threshold():
    query = build_query("F-q2", thresh=5.0)
    assert isinstance(query.stopping, ThresholdSide)
    assert query.stopping.threshold == 5.0
    assert query.group_by == ("Airline",)


def test_fq3_bottom_two():
    """Table 4: F-q3 stops when the bottom 2 airlines separate (Î)."""
    query = build_query("F-q3", min_dep_time=1200)
    assert isinstance(query.stopping, TopKSeparated)
    assert query.stopping.k == 2
    assert not query.stopping.largest
    assert isinstance(query.predicate, Compare)
    assert query.predicate.threshold == 1200


def test_fq4_fixed_threshold_ten():
    query = build_query("F-q4")
    assert isinstance(query.stopping, ThresholdSide)
    assert query.stopping.threshold == 10.0
    assert query.group_by == ()


def test_fq5_negative_delay_airports():
    query = build_query("F-q5")
    assert isinstance(query.stopping, ThresholdSide)
    assert query.stopping.threshold == 0.0
    assert query.group_by == ("Origin",)


def test_fq6_top5_two_column_group():
    query = build_query("F-q6")
    assert query.group_by == ("DayOfWeek", "Origin")
    assert isinstance(query.stopping, TopKSeparated)
    assert query.stopping.k == 5


def test_fq7_groups_ordered():
    query = build_query("F-q7")
    assert isinstance(query.stopping, GroupsOrdered)
    assert isinstance(query.predicate, Eq)


def test_fq8_fq9_top1():
    for name, group in (("F-q8", ("Origin",)), ("F-q9", ("Airline",))):
        query = build_query(name)
        assert isinstance(query.stopping, TopKSeparated)
        assert query.stopping.k == 1
        assert query.group_by == group


def test_describe_mentions_pieces():
    text = build_query("F-q2").describe()
    assert "AVG(DepDelay)" in text
    assert "GROUP BY Airline" in text


def test_templates_compile_at_sweep_parameters(small_scramble):
    """Figures 6, 7(b) and 8 fill $airport, $thresh and $min_dep_time
    with every value their sweeps use (fig7b's grid from the same exact
    aggregates ``benchmarks/paper.py`` derives it from)."""
    paper = paper_harness()
    airports = [airport for airport, _ in airports_by_selectivity(small_scramble)]
    for airport in (*airports, "O'Hare"):
        assert build_query("F-q1", airport=airport).predicate.value == airport
    exact = ExactExecutor(small_scramble).execute(build_query("F-q2"))
    top = max(group.estimate for group in exact.groups.values())
    for thresh in np.round(np.linspace(0.0, top + 1.0, 13), 2):
        assert build_query("F-q2", thresh=thresh).stopping.threshold == thresh
    sweep = inspect.signature(paper.sweep_fig8_min_dep_time)
    for min_dep_time in sweep.parameters["min_dep_times"].default:
        query = build_query("F-q3", min_dep_time=min_dep_time)
        assert query.predicate.threshold == min_dep_time
