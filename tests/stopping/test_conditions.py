"""Tests for stopping conditions Ê-Ï and their active-group rules (§4.2-4.3)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import connect
from repro.bounders.base import Interval
from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import ScanCursor
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    GroupsOrdered,
    GroupSnapshot,
    RelativeAccuracy,
    SamplesTaken,
    SnapshotColumns,
    StoppingCondition,
    ThresholdSide,
    TopKSeparated,
    relative_error,
)
from tests.support import RUN_CLASSES, forced_engine


def snap(lo, hi, estimate=None, samples=100, exhausted=False):
    interval = Interval(lo, hi)
    if estimate is None:
        estimate = interval.midpoint
    return GroupSnapshot(
        interval=interval, estimate=estimate, samples=samples, exhausted=exhausted
    )


def columns_of(groups) -> SnapshotColumns:
    """``SnapshotColumns`` over a ``{key: snap(...)}`` dict, rows in key order."""
    snaps = list(groups.values())
    return SnapshotColumns(
        rows=np.arange(len(snaps)),
        lo=np.array([s.interval.lo for s in snaps], dtype=np.float64),
        hi=np.array([s.interval.hi for s in snaps], dtype=np.float64),
        estimate=np.array([s.estimate for s in snaps], dtype=np.float64),
        samples=np.array([s.samples for s in snaps], dtype=np.int64),
        exhausted=np.array([s.exhausted for s in snaps], dtype=bool),
    )


def active_keys(cond, groups) -> set:
    """The keys whose rows ``cond.active_mask`` marks active."""
    keys = list(groups)
    return {keys[row] for row in np.flatnonzero(cond.active_mask(columns_of(groups)))}


def satisfied(cond, groups) -> bool:
    return cond.satisfied_columns(columns_of(groups))


class TestRelativeError:
    def test_matches_paper_statistic(self):
        """max{(g_r − ĝ)/g_r, (ĝ − g_l)/g_l} (Table 4 / condition Ì)."""
        interval, est = Interval(8.0, 12.0), 10.0
        assert relative_error(interval, est) == pytest.approx(
            max((12 - 10) / 12, (10 - 8) / 8)
        )

    def test_infinite_when_straddling_zero(self):
        assert relative_error(Interval(-1, 1), 0.0) == math.inf

    def test_negative_interval_finite(self):
        assert math.isfinite(relative_error(Interval(-12, -8), -10.0))


#: A NaN ε or m would make every group inactive, a fractional or boolean
#: count be truncated or read as 1, an infinite one overflow: all fail
#: at construction.
REJECTED = [
    (SamplesTaken, math.nan), (SamplesTaken, math.inf), (SamplesTaken, 1.5),
    (SamplesTaken, True), (SamplesTaken, 0), (SamplesTaken, "10"),
    (TopKSeparated, 1.5), (TopKSeparated, True), (TopKSeparated, 0),
    (AbsoluteAccuracy, math.nan), (AbsoluteAccuracy, -1.0),
    (RelativeAccuracy, math.nan), (RelativeAccuracy, 0.0), (ThresholdSide, math.nan),
]
ACCEPTED = [
    (SamplesTaken, 10_000), (SamplesTaken, np.int64(5)), (TopKSeparated, np.int32(2)),
    (AbsoluteAccuracy, math.inf), (ThresholdSide, 0), (ThresholdSide, -math.inf),
]


def _case_ids(cases):
    return [f"{make.__name__}-{value!r}" for make, value in cases]


@pytest.mark.parametrize("make,value", REJECTED, ids=_case_ids(REJECTED))
def test_bad_parameter_rejected(make, value):
    with pytest.raises(ValueError):
        make(value)


@pytest.mark.parametrize("make,value", ACCEPTED, ids=_case_ids(ACCEPTED))
def test_good_parameter_accepted(make, value):
    make(value)


class TestSamplesTaken:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            SamplesTaken(0)

    def test_active_until_m_reached(self):
        cond = SamplesTaken(100)
        groups = {"a": snap(0, 1, samples=50), "b": snap(0, 1, samples=150)}
        assert active_keys(cond, groups) == {"a"}
        assert not satisfied(cond, groups)

    def test_satisfied_when_all_reach_m(self):
        cond = SamplesTaken(100)
        groups = {"a": snap(0, 1, samples=100)}
        assert satisfied(cond, groups)

    def test_exhausted_groups_never_active(self):
        cond = SamplesTaken(100)
        groups = {"a": snap(0, 1, samples=10, exhausted=True)}
        assert satisfied(cond, groups)


class TestAbsoluteAccuracy:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            AbsoluteAccuracy(0.0)

    def test_active_while_wide(self):
        cond = AbsoluteAccuracy(1.0)
        groups = {"wide": snap(0, 5), "narrow": snap(0, 0.5)}
        assert active_keys(cond, groups) == {"wide"}

    def test_boundary_width_still_active(self):
        """Width == ε does not satisfy the strict < of condition Ë."""
        cond = AbsoluteAccuracy(1.0)
        assert active_keys(cond, {"g": snap(0, 1.0)}) == {"g"}


class TestRelativeAccuracy:
    def test_active_by_relative_width(self):
        cond = RelativeAccuracy(0.5)
        groups = {
            "tight": snap(9, 11, estimate=10),
            "loose": snap(1, 30, estimate=10),
        }
        assert active_keys(cond, groups) == {"loose"}

    def test_zero_straddling_never_satisfies(self):
        cond = RelativeAccuracy(10.0)
        assert active_keys(cond, {"g": snap(-1, 1, estimate=0)}) == {"g"}


class TestThresholdSide:
    def test_active_while_threshold_inside(self):
        cond = ThresholdSide(0.0)
        groups = {
            "above": snap(1, 3),
            "below": snap(-3, -1),
            "unknown": snap(-1, 1),
        }
        assert active_keys(cond, groups) == {"unknown"}
        assert not satisfied(cond, groups)

    def test_satisfied_when_all_sides_determined(self):
        cond = ThresholdSide(5.0)
        groups = {"a": snap(6, 8), "b": snap(0, 4)}
        assert satisfied(cond, groups)

    def test_threshold_on_boundary_is_active(self):
        """Closed intervals: v ∈ [g_l, g_r] includes the endpoints."""
        cond = ThresholdSide(3.0)
        assert active_keys(cond, {"g": snap(3.0, 5.0)}) == {"g"}


class TestTopKSeparated:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopKSeparated(0)

    def test_trivially_satisfied_with_few_groups(self):
        cond = TopKSeparated(5)
        groups = {"a": snap(0, 10), "b": snap(0, 10)}
        assert satisfied(cond, groups)
        assert active_keys(cond, groups) == set()

    def test_separated_top1(self):
        cond = TopKSeparated(1)
        groups = {
            "winner": snap(10, 12),
            "mid": snap(5, 8),
            "low": snap(0, 3),
        }
        assert satisfied(cond, groups)

    def test_not_separated_when_overlapping(self):
        cond = TopKSeparated(1)
        groups = {"winner": snap(8, 12), "rival": snap(7, 9)}
        assert not satisfied(cond, groups)

    def test_active_groups_use_midpoint_rule(self):
        """§4.3 Î: active iff the inner bound crosses the midpoint between
        the K-th and (K+1)-th ranked estimates."""
        cond = TopKSeparated(1)
        groups = {
            "top": snap(6, 14, estimate=10),   # lo 6 < midpoint 7.5 -> active
            "second": snap(2, 7, estimate=5),  # hi 7 < 7.5? no: 7 <= 7.5 -> not crossing
            "third": snap(0, 8, estimate=4),   # hi 8 >= 7.5 -> active
        }
        active = active_keys(cond, groups)
        assert "top" in active
        assert "third" in active
        assert "second" not in active

    def test_bottom_k_mirrors(self):
        cond = TopKSeparated(1, largest=False)
        groups = {
            "best": snap(0, 2, estimate=1),
            "rest": snap(5, 9, estimate=7),
        }
        assert satisfied(cond, groups)

    def test_bottom_k_active_rule(self):
        cond = TopKSeparated(1, largest=False)
        groups = {
            "best": snap(0, 5, estimate=2),    # hi 5 >= midpoint 4 -> active
            "other": snap(3, 9, estimate=6),   # lo 3 <= 4 -> active
            "far": snap(8, 10, estimate=9),    # lo 8 > 4 -> inactive
        }
        active = active_keys(cond, groups)
        assert active == {"best", "other"}


class TestTopKDominance:
    """Dominance termination and early retirement for condition Î."""

    def test_dominated_rest_group_retires_immediately(self):
        """A rest view whose upper bound sits below K lower bounds stops
        sampling even though the midpoint rule would keep it active."""
        cond = TopKSeparated(2)
        groups = {
            "a": snap(9.5, 12.0, estimate=11.0),
            "b": snap(9.0, 11.5, estimate=10.0),
            "d": snap(3.0, 9.2, estimate=6.0),   # hi 9.2 >= bar 9.0 -> live
            "c": snap(2.0, 8.5, estimate=5.0),   # hi 8.5 >= midpoint 8.0
        }
        # midpoint between 2nd and 3rd estimates is 8.0, so the old rule
        # would keep "c" active; dominance (8.5 < 2nd-largest lo = 9.0)
        # retires it now.
        assert not satisfied(cond, groups)
        active = active_keys(cond, groups)
        assert "c" not in active
        assert "d" in active

    def test_satisfied_with_overlapping_leaders(self):
        """Leaders may still overlap each other: only the rest must be
        certifiably outside the selection."""
        cond = TopKSeparated(2)
        groups = {
            "a": snap(9.5, 12.0, estimate=11.0),
            "b": snap(9.0, 11.5, estimate=10.0),
            "c": snap(2.0, 8.5, estimate=5.0),
        }
        assert satisfied(cond, groups)
        assert active_keys(cond, groups) == set()

    def test_bottom_k_retirement_mirrors(self):
        cond = TopKSeparated(2, largest=False)
        groups = {
            "a": snap(-12.0, -9.5, estimate=-11.0),
            "b": snap(-11.5, -9.0, estimate=-10.0),
            "d": snap(-9.2, -3.0, estimate=-6.0),
            "c": snap(-8.5, -2.0, estimate=-5.0),
        }
        assert not satisfied(cond, groups)
        active = active_keys(cond, groups)
        assert "c" not in active
        assert "d" in active

    def test_full_separation_still_satisfies(self):
        """The classic full-separation certificate implies dominance, so
        the new test never fires later than the old one."""
        cond = TopKSeparated(2)
        groups = {
            "a": snap(10.0, 12.0),
            "b": snap(8.0, 9.5),
            "c": snap(0.0, 7.0),
            "d": snap(1.0, 6.0),
        }
        assert satisfied(cond, groups)


class TestTopKTieParity:
    """Condition Î ranks groups with one stable rule, so tie-heavy
    snapshots partition by row order."""

    def test_tie_heavy_partition_matches_ranked_order(self):
        rng = np.random.default_rng(17)
        # Estimates drawn from 4 distinct values over 12 groups: ties
        # everywhere.  Ranking must be stable on row order, as Python's
        # sorted() is.
        estimates = rng.choice([1.0, 2.0, 2.0, 5.0], size=12)
        for largest in (True, False):
            order = TopKSeparated(3, largest=largest)._ranked_order(estimates)
            expected = sorted(
                range(12), key=lambda row: -estimates[row] if largest else estimates[row]
            )
            assert order.tolist() == expected


class TestGroupsOrdered:
    def test_satisfied_when_disjoint(self):
        cond = GroupsOrdered()
        groups = {"a": snap(0, 1), "b": snap(2, 3), "c": snap(4, 5)}
        assert satisfied(cond, groups)
        assert active_keys(cond, groups) == set()

    def test_overlapping_pair_active(self):
        cond = GroupsOrdered()
        groups = {"a": snap(0, 2), "b": snap(1, 3), "c": snap(10, 11)}
        assert active_keys(cond, groups) == {"a", "b"}

    def test_containment_counts_as_overlap(self):
        cond = GroupsOrdered()
        groups = {"big": snap(0, 10), "inner": snap(4, 5), "out": snap(20, 21)}
        assert active_keys(cond, groups) == {"big", "inner"}

    def test_non_adjacent_overlap_detected(self):
        """A wide interval overlapping a far one must be caught even when
        the between-neighbour intervals do not overlap it... (exact
        all-pairs semantics via rank counting)."""
        cond = GroupsOrdered()
        groups = {
            "wide": snap(0, 100),
            "near": snap(1, 2),
            "far": snap(50, 60),
        }
        assert active_keys(cond, groups) == {"wide", "near", "far"}

    def test_touching_intervals_overlap(self):
        cond = GroupsOrdered()
        groups = {"a": snap(0, 1), "b": snap(1, 2)}
        assert active_keys(cond, groups) == {"a", "b"}

    def test_single_group_trivially_ordered(self):
        cond = GroupsOrdered()
        assert satisfied(cond, {"only": snap(0, 100)})

    def test_exhausted_groups_not_reported_active(self):
        cond = GroupsOrdered()
        groups = {
            "done": snap(0, 2, exhausted=True),
            "live": snap(1, 3),
        }
        assert active_keys(cond, groups) == {"live"}
        # but the overlap still prevents satisfaction
        assert not satisfied(cond, groups)


class UntilSamples(StoppingCondition):
    """A custom condition implementing only the one abstract method: a
    group is active until it holds ``m`` samples, exhausted or not."""

    def __init__(self, m: int) -> None:
        self.m = m

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        return columns.samples < self.m


@pytest.fixture(scope="module")
def small_scramble():
    rng = np.random.default_rng(3)
    n = 12_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={"g": rng.integers(0, 6, n).astype(str)},
        range_pad=0.1,
    )
    # 5-row blocks: 5 120-row windows, so the scan takes several rounds.
    return Scramble(table, block_size=5, rng=np.random.default_rng(4))


class TestCustomCondition:
    START_BLOCK = 7

    @pytest.mark.parametrize("m", [1_500, 10**9])
    def test_both_engines_run_it_and_agree(self, small_scramble, m):
        outcomes = {}
        for engine in ("scalar", "pool"):
            conn = connect(
                small_scramble,
                delta=1e-6,
                max_queries=1,
                strategy="activesync",
                rng=np.random.default_rng(0),
                round_rows=2_000,
            )
            handle = conn.table().group_by("g").avg("x", stopping=UntilSamples(m))
            with forced_engine(engine):
                updates = handle.rounds(self.START_BLOCK)
            rounds = [update.groups for update in updates]
            outcomes[engine] = rounds, handle.result()
        (scalar_rounds, scalar), (pool_rounds, pool) = outcomes.values()
        assert len(scalar_rounds) == len(pool_rounds) > 1
        for left, right in zip(scalar_rounds, pool_rounds):
            assert left.keys() == right.keys()
            for key, snapshot in left.items():
                np.testing.assert_allclose(
                    snapshot.interval, right[key].interval, rtol=1e-9, atol=1e-9
                )
                assert snapshot.exhausted == right[key].exhausted
        assert scalar.metrics.rows_read == pool.metrics.rows_read
        assert scalar.groups.keys() == pool.groups.keys()
        for key, group in scalar.groups.items():
            np.testing.assert_allclose(
                group.interval, pool.groups[key].interval, rtol=1e-9, atol=1e-9
            )
            assert group.exhausted == pool.groups[key].exhausted == (m == 10**9)

    @pytest.mark.parametrize("engine", ["scalar", "pool"])
    def test_exhausted_views_are_never_active(self, small_scramble, engine):
        query = Query(AggregateFunction.AVG, "x", UntilSamples(10**9), group_by=("g",))
        run = RUN_CLASSES[engine](
            small_scramble,
            query,
            bounder=get_bounder("bernstein+rt"),
            delta=1e-6,
            round_rows=2_000,
        )
        cursor = ScanCursor(small_scramble, self.START_BLOCK, run.window_blocks)
        for _ in run.drive(cursor, ExecConfig.resolve()):
            pass
        assert all(group.exhausted for group in run.finalize().groups.values())
        # The condition still calls every group active; the run must not.
        run._refresh_active()
        assert not run.active_views().any()
