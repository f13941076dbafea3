"""Progressive-round snapshots: ``RoundUpdate.groups`` is a lazy, read-only
mapping over one round's columns, so reading it late must give what
reading it during the round gave; the decoded group keys it shares with
the final result are cached per scramble and must follow an insert."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pytest

from repro.api import connect
from repro.datasets import make_flights_scramble
from repro.fastframe import ExactExecutor
from repro.stopping import RelativeAccuracy
from tests.support import forced_engine

#: Below one window's rows, so every window of a 60k-row scan ends a
#: round (three rounds instead of the default cadence's two).
ROUND_ROWS = 5_000
START_BLOCK = 3

FQ6 = (
    "SELECT DayOfWeek, Origin FROM flights WHERE DepTime > 1:50pm "
    "GROUP BY DayOfWeek, Origin ORDER BY AVG(DepDelay) DESC LIMIT 5"
)

#: One statement per engine and pool family: 10 views (scalar engine
#: by the view-count choice), 200 views (moment pool), the CSR quantile pool,
#: and FQ6's 1 400 views.
STATEMENTS = {
    "airline-avg": "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline",
    "origin-avg": "SELECT Origin, AVG(DepDelay) FROM flights GROUP BY Origin",
    "origin-median": "SELECT Origin, MEDIAN(DepDelay) FROM flights GROUP BY Origin",
    "fq6": FQ6,
}


def _handle(scramble, text, **kwargs):
    conn = connect(
        scramble,
        delta=1e-6,
        round_rows=ROUND_ROWS,
        rng=np.random.default_rng(0),
        **kwargs,
    )
    return conn.sql(text, stopping=RelativeAccuracy(0.001))


def _plain_types(record, fields: dict) -> None:
    for name, kind in fields.items():
        value = getattr(record, name)
        assert type(value) is kind, (name, type(value))


class TestSnapshotIsolation:
    @pytest.mark.parametrize("text", STATEMENTS.values(), ids=STATEMENTS.keys())
    def test_late_read_equals_read_during_the_round(self, small_scramble, text):
        during = [
            dict(update.groups)
            for update in _handle(small_scramble, text).rounds(START_BLOCK)
        ]

        handle = _handle(small_scramble, text)
        kept = list(handle.rounds(START_BLOCK))
        handle.result()

        assert len(kept) == len(during) > 2
        # The stream moves: a snapshot aliasing live state would read the
        # last round's intervals in every update.
        assert during[0] != during[-1]
        for update, expected in zip(kept, during):
            assert update.groups == expected
            assert list(update.groups.items()) == list(expected.items())

    def test_mapping_contract(self, small_scramble):
        handle = _handle(small_scramble, STATEMENTS["origin-avg"])
        groups = list(handle.rounds(START_BLOCK))[0].groups
        plain = dict(groups)

        assert isinstance(groups, Mapping)
        assert len(groups) == len(plain) == groups.columns.size > 1
        assert list(groups) == list(plain)
        assert groups == plain
        key = next(iter(plain))
        assert key in groups
        assert groups.get(key) == plain[key]
        assert ("no such origin",) not in groups
        assert groups.get(("no such origin",)) is None
        assert [s.interval.lo for s in groups.values()] == groups.columns.lo.tolist()
        with pytest.raises(ValueError):
            groups.columns.lo[0] = 0.0
        with pytest.raises(TypeError):
            groups[key] = plain[key]


class TestKeyCacheFollowsInsert:
    @pytest.mark.parametrize("group_by", ["Origin", "DayOfWeek, Origin"])
    def test_new_origin_is_reported_and_covered(self, group_by):
        scramble = make_flights_scramble(rows=20_000, seed=5)
        text = f"SELECT {group_by}, AVG(DepDelay) FROM flights GROUP BY {group_by}"
        # Fill the metadata cache (domain and decoded keys) before the insert.
        before = _handle(scramble, text).result(START_BLOCK)
        assert ("ZZZ",) not in {key[-1:] for key in before.groups}

        table = scramble.table
        added = 300
        rng = np.random.default_rng(9)
        scramble.insert_rows(
            continuous={
                "DepDelay": rng.uniform(0.0, 30.0, added),
                "DepTime": rng.uniform(600.0, 1200.0, added),
            },
            categorical={
                "Origin": ["ZZZ"] * added,
                "Airline": [table.categorical("Airline").dictionary[0]] * added,
                "DayOfWeek": [table.categorical("DayOfWeek").dictionary[0]] * added,
            },
            rng=rng,
        )

        handle = _handle(scramble, text)
        exact = ExactExecutor(scramble).execute(handle.query).groups
        by_result = handle.result(START_BLOCK).groups
        streamed = _handle(scramble, text)
        *_, last = streamed.rounds(START_BLOCK)

        for groups in (by_result, last.groups, streamed.result().groups):
            assert set(groups) == set(exact)
            assert any(key[-1] == "ZZZ" for key in groups)
            for key, truth in exact.items():
                interval = groups[key].interval
                assert interval.lo - 1e-9 <= truth.estimate <= interval.hi + 1e-9, key


class TestPlainPythonTypes:
    @pytest.mark.parametrize("engine", ["scalar", "pool"])
    @pytest.mark.parametrize(
        "aggregate", ["AVG(DepDelay)", "SUM(DepDelay)", "COUNT(*)", "MEDIAN(DepDelay)"]
    )
    def test_result_and_snapshot_fields(self, small_scramble, engine, aggregate):
        text = f"SELECT Airline, {aggregate} FROM flights GROUP BY Airline"
        handle = _handle(small_scramble, text)
        with forced_engine(engine):
            updates = list(handle.rounds(START_BLOCK))
        result = handle.result()

        scalars = {"estimate": float, "samples": int, "exhausted": bool}
        for update in updates:
            for snapshot in update.groups.values():
                _plain_types(snapshot, scalars)
                _plain_types(snapshot.interval, {"lo": float, "hi": float})
        for key, group in result.groups.items():
            assert type(key) is tuple and all(type(part) is str for part in key)
            _plain_types(group, scalars)
            _plain_types(group.interval, {"lo": float, "hi": float})
            _plain_types(group.count_interval, {"lo": float, "hi": float})
