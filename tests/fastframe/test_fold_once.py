"""Fold each window once: zero-copy contiguous frames, the per-view moment
hand-down into RangeTrim's inner pools, and one partition per distinct
stream in a multi-run scan.

Every piece is a pure saving, so every check here is byte identity
against the path it replaces:

(a) ``update_pool_with_stats`` leaves a ``RangeTrimPool`` equal by
    ``tobytes()`` to ``update_pool`` on the same sorted stream;
(b) the dashboard's runs (plus a duplicate FQ9) give, in one shared scan,
    every round, result and metric they give alone, under both storage
    backends and both drivers, with fewer partitions than runs per window;
(c) contiguous, wrap-around and block-skipping windows materialize the
    same bytes, and nothing a frame or a shared delta hands out can be
    written.

The satellites ride along: value-keyed predicates, ``TruePredicate``
reading no column, and the scalar hand-down per RangeTrim side.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fastframe.executor as executor_module
from repro.api import connect
from repro.bounders.anderson import AndersonBounder
from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.hoeffding import HoeffdingSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.bounders.registry import get_bounder
from repro.datasets.flights import make_flights_scramble
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import QueryRun, scan_driver
from repro.fastframe.predicate import Compare, Eq, TruePredicate
from repro.fastframe.scan import ScanCursor, get_strategy
from repro.fastframe.storage import (
    BlockCache,
    MmapBlockStore,
    attach_block_storage,
    open_block_scramble,
    write_block_store,
)
from repro.fastframe.window import WindowFrame
from repro.sql import parse_query, parse_statements
from repro.stats.streaming import MomentPool, MomentState
from repro.stopping.conditions import RelativeAccuracy
from tests.support import bounder_pool_bytes

# ----------------------------------------------------------------------
# (a) the pool hand-down is byte-identical to update_pool
# ----------------------------------------------------------------------

#: Few distinct values, so ties, all-equal segments and records on one
#: side only are common.
_VALUES = st.sampled_from([-3.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 7.0, 1e6])


@st.composite
def _windows(draw):
    """``(pool size, windows)``: each window a sorted (indices, values)
    stream, as partition_ingest hands it to ``ViewPool.apply_ingest``."""
    size = draw(st.integers(1, 6))
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = draw(
            st.lists(st.tuples(st.integers(0, size - 1), _VALUES), max_size=40)
        )
        order = draw(st.sampled_from(["stream", "ascending", "descending"]))
        if order != "stream":
            # Pre-sorted segments: every element a record on one side.
            pairs.sort(key=lambda pair: pair[1], reverse=order == "descending")
        pairs.sort(key=lambda pair: pair[0])  # stable: ties keep stream order
        indices = np.array([i for i, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.float64)
        windows.append((indices, values))
    return size, windows


def _assert_hand_down_identical(bounder, size, windows):
    direct, handed = bounder.init_pool(size), bounder.init_pool(size)
    for indices, values in windows:
        bounder.update_pool(direct, indices, values)
        stats = MomentPool.batch_stats(indices, values, size)
        bounder.update_pool_with_stats(handed, indices, values, stats)
        assert bounder_pool_bytes(handed) == bounder_pool_bytes(direct)


@pytest.mark.parametrize(
    "inner", [EmpiricalBernsteinSerflingBounder, HoeffdingSerflingBounder]
)
@settings(max_examples=150, deadline=None)
@given(case=_windows())
def test_range_trim_hand_down_matches_update_pool(inner, case):
    _assert_hand_down_identical(RangeTrimBounder(inner()), *case)


@settings(max_examples=40, deadline=None)
@given(case=_windows())
def test_anderson_inner_falls_back_to_update_pool(case):
    _assert_hand_down_identical(RangeTrimBounder(AndersonBounder()), *case)


def test_steady_state_window_hands_down_without_reducing(monkeypatch):
    """A window with no record and no fresh view reduces nothing more."""
    bounder = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
    pool = bounder.init_pool(2)
    bounder.update_pool(pool, np.array([0, 0, 1, 1]), np.array([0.0, 9.0, 0.0, 9.0]))
    indices, values = np.array([0, 0, 1]), np.array([1.0, 2.0, 3.0])
    stats = MomentPool.batch_stats(indices, values, 2)
    calls = []
    original = MomentPool.batch_stats
    monkeypatch.setattr(
        MomentPool, "batch_stats",
        staticmethod(lambda *args: calls.append(args) or original(*args)),
    )
    bounder.update_pool_with_stats(pool, indices, values, stats)
    assert calls == []


@pytest.mark.parametrize("seed", range(20))
def test_scalar_hand_down_per_side(seed):
    """The scalar mirror: a side without a record merges the moments."""
    rng = np.random.default_rng(seed)
    bounder = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
    direct, handed = bounder.init_state(), bounder.init_state()
    for _ in range(5):
        batch = rng.choice([-2.0, 0.0, 1.0, 3.0, 8.0], size=rng.integers(1, 9))
        bounder.update_batch(direct, batch)
        bounder.update_batch_with_moments(
            handed, batch, MomentState.batch_moments(batch)
        )
        for side in ("left", "right"):
            ours, theirs = getattr(handed, side), getattr(direct, side)
            assert (ours.count, ours.mean, ours.m2) == (
                theirs.count, theirs.mean, theirs.m2
            )
        assert handed.extrema == direct.extrema and handed.count == direct.count


# ----------------------------------------------------------------------
# (b) one partition per distinct stream, byte-identical runs
# ----------------------------------------------------------------------

DASHBOARD = "; ".join(
    (
        "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'",
        "SELECT Airline FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 0",
        "SELECT Airline FROM flights WHERE DepTime > 10:50pm "
        "GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2",
        "SELECT (CASE WHEN AVG(DepDelay) > 10 THEN 1 ELSE 0 END) "
        "FROM flights WHERE Origin = 'ORD'",
        "SELECT Origin FROM flights GROUP BY Origin HAVING AVG(DepDelay) < 0",
        "SELECT DayOfWeek, AVG(DepDelay) FROM flights WHERE Airline = 'HP' "
        "GROUP BY DayOfWeek ORDER BY AVG(DepDelay)",
        "SELECT Airline FROM flights GROUP BY Airline "
        "ORDER BY AVG(DepDelay) DESC LIMIT 1",
        "SELECT Airline, COUNT(*) FROM flights GROUP BY Airline",
        "SELECT Airline, MEDIAN(DepDelay) FROM flights GROUP BY Airline",
        # FQ9 again: a duplicate statement shares every stream.
        "SELECT Airline FROM flights GROUP BY Airline "
        "ORDER BY AVG(DepDelay) DESC LIMIT 1",
    )
)
ROWS = 60_000
START_BLOCK = 1_500
DELTA = 1e-9
ROUND_ROWS = 10_000


def _bounder():
    # The anderson-rt CI leg pins the RangeTrim(Anderson) fallback here too.
    return get_bounder(os.environ.get("REPRO_HARNESS_BOUNDER", "").strip() or "bernstein+rt")


def _runs(scramble):
    queries = parse_statements(DASHBOARD, stopping=RelativeAccuracy(0.05))
    return [
        QueryRun(scramble, query, bounder=_bounder(), delta=DELTA,
                 strategy=get_strategy("scan"), round_rows=ROUND_ROWS)
        for query in queries
    ]


def _round_bytes(run) -> bytes:
    columns = run._round_columns
    return b"".join(
        np.asarray(getattr(columns, name)).tobytes()
        for name in ("rows", "lo", "hi", "estimate", "samples", "exhausted")
    )


def _drive(runs, config, solo):
    """Drive ``runs`` to completion; per run, the bytes of every round."""
    cursor = ScanCursor(runs[0].scramble, START_BLOCK, runs[0].window_blocks)
    rounds = [[] for _ in runs]
    seen = [0] * len(runs)
    for _ in scan_driver(runs, cursor, config, solo=solo).windows():
        for position, run in enumerate(runs):
            if run.round_index != seen[position]:
                seen[position] = run.round_index
                rounds[position].append(_round_bytes(run))
    return rounds


def _result_bytes(result) -> tuple:
    groups = tuple(
        (
            repr(key),
            np.float64([
                group.estimate, *group.interval, *group.count_interval
            ]).tobytes(),
            group.samples,
            group.exhausted,
        )
        for key, group in result.groups.items()
    )
    metrics = result.metrics
    return groups, (
        metrics.rows_read, metrics.blocks_fetched, metrics.blocks_skipped,
        metrics.rounds, metrics.bounds_recomputed, metrics.stopped_early,
    )


@pytest.fixture(scope="module")
def flights(tmp_path_factory):
    resident = make_flights_scramble(ROWS, seed=0)
    stored = make_flights_scramble(ROWS, seed=0)
    attach_block_storage(stored, directory=tmp_path_factory.mktemp("store"))
    return {"memory": resident, "mmap": stored}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_shared_runs_match_each_run_alone(flights, storage, parallelism, monkeypatch):
    scramble = flights[storage]
    config = ExecConfig.resolve(parallelism=parallelism, storage=storage)
    partitions = []
    original = executor_module.partition_ingest
    monkeypatch.setattr(
        executor_module, "partition_ingest",
        lambda *args: partitions.append(1) or original(*args),
    )
    frames = []
    original_frame = executor_module.WindowFrame
    monkeypatch.setattr(
        executor_module, "WindowFrame",
        lambda *args, **kwargs: frames.append(1) or original_frame(*args, **kwargs),
    )
    runs = _runs(scramble)
    shared_rounds = _drive(runs, config, solo=False)
    # Far fewer partitions than runs × windows: the three no-WHERE
    # Airline AVG/MEDIAN runs (four with the duplicate) share one, as do
    # the two Origin = 'ORD' runs, and COUNT reuses the Airline indices.
    assert len(partitions) <= (len(runs) - 5) * len(frames)

    monkeypatch.setattr(executor_module, "partition_ingest", original)
    for run, rounds in zip(runs, shared_rounds):
        alone = QueryRun(scramble, run.query, bounder=_bounder(), delta=DELTA,
                         strategy=get_strategy("scan"), round_rows=ROUND_ROWS)
        assert _drive([alone], config, solo=True) == [rounds]
        assert _result_bytes(alone.finalize()) == _result_bytes(
            run.finalize()
        )


def test_solo_scan_builds_no_key(flights):
    run = _runs(flights["memory"])[1]
    cursor = ScanCursor(run.scramble, START_BLOCK, run.window_blocks)
    frames = []
    original = executor_module.WindowFrame

    class Spy(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            frames.append(self)

    executor_module.WindowFrame = Spy
    try:
        for _ in run.drive(cursor, ExecConfig.resolve(parallelism=1)):
            pass
    finally:
        executor_module.WindowFrame = original
    assert frames and all(frame.deltas is None for frame in frames)


def test_shared_delta_is_read_only_and_shared(flights):
    scramble = flights["memory"]
    runs = _runs(scramble)
    fq9, twin = runs[6], runs[9]
    window = np.arange(40, dtype=np.int64)
    mask = np.ones(window.size, dtype=bool)
    frame = WindowFrame(scramble, window, mask, shared=True)
    delta = fq9._shared_delta(frame, mask)
    assert twin._shared_delta(frame, mask.copy()) is delta
    for array in (delta.view_idx, delta.values):
        with pytest.raises(ValueError):
            array[0] = 0
    count = runs[7]._shared_delta(frame, mask)  # Airline, COUNT(*)
    assert count.values is None and count.view_idx is delta.view_idx


# ----------------------------------------------------------------------
# (c) contiguous, wrap-around and block-skipping frames
# ----------------------------------------------------------------------


def _frame_windows(scramble):
    n = scramble.num_blocks
    contiguous = np.arange(10, 74, dtype=np.int64)
    wrap = np.concatenate([np.arange(n - 5, n), np.arange(0, 7)]).astype(np.int64)
    skipping = np.ones(contiguous.size, dtype=bool)
    skipping[3::4] = False
    return [
        (contiguous, np.ones(contiguous.size, dtype=bool)),
        (wrap, np.ones(wrap.size, dtype=bool)),
        (contiguous, skipping),
        (np.array([n - 1], dtype=np.int64), np.ones(1, dtype=bool)),  # short
    ]


@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_frames_match_the_row_gather(flights, storage):
    scramble = flights[storage]
    values = scramble.column_values("DepDelay")
    predicate = Eq("Origin", "ORD")
    group_by = ("Origin",)
    for window, mask in _frame_windows(scramble):
        frame = WindowFrame(scramble, window, mask)
        rows = scramble.rows_of_blocks(window[mask])
        np.testing.assert_array_equal(frame.rows, rows)
        assert frame.n_rows == rows.size
        gathered = frame.values(("column", "DepDelay"), lambda key: values[key])
        assert gathered.tobytes() == values[rows].tobytes()
        assert frame.values_gathered == rows.size
        codes = frame.combined_codes(
            group_by, lambda key: scramble.combined_codes(group_by, key)
        )
        assert codes.tobytes() == scramble.combined_codes(group_by, rows).tobytes()
        assert (
            frame.predicate_mask(predicate).tobytes()
            == predicate.mask(scramble.table, rows).tobytes()
        )
        for array in (gathered, codes, frame.predicate_mask(predicate)):
            with pytest.raises(ValueError):
                array[0] = array[0]


def test_contiguous_frame_reads_as_a_slice(flights):
    scramble = flights["memory"]
    window, mask = _frame_windows(scramble)[0]
    frame = WindowFrame(scramble, window, mask)
    assert isinstance(frame.row_key, slice)
    column = scramble.column_values("DepDelay")
    gathered = frame.values(("column", "DepDelay"), lambda key: column[key])
    assert np.shares_memory(gathered, column)  # zero-copy view
    assert column.flags.writeable  # the table's own column is untouched
    for window, mask in _frame_windows(scramble)[1:3]:
        assert not isinstance(WindowFrame(scramble, window, mask).row_key, slice)


def test_block_store_slice_matches_index_gather(tmp_path):
    scramble = make_flights_scramble(20_000, seed=1)
    write_block_store(tmp_path, scramble, block_rows=1_000)
    by_slice = MmapBlockStore(tmp_path, cache=BlockCache(1 << 24))
    by_index = MmapBlockStore(tmp_path, cache=BlockCache(1 << 24))
    for start, stop in [(0, 1), (250, 4_321), (999, 1_001), (18_500, 20_000), (7, 7)]:
        sliced = by_slice.continuous("DepDelay")[start:stop]
        indexed = by_index.continuous("DepDelay")[np.arange(start, stop)]
        assert sliced.tobytes() == indexed.tobytes()
        assert sliced.dtype == indexed.dtype
    assert by_slice.stats == by_index.stats


# ----------------------------------------------------------------------
# Satellites
# ----------------------------------------------------------------------


def test_equal_predicates_share_one_mask(flights):
    scramble = flights["memory"]
    window = np.arange(0, 32, dtype=np.int64)
    frame = WindowFrame(scramble, window, np.ones(window.size, dtype=bool))
    fq1 = parse_query(
        "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'",
        stopping=RelativeAccuracy(0.05),
    )
    fq4 = parse_query(
        "SELECT (CASE WHEN AVG(DepDelay) > 10 THEN 1 ELSE 0 END) "
        "FROM flights WHERE Origin = 'ORD'"
    )
    assert fq1.predicate is not fq4.predicate
    assert frame.predicate_mask(fq1.predicate) is frame.predicate_mask(fq4.predicate)
    assert frame.predicate_mask(TruePredicate()) is frame.predicate_mask(TruePredicate())

    early = parse_query(
        "SELECT AVG(DepDelay) FROM flights WHERE DepTime > 1:50pm",
        stopping=RelativeAccuracy(0.05),
    ).predicate
    late = parse_query(
        "SELECT AVG(DepDelay) FROM flights WHERE DepTime > 10:50pm",
        stopping=RelativeAccuracy(0.05),
    ).predicate
    assert early != late
    assert frame.predicate_mask(early) is not frame.predicate_mask(late)
    assert Eq("Origin", "HP") != Eq("Airline", "HP")
    assert frame.predicate_mask(Eq("Origin", "ORD")) is not frame.predicate_mask(
        Eq("Airline", "HP")
    )
    assert Compare("DepTime", ">", 5.0) != Compare("DepTime", ">=", 5.0)
    assert {Eq("Origin", "ORD"), Eq("Origin", "ORD") & TruePredicate()} == {
        Eq("Origin", "ORD"), Eq("Origin", "ORD") & TruePredicate()
    }


def test_count_query_reads_no_value_column(tmp_path):
    write_block_store(tmp_path, make_flights_scramble(200_000, seed=0))
    scramble = open_block_scramble(tmp_path, cache_bytes=1 << 26)
    try:
        store = scramble.storage
        conn = connect(scramble, bounder="bernstein+rt", max_queries=2)
        # Load-time metadata (combined codes, bitmaps) reads Airline codes.
        text = "SELECT Airline, COUNT(*) FROM flights GROUP BY Airline"
        stopping = RelativeAccuracy(0.02)
        conn.sql(text, stopping=stopping).rounds(0)
        read = []
        original = store._open_block
        store._open_block = lambda name, block_id: read.append(name) or original(
            name, block_id
        )
        conn.sql(text, stopping=stopping).result(start_block=0)
        assert not set(read) & set(store.continuous_columns())
    finally:
        scramble.storage.close()
