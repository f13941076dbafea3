"""Out-of-core block storage: parity, caching, crash safety.

The storage layer's contract is strict: routing gathers through an
mmap-backed block store must leave every query result — estimates,
certified intervals, sample counts, δ spend — byte-identical to resident
in-memory execution, at any parallelism, because the store
serves the *same bytes* (float64/int32 round-trip exactly through the
block files).  These tests pin that contract plus the cache accounting
and the failure modes of partial or vanishing block files.
"""

from __future__ import annotations

import json
import os
import shutil
import threading

import numpy as np
import pytest

import repro
from repro.datasets import make_flights_scramble, write_synthetic_block_store
from repro.fastframe.catalog import RangeBounds
from repro.fastframe.query import StorageCounters
from repro.fastframe.scramble import Scramble
from repro.fastframe.storage import (
    BlockCache,
    BlockStoreError,
    MmapBlockStore,
    attach_block_storage,
    open_block_scramble,
    open_block_store,
    write_block_store,
)
from repro.fastframe.table import Table
from repro.stopping import SamplesTaken
from tests.support import forced_engine

ROWS = 20_000

DASHBOARD_SQL = (
    "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline;"
    "SELECT Origin, AVG(DepDelay) FROM flights WHERE Airline = 'UA' "
    "GROUP BY Origin;"
    "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'"
)


def _scramble(rows: int = ROWS) -> Scramble:
    return make_flights_scramble(rows=rows, seed=3)


def _run_dashboard(scramble, *, start_block=9, **connect_kwargs):
    conn = repro.connect(
        scramble,
        delta=1e-6,
        rng=np.random.default_rng(17),
        **connect_kwargs,
    )
    handles = conn.sql(DASHBOARD_SQL, stopping=SamplesTaken(6_000))
    return conn.gather(handles, start_block=start_block)


def _assert_identical(batch_a, batch_b) -> None:
    """Every estimate, interval bound, sample count, and δ must match
    exactly — not approximately."""
    assert len(batch_a.results) == len(batch_b.results)
    for r_a, r_b in zip(batch_a.results, batch_b.results):
        assert r_a.delta == r_b.delta
        assert set(r_a.groups) == set(r_b.groups)
        for key in r_a.groups:
            g_a, g_b = r_a.groups[key], r_b.groups[key]
            assert g_a.estimate == g_b.estimate
            assert g_a.interval.lo == g_b.interval.lo
            assert g_a.interval.hi == g_b.interval.hi
            assert g_a.samples == g_b.samples


# ----------------------------------------------------------------------
# Round-trip fidelity of the block files themselves
# ----------------------------------------------------------------------


def test_block_store_round_trips_exact_bytes(tmp_path):
    scramble = _scramble(rows=5_000)
    write_block_store(tmp_path, scramble, block_rows=512)
    store = MmapBlockStore(tmp_path, cache=BlockCache(1 << 20))
    try:
        for name in store.continuous_columns():
            disk = store.continuous(name)[np.arange(store.num_rows)]
            np.testing.assert_array_equal(
                disk.view(np.uint64),
                scramble.table.continuous(name).view(np.uint64),
            )
        for name in store.categorical_columns():
            column = scramble.table.categorical(name)
            disk = store.codes(name)[np.arange(store.num_rows)]
            np.testing.assert_array_equal(disk, column.codes)
            assert store.dictionary(name) == column.dictionary
    finally:
        store.close()


def test_dictionary_sidecar_preserves_value_types(tmp_path):
    table = Table()
    table.add_continuous("x", np.arange(6, dtype=np.float64))
    table.add_categorical("mixed", [1, 2.5, "three", 1, 2.5, "three"])
    scramble = Scramble(table, block_size=2, rng=np.random.default_rng(0))
    write_block_store(tmp_path, scramble, block_rows=4)
    store = MmapBlockStore(tmp_path, cache=BlockCache(1 << 20))
    try:
        loaded = store.dictionary("mixed")
        assert loaded == scramble.table.categorical("mixed").dictionary
        assert [type(v) for v in loaded] == [
            type(v) for v in scramble.table.categorical("mixed").dictionary
        ]
    finally:
        store.close()


def test_blocked_column_matches_fancy_indexing(tmp_path):
    scramble = _scramble(rows=3_000)
    write_block_store(tmp_path, scramble, block_rows=256)
    store = MmapBlockStore(tmp_path, cache=BlockCache(1 << 20))
    try:
        rng = np.random.default_rng(5)
        resident = scramble.table.continuous("DepDelay")
        column = store.continuous("DepDelay")
        for rows in (
            rng.integers(scramble.num_rows, size=777),
            np.arange(100, 612),  # contiguous, crossing block boundaries
            np.array([], dtype=np.int64),
            np.array([scramble.num_rows - 1]),
        ):
            np.testing.assert_array_equal(column[rows], resident[rows])
        # Whole-column protocols used by predicates on the full-mode path.
        np.testing.assert_array_equal(np.asarray(column), resident)
        assert "DepDelay" in store.stats.materialized_columns
    finally:
        store.close()


@pytest.mark.parametrize(
    "rows_of",
    [
        lambda n: [-1],
        lambda n: [0, -1, -n, 7],
        lambda n: [n],
        lambda n: [-n - 1],
        lambda n: [5, n, 7],
    ],
    ids=["last", "negative-wrap", "n", "below-minus-n", "n-among-valid"],
)
def test_blocked_column_indexes_like_the_resident_array(tmp_path, rows_of):
    scramble = _scramble(rows=3_000)
    write_block_store(tmp_path, scramble, block_rows=256)
    store = MmapBlockStore(tmp_path, cache=BlockCache(1 << 20))
    try:
        resident = scramble.table.continuous("DepDelay")
        rows = np.array(rows_of(resident.size))
        try:
            expected = resident[rows]
        except IndexError:
            with pytest.raises(IndexError, match="out of range"):
                store.continuous("DepDelay")[rows]
        else:
            np.testing.assert_array_equal(store.continuous("DepDelay")[rows], expected)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Byte-identical execution parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("parallelism", [1, 2])
def test_attached_mmap_matches_memory(parallelism):
    baseline = _run_dashboard(_scramble(), storage="memory", parallelism=1)
    scramble = _scramble()
    batch = _run_dashboard(scramble, storage="mmap", parallelism=parallelism)
    assert scramble.storage is not None
    _assert_identical(baseline, batch)
    counters = batch.metrics.storage_snapshot()
    assert counters  # block I/O happened and was charged to the batch
    assert counters.bytes_read > 0


@pytest.mark.parametrize("engine", ["scalar", "pool"])
def test_engine_parity_under_mmap(engine):
    with forced_engine(engine):
        baseline = _run_dashboard(_scramble(), storage="memory")
        batch = _run_dashboard(_scramble(), storage="mmap")
    _assert_identical(baseline, batch)


def test_open_block_scramble_matches_memory(tmp_path):
    baseline = _run_dashboard(_scramble(), storage="memory")
    resident = _scramble()
    write_block_store(tmp_path, resident, block_rows=2_048)
    scramble = open_block_scramble(tmp_path)
    try:
        batch = _run_dashboard(scramble)
        _assert_identical(baseline, batch)
    finally:
        scramble.storage.close()


def test_storage_counters_identical_across_parallelism():
    """Main-process block I/O accounting is deterministic: the parallel
    driver charges exactly what the serial loop does."""
    serial = _run_dashboard(_scramble(), storage="mmap", parallelism=1)
    parallel = _run_dashboard(_scramble(), storage="mmap", parallelism=2)
    assert serial.metrics.storage_snapshot() == parallel.metrics.storage_snapshot()


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------


def test_cache_smaller_than_dataset_evicts_but_stays_exact(tmp_path):
    baseline = _run_dashboard(_scramble(), storage="memory")
    resident = _scramble()
    write_block_store(tmp_path, resident, block_rows=1_024)
    # Room for ~3 blocks of one float64 column: far below the dataset.
    scramble = open_block_scramble(tmp_path, cache_bytes=3 * 1_024 * 8)
    try:
        batch = _run_dashboard(scramble)
        _assert_identical(baseline, batch)
        assert scramble.storage.stats.cache_evictions > 0
    finally:
        scramble.storage.close()


def test_connections_share_store_and_cache(tmp_path):
    """The cross-connection amortization: a second connection over the
    same block directory hits the blocks the first already paid for."""
    resident = _scramble()
    write_block_store(tmp_path, resident, block_rows=2_048)
    scramble = open_block_scramble(tmp_path)
    try:
        store = scramble.storage
        assert open_block_store(tmp_path) is store
        _run_dashboard(scramble)
        cold_reads = store.stats.blocks_read
        cold_bytes = store.stats.bytes_read
        assert cold_bytes > 0
        # Second connection, same directory: demand hits come from cache.
        _run_dashboard(open_block_scramble(tmp_path))
        warm_bytes = store.stats.bytes_read - cold_bytes
        assert store.stats.blocks_read == cold_reads  # no new block I/O
        assert warm_bytes == 0
        assert store.stats.cache_hits > 0
    finally:
        scramble.storage.close()


def test_cache_budget_is_enforced():
    cache = BlockCache(100)
    a = np.zeros(10, dtype=np.float64)
    assert cache.put(("s", "c", 0), a, 80) == 0
    assert cache.put(("s", "c", 1), a, 80) == 1  # evicts block 0
    assert cache.get(("s", "c", 0)) is None
    assert cache.get(("s", "c", 1)) is a
    assert cache.cached_bytes <= 100


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------


def test_mmap_scans_at_parallelism_one_start_no_thread(tmp_path):
    """Every block read happens on the scanning thread: a multi-window
    gather() and result() over a cold store start no thread of any kind."""
    resident = _scramble(rows=60_000)  # >1024 blocks => several windows
    write_block_store(tmp_path, resident, block_rows=4_096)
    before = set(threading.enumerate())
    scramble = open_block_scramble(tmp_path, cache_bytes=1 << 24)
    try:
        _run_dashboard(scramble, start_block=2, parallelism=1)
        conn = repro.connect(
            scramble, delta=1e-6, rng=np.random.default_rng(5), parallelism=1
        )
        conn.sql(
            "SELECT Origin, AVG(DepDelay) FROM flights GROUP BY Origin",
            stopping=SamplesTaken(20_000),
        ).result(start_block=2)
        assert scramble.storage.stats.blocks_read > 0
        assert set(threading.enumerate()) - before == set()
    finally:
        scramble.storage.close()


# ----------------------------------------------------------------------
# Crash safety: partial directories fail loudly
# ----------------------------------------------------------------------


def _spill(tmp_path):
    scramble = _scramble(rows=4_000)
    write_block_store(tmp_path, scramble, block_rows=512)
    return scramble


def test_missing_manifest_is_rejected(tmp_path):
    _spill(tmp_path)
    os.remove(tmp_path / "MANIFEST.json")
    with pytest.raises(BlockStoreError, match="manifest"):
        MmapBlockStore(tmp_path)


def test_missing_block_file_is_rejected(tmp_path):
    _spill(tmp_path)
    os.remove(tmp_path / "DepDelay" / "block-000003.bin")
    with pytest.raises(BlockStoreError, match="partial block store"):
        MmapBlockStore(tmp_path)


def test_truncated_block_file_is_rejected(tmp_path):
    _spill(tmp_path)
    path = tmp_path / "DepDelay" / "block-000002.bin"
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 8)
    with pytest.raises(BlockStoreError, match="expected"):
        MmapBlockStore(tmp_path)


def test_missing_dictionary_sidecar_is_rejected(tmp_path):
    _spill(tmp_path)
    os.remove(tmp_path / "Airline" / "dictionary.json")
    with pytest.raises(BlockStoreError, match="dictionary"):
        MmapBlockStore(tmp_path)


def test_block_file_unlinked_after_open_raises_typed_error(tmp_path):
    _spill(tmp_path)
    scramble = open_block_scramble(tmp_path, cache_bytes=1 << 20)
    try:
        os.remove(tmp_path / "DepDelay" / "block-000003.bin")
        conn = repro.connect(scramble, delta=1e-6, rng=np.random.default_rng(2))
        handle = conn.sql(
            "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline",
            stopping=SamplesTaken(4_000),  # the whole table: every block
        )
        with pytest.raises(BlockStoreError, match="column 'DepDelay' block 3"):
            handle.result(start_block=0)
    finally:
        scramble.storage.close()


def test_block_file_truncated_after_open_raises_typed_error(tmp_path):
    _spill(tmp_path)
    store = MmapBlockStore(tmp_path, cache=BlockCache(1 << 20))
    path = tmp_path / "DepDelay" / "block-000002.bin"
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 8)
    with pytest.raises(BlockStoreError, match="column 'DepDelay' block 2"):
        store.continuous("DepDelay")[np.arange(store.num_rows)]


def test_foreign_directory_is_rejected(tmp_path):
    (tmp_path / "MANIFEST.json").write_text(json.dumps({"kind": "parquet"}))
    with pytest.raises(BlockStoreError, match="kind"):
        MmapBlockStore(tmp_path)


# ----------------------------------------------------------------------
# Mutation and lifecycle semantics
# ----------------------------------------------------------------------


def test_insert_rows_detaches_attached_storage():
    scramble = _scramble(rows=2_000)
    attach_block_storage(scramble, block_rows=512)
    assert scramble.storage is not None
    scramble.insert_rows(
        continuous={
            name: np.zeros(3) for name in ("DepDelay", "DepTime")
        },
        categorical={
            "Airline": ["AA"] * 3,
            "Origin": ["ORD"] * 3,
            "DayOfWeek": ["Mon"] * 3,
        },
        rng=np.random.default_rng(1),
    )
    assert scramble.storage is None  # spilled bytes went stale


def test_store_owned_scramble_rejects_insert(tmp_path):
    resident = _scramble(rows=2_000)
    write_block_store(tmp_path, resident, block_rows=512)
    scramble = open_block_scramble(tmp_path)
    try:
        with pytest.raises(RuntimeError, match="block directory"):
            scramble.insert_rows(continuous={"DepDelay": np.zeros(1)})
    finally:
        scramble.storage.close()


def test_write_rejects_empty_and_unsafe_names(tmp_path):
    table = Table()
    table.add_continuous("ok", np.arange(4, dtype=np.float64))
    scramble = Scramble(table, block_size=2, rng=np.random.default_rng(0))
    scramble.table._continuous["../evil"] = np.arange(4, dtype=np.float64)
    scramble.table.catalog._kinds["../evil"] = scramble.table.catalog._kinds["ok"]
    scramble.table.catalog._bounds["../evil"] = RangeBounds(0.0, 3.0)
    with pytest.raises(BlockStoreError, match="name"):
        write_block_store(tmp_path / "bad", scramble)


# ----------------------------------------------------------------------
# Surfacing: Connection.config, RoundUpdate, synthetic writer
# ----------------------------------------------------------------------


def test_connection_reports_the_backend_it_uses():
    """A store attached by one connection serves every later connection
    over the same scramble, whatever that one asked for — and its config
    and round updates say so."""
    scramble = _scramble()
    first = repro.connect(scramble, storage="mmap")
    assert first.config.storage == "mmap"
    try:
        second = repro.connect(
            scramble, delta=1e-6, rng=np.random.default_rng(17), storage="memory"
        )
        assert scramble.storage is not None
        assert second.config.storage == "mmap"
        handle = second.sql(
            "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline",
            stopping=SamplesTaken(6_000),
        )
        updates = list(handle.rounds(start_block=1))
        assert updates
        assert all(isinstance(u.storage, StorageCounters) for u in updates)
    finally:
        scramble.detach_storage()
    assert repro.connect(scramble, storage="memory").config.storage == "memory"


def test_round_updates_carry_storage_counters():
    scramble = _scramble()
    attach_block_storage(scramble, block_rows=2_048)
    try:
        conn = repro.connect(
            scramble, delta=1e-6, rng=np.random.default_rng(17)
        )
        handle = conn.sql(
            "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline",
            stopping=SamplesTaken(6_000),
        )
        updates = list(handle.rounds(start_block=1))
        assert updates
        assert all(isinstance(u.storage, StorageCounters) for u in updates)
        assert updates[-1].storage.bytes_read > 0
    finally:
        scramble.detach_storage()


def test_round_updates_omit_storage_in_memory():
    conn = repro.connect(
        _scramble(), delta=1e-6, rng=np.random.default_rng(17),
        storage="memory",  # pin: the suite may run under REPRO_STORAGE=mmap
    )
    handle = conn.sql(
        "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline",
        stopping=SamplesTaken(6_000),
    )
    updates = list(handle.rounds(start_block=1))
    assert updates
    assert all(u.storage is None for u in updates)


def test_write_synthetic_block_store_round_trips(tmp_path):
    resident = write_synthetic_block_store(
        tmp_path, rows=4_000, seed=11, dataset="clustered", block_rows=512
    )
    scramble = open_block_scramble(tmp_path)
    try:
        np.testing.assert_array_equal(
            scramble.column_values("value")[np.arange(4_000)],
            resident.table.continuous("value"),
        )
        conn = repro.connect(scramble, delta=1e-6, rng=np.random.default_rng(2))
        handle = conn.sql(
            "SELECT bucket, AVG(value) FROM t GROUP BY bucket",
            stopping=SamplesTaken(2_000),
        )
        result = handle.result(start_block=0)
        assert result.groups
    finally:
        scramble.storage.close()


def test_zero_copy_gathers_do_not_materialize_value_columns(tmp_path):
    """The gather hot path must never fault whole value columns in —
    only the requested rows' blocks (the out-of-core point)."""
    resident = _scramble()
    write_block_store(tmp_path, resident, block_rows=2_048)
    scramble = open_block_scramble(tmp_path)
    try:
        _run_dashboard(scramble)
        assert "DepDelay" not in scramble.storage.stats.materialized_columns
    finally:
        scramble.storage.close()
