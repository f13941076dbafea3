"""Out-of-core columnar block storage for scrambles.

Everything upstream of this module thinks in *blocks*: the cursor walks
the scramble in 1024-block lookahead windows, the bitmap index decides
which blocks to fetch, and the unified ingest kernel consumes gathered
row slices.  This module extends that block discipline down to disk:
:class:`MmapBlockStore` persists each column as fixed-size block files
(continuous float64, categorical int32 codes with a sidecar JSON
dictionary) under a block directory and serves zero-copy ``np.memmap``
views of individual block files on demand.  A scramble without one
attached gathers from the resident numpy arrays its
:class:`~repro.fastframe.table.Table` already holds (the default).

Two properties make the mmap path usable rather than merely possible:

* **Block cache** — an LRU over ``(store, column, block)`` keys with a
  byte budget, shared across every connection attached to the same
  store (and by default across stores), so N concurrent dashboards read
  each hot block from disk once.  Every read happens on the scanning
  thread, so the storage counters in
  :class:`~repro.fastframe.query.ExecutionMetrics` are deterministic.
* **Delta-fold neutrality** — gathers produce the same float64/int32
  bytes that were spilled, so execution over an mmap-backed scramble is
  byte-identical to in-memory execution at any parallelism.

A block file that vanishes or shrinks after the store was opened raises
:class:`BlockStoreError` at the read that needs it.

Which backend a connection uses, and its cache budget, are the
``storage`` and ``cache_bytes`` fields of
:class:`~repro.fastframe.config.ExecConfig`.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.fastframe.catalog import RangeBounds
from repro.fastframe.table import CategoricalColumn, Table

__all__ = [
    "BlockCache",
    "BlockStoreError",
    "MmapBlockStore",
    "StorageStats",
    "attach_block_storage",
    "open_block_scramble",
    "open_block_store",
    "write_block_store",
    "DEFAULT_STORE_BLOCK_ROWS",
    "DEFAULT_CACHE_BYTES",
    "MANIFEST_NAME",
]

#: Rows per block file.  65 536 float64 rows is a 512 KiB file — large
#: enough that per-file overhead vanishes, small enough that a byte
#: budget produces meaningful LRU behavior on test-sized data.
DEFAULT_STORE_BLOCK_ROWS = 65536

#: Budget of the process-wide shared block cache.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: Cap on cached entries regardless of byte budget: each cached block
#: holds an open file handle, and a whole test suite's worth of tiny
#: stores must not exhaust the process fd limit.
MAX_CACHE_ENTRIES = 2048

MANIFEST_NAME = "MANIFEST.json"
FORMAT_VERSION = 1
STORE_KIND = "repro-block-store"

class BlockStoreError(RuntimeError):
    """A block directory is missing, incomplete, or inconsistent."""


@dataclass
class StorageStats:
    """Cumulative I/O counters for one store (scan-thread only).

    ``bytes_read``/``blocks_read`` charge at block-open granularity; no
    other thread reads a store, so per-query deltas are deterministic at
    any parallelism.
    """

    blocks_read: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    #: Columns that were fully materialized via ``__array__``/``astype``
    #: (metadata builds over categorical codes do this; the value-gather
    #: path must not — the zero-copy benchmark flag checks this set).
    materialized_columns: set = field(default_factory=set)

    _FIELDS = ("blocks_read", "bytes_read", "cache_hits", "cache_evictions")

    def counters(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self._FIELDS)


class _StorageTracker:
    """Attributes a store's counter growth to ExecutionMetrics objects.

    ``drain(*metrics)`` adds the delta since the previous drain to each
    metrics object and re-bases, so one tracker can be drained once per
    window (live round visibility) without double counting.
    """

    def __init__(self, store: "MmapBlockStore | None") -> None:
        self._store = store
        self._base = store.stats.counters() if store is not None else None

    def drain(self, *metrics) -> None:
        if self._store is None:
            return
        current = self._store.stats.counters()
        deltas = [now - before for now, before in zip(current, self._base)]
        self._base = current
        if not any(deltas):
            return
        for target in metrics:
            for name, delta in zip(StorageStats._FIELDS, deltas):
                setattr(target, name, getattr(target, name) + delta)


def storage_tracker(scramble) -> _StorageTracker:
    """Tracker over a scramble's attached block store (no-op when in-memory)."""
    return _StorageTracker(getattr(scramble, "storage", None))


class BlockCache:
    """LRU over block ids with a byte budget, shared across connections.

    Entries are ``np.memmap`` views of whole block files; evicting an
    entry drops the view (and with it the file handle).  Gathers copy
    out of the views, so no reference ever escapes the cache and
    eviction is always safe.  All methods take the cache lock: the
    process-wide cache is shared by connections scanning on different
    threads.
    """

    def __init__(self, budget_bytes: int, max_entries: int = MAX_CACHE_ENTRIES) -> None:
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, tuple[np.ndarray, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> np.ndarray | None:
        """The cached view for ``key`` (promoted to MRU), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, view: np.ndarray, nbytes: int) -> int:
        """Insert a view, evicting LRU entries past the budget.

        Returns the number of evictions this insert caused (charged to
        the inserting store's stats).
        """
        evicted = 0
        with self._lock:
            if key in self._entries:
                return 0
            self._entries[key] = (view, nbytes)
            self._bytes += nbytes
            while self._entries and (
                self._bytes > self.budget_bytes or len(self._entries) > self.max_entries
            ):
                victim_key, (_, victim_bytes) = self._entries.popitem(last=False)
                self._bytes -= victim_bytes
                evicted += 1
                if victim_key == key:
                    break  # the new entry alone exceeds the budget
        return evicted

    def resize(self, budget_bytes: int) -> int:
        """Change the byte budget, evicting down to it.  Returns evictions."""
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        evicted = 0
        with self._lock:
            self.budget_bytes = int(budget_bytes)
            while self._entries and self._bytes > self.budget_bytes:
                _, (_, victim_bytes) = self._entries.popitem(last=False)
                self._bytes -= victim_bytes
                evicted += 1
        return evicted

    def drop_store(self, token: str) -> None:
        """Evict every entry belonging to one store (store close)."""
        with self._lock:
            for key in [key for key in self._entries if key[0] == token]:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes


_SHARED_CACHE: BlockCache | None = None
_SHARED_CACHE_LOCK = threading.Lock()


def shared_block_cache() -> BlockCache:
    """The process-wide default block cache (:data:`DEFAULT_CACHE_BYTES`)."""
    global _SHARED_CACHE
    with _SHARED_CACHE_LOCK:
        if _SHARED_CACHE is None:
            _SHARED_CACHE = BlockCache(DEFAULT_CACHE_BYTES)
        return _SHARED_CACHE


class BlockedColumnArray:
    """1-D ndarray-like over one column's block files.

    Fancy indexing gathers through the block cache; each touched block
    is served as a zero-copy ``np.memmap`` view and only the requested
    rows are copied out (exactly what in-memory ``values[rows]`` copies).
    A unit-step slice copies one block slice per block instead.
    ``__array__`` materializes the full column — legitimate for one-time
    metadata builds (bitmap indexes, combined group codes) but flagged
    in the store stats so benchmarks can assert the value-gather path
    never does it.
    """

    def __init__(self, store: "MmapBlockStore", name: str, dtype: np.dtype) -> None:
        self._store = store
        self.name = name
        self.dtype = np.dtype(dtype)
        self.size = store.num_rows
        self.shape = (self.size,)
        self.ndim = 1

    def __len__(self) -> int:
        return self.size

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self.size)
            if step == 1:
                return self._gather_range(start, stop)
            return self[np.arange(start, stop, step, dtype=np.int64)]
        if np.isscalar(item) or getattr(item, "ndim", None) == 0:
            row = int(item)
            if row < 0:
                row += self.size
            if not 0 <= row < self.size:
                raise IndexError(f"row {item} out of range for column of {self.size} rows")
            block_rows = self._store.block_rows
            block = self._store.block(self.name, row // block_rows)
            return block[row % block_rows]
        rows = np.asarray(item)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        rows = rows.astype(np.int64, copy=False)
        if rows.size:
            # Same bounds and negative wrap as a resident array.
            low, high = int(rows.min()), int(rows.max())
            if low < -self.size or high >= self.size:
                bad = low if low < -self.size else high
                raise IndexError(f"row {bad} out of range for column of {self.size} rows")
            if low < 0:
                rows = np.where(rows < 0, rows + self.size, rows)
        return self._gather(rows)

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.size, dtype=self.dtype)
        if rows.size == 0:
            return out
        block_rows = self._store.block_rows
        block_ids = rows // block_rows
        # Window rows arrive as block-contiguous runs; gather run by run
        # so each cache lookup serves a whole run.
        cuts = np.flatnonzero(np.diff(block_ids)) + 1
        starts = np.concatenate([[0], cuts])
        stops = np.concatenate([cuts, [rows.size]])
        for start, stop in zip(starts, stops):
            block_id = int(block_ids[start])
            block = self._store.block(self.name, block_id)
            out[start:stop] = block[rows[start:stop] - block_id * block_rows]
        return out

    def _gather_range(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` as one block-slice copy per block: the same
        bytes and the same cache lookups, in the same block order, as
        :meth:`_gather` of ``arange(start, stop)``, without the index
        array or the fancy gather."""
        out = np.empty(max(stop - start, 0), dtype=self.dtype)
        if out.size == 0:
            return out
        block_rows = self._store.block_rows
        for block_id in range(start // block_rows, (stop - 1) // block_rows + 1):
            base = block_id * block_rows
            lo, hi = max(start, base), min(stop, base + block_rows)
            block = self._store.block(self.name, block_id)
            out[lo - start : hi - start] = block[lo - base : hi - base]
        return out

    def __array__(self, dtype=None, copy=None):
        self._store.stats.materialized_columns.add(self.name)
        full = self._gather_range(0, self.size)
        if dtype is not None and np.dtype(dtype) != self.dtype:
            return full.astype(dtype)
        return full

    def astype(self, dtype, copy: bool = True) -> np.ndarray:
        return self.__array__(dtype)


def _block_file(directory: str, column: str, block_id: int) -> str:
    return os.path.join(directory, column, f"block-{block_id:06d}.bin")


def _dictionary_file(directory: str, column: str) -> str:
    return os.path.join(directory, column, "dictionary.json")


def _num_blocks(num_rows: int, block_rows: int) -> int:
    return -(-num_rows // block_rows)


def _encode_dictionary(dictionary: tuple) -> dict:
    values, types = [], []
    for value in dictionary:
        if isinstance(value, (bool, np.bool_)):
            raise BlockStoreError("boolean categorical dictionaries are not supported")
        if isinstance(value, (int, np.integer)):
            values.append(int(value))
            types.append("int")
        elif isinstance(value, (float, np.floating)):
            values.append(float(value))
            types.append("float")
        else:
            values.append(str(value))
            types.append("str")
    return {"values": values, "types": types}


def _decode_dictionary(payload: dict) -> tuple:
    casts = {"int": int, "float": float, "str": str}
    return tuple(
        casts[kind](value) for value, kind in zip(payload["values"], payload["types"])
    )


def write_block_store(
    directory: str | os.PathLike,
    scramble,
    block_rows: int = DEFAULT_STORE_BLOCK_ROWS,
) -> str:
    """Persist a scramble's permuted table as a block directory.

    Layout: one subdirectory per column holding fixed-size raw block
    files (``block-NNNNNN.bin``; the last block may be short) plus a
    ``dictionary.json`` sidecar for categorical columns, and a
    ``MANIFEST.json`` written last (via atomic rename) so a crashed
    writer leaves a directory that :func:`open_block_store` rejects
    instead of silently truncating.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    directory = os.fspath(directory)
    table = scramble.table
    if table.num_rows == 0:
        raise BlockStoreError("cannot write an empty scramble")
    os.makedirs(directory, exist_ok=True)
    num_rows = table.num_rows
    columns = []
    for name in table.catalog.continuous_columns():
        _write_column_blocks(
            directory, name, np.ascontiguousarray(table.continuous(name), dtype="<f8"),
            block_rows,
        )
        bounds = table.catalog.bounds(name)
        columns.append(
            {"name": name, "kind": "continuous", "dtype": "<f8",
             "bounds": [bounds.a, bounds.b]}
        )
    for name in table.catalog.categorical_columns():
        column = table.categorical(name)
        _write_column_blocks(
            directory, name, np.ascontiguousarray(column.codes, dtype="<i4"), block_rows
        )
        with open(_dictionary_file(directory, name), "w", encoding="utf-8") as handle:
            json.dump(_encode_dictionary(column.dictionary), handle)
        columns.append({"name": name, "kind": "categorical", "dtype": "<i4"})
    manifest = {
        "kind": STORE_KIND,
        "format": FORMAT_VERSION,
        "num_rows": num_rows,
        "block_rows": int(block_rows),
        "num_blocks": _num_blocks(num_rows, block_rows),
        "scramble_block_size": int(scramble.block_size),
        "columns": columns,
    }
    tmp_path = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    os.replace(tmp_path, os.path.join(directory, MANIFEST_NAME))
    return directory


def _write_column_blocks(
    directory: str, name: str, values: np.ndarray, block_rows: int
) -> None:
    if os.sep in name or name.startswith("."):
        raise BlockStoreError(f"column name {name!r} is not a valid block directory name")
    column_dir = os.path.join(directory, name)
    os.makedirs(column_dir, exist_ok=True)
    for block_id in range(_num_blocks(values.size, block_rows)):
        start = block_id * block_rows
        chunk = values[start : start + block_rows]
        chunk.tofile(_block_file(directory, name, block_id))


class MmapBlockStore:
    """Columns persisted as block files, served as zero-copy mmap views.

    Opened via :func:`open_block_store` (which deduplicates instances by
    realpath so connections share one cache and one stats ledger).  The
    constructor validates the manifest and every expected block file's
    size up front: a partial directory fails loudly here, never as a
    silent short read later.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        cache: BlockCache | None = None,
    ) -> None:
        self.path = os.path.realpath(os.fspath(directory))
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        if not os.path.isfile(manifest_path):
            raise BlockStoreError(
                f"{self.path} is not a block store: missing {MANIFEST_NAME} "
                "(an interrupted write leaves no manifest)"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("kind") != STORE_KIND or manifest.get("format") != FORMAT_VERSION:
            raise BlockStoreError(
                f"{manifest_path} has kind={manifest.get('kind')!r} "
                f"format={manifest.get('format')!r}; expected "
                f"{STORE_KIND!r} format {FORMAT_VERSION}"
            )
        self.manifest = manifest
        self._num_rows = int(manifest["num_rows"])
        self.block_rows = int(manifest["block_rows"])
        self.num_blocks = int(manifest["num_blocks"])
        self.scramble_block_size = int(manifest["scramble_block_size"])
        self._columns: dict[str, dict] = {spec["name"]: spec for spec in manifest["columns"]}
        self._dictionaries: dict[str, tuple] = {}
        self.stats = StorageStats()
        self._cache = cache if cache is not None else shared_block_cache()
        self._private_cache = cache is not None
        self._validate_blocks()

    def _validate_blocks(self) -> None:
        for name, spec in self._columns.items():
            itemsize = np.dtype(spec["dtype"]).itemsize
            for block_id in range(self.num_blocks):
                path = _block_file(self.path, name, block_id)
                expected = self._block_length(block_id) * itemsize
                try:
                    actual = os.path.getsize(path)
                except OSError:
                    raise BlockStoreError(
                        f"partial block store at {self.path}: column {name!r} "
                        f"is missing block file {os.path.basename(path)}"
                    ) from None
                if actual != expected:
                    raise BlockStoreError(
                        f"partial block store at {self.path}: column {name!r} "
                        f"block {block_id} holds {actual} bytes, expected {expected}"
                    )
            if spec["kind"] == "categorical" and not os.path.isfile(
                _dictionary_file(self.path, name)
            ):
                raise BlockStoreError(
                    f"partial block store at {self.path}: column {name!r} "
                    "is missing its sidecar dictionary.json"
                )

    # -- column access --------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def continuous_columns(self) -> tuple[str, ...]:
        return tuple(n for n, s in self._columns.items() if s["kind"] == "continuous")

    def categorical_columns(self) -> tuple[str, ...]:
        return tuple(n for n, s in self._columns.items() if s["kind"] == "categorical")

    def continuous(self, name: str) -> BlockedColumnArray:
        spec = self._column_spec(name, "continuous")
        return BlockedColumnArray(self, name, np.dtype(spec["dtype"]))

    def codes(self, name: str) -> BlockedColumnArray:
        spec = self._column_spec(name, "categorical")
        return BlockedColumnArray(self, name, np.dtype(spec["dtype"]))

    def dictionary(self, name: str) -> tuple:
        self._column_spec(name, "categorical")
        if name not in self._dictionaries:
            with open(_dictionary_file(self.path, name), "r", encoding="utf-8") as handle:
                self._dictionaries[name] = _decode_dictionary(json.load(handle))
        return self._dictionaries[name]

    def bounds(self, name: str) -> RangeBounds:
        spec = self._column_spec(name, "continuous")
        return RangeBounds(*spec["bounds"])

    def _column_spec(self, name: str, kind: str) -> dict:
        spec = self._columns.get(name)
        if spec is None or spec["kind"] != kind:
            raise KeyError(
                f"no {kind} column {name!r} in block store {self.path}; "
                f"have {sorted(self._columns)}"
            )
        return spec

    # -- block access -----------------------------------------------------

    def _block_length(self, block_id: int) -> int:
        start = block_id * self.block_rows
        return min(start + self.block_rows, self._num_rows) - start

    def _open_block(self, name: str, block_id: int) -> np.memmap:
        path = _block_file(self.path, name, block_id)
        try:
            return np.memmap(
                path,
                dtype=np.dtype(self._columns[name]["dtype"]),
                mode="r",
                shape=(self._block_length(block_id),),
            )
        except (OSError, ValueError) as error:
            # Validated at open, then unlinked or truncated underneath us.
            raise BlockStoreError(
                f"block store at {self.path}: column {name!r} block {block_id} "
                f"({os.path.basename(path)}) is unreadable: {error}"
            ) from error

    def block(self, name: str, block_id: int) -> np.ndarray:
        """Zero-copy view of one block, through the cache (scan thread)."""
        key = (self.path, name, block_id)
        view = self._cache.get(key)
        if view is None:
            view = self._open_block(name, block_id)
            self.stats.blocks_read += 1
            self.stats.bytes_read += view.nbytes
            self.stats.cache_evictions += self._cache.put(key, view, view.nbytes)
        else:
            self.stats.cache_hits += 1
        return view

    def set_cache_budget(self, cache_bytes: int) -> None:
        """Give this store a private cache with the requested budget.

        Called when a connection's config carries a ``cache_bytes``; the
        default shared cache is left alone so one tenant's budget choice
        cannot evict every other store's working set.
        """
        if self._private_cache:
            self.stats.cache_evictions += self._cache.resize(cache_bytes)
        else:
            self._cache = BlockCache(cache_bytes)
            self._private_cache = True

    def close(self) -> None:
        """Drop this store's cached views and forget it (idempotent)."""
        self._cache.drop_store(self.path)
        _OPEN_STORES.pop(self.path, None)


_OPEN_STORES: dict[str, MmapBlockStore] = {}
_OPEN_STORES_LOCK = threading.Lock()


def open_block_store(
    directory: str | os.PathLike,
    cache_bytes: int | None = None,
) -> MmapBlockStore:
    """Open (or reuse) the store for a block directory.

    Instances are deduplicated by realpath: every connection over the
    same directory shares one block cache and one stats ledger — the
    cross-connection amortization the cache exists for.
    """
    path = os.path.realpath(os.fspath(directory))
    with _OPEN_STORES_LOCK:
        store = _OPEN_STORES.get(path)
        if store is None:
            store = MmapBlockStore(path)
            _OPEN_STORES[path] = store
    if cache_bytes is not None:
        store.set_cache_budget(cache_bytes)
    return store


def table_from_store(store: MmapBlockStore) -> Table:
    """Build a Table whose columns read through a store (no validation scan).

    Bounds come from the store's manifest and codes/values are served as
    store-backed array views, so construction is O(columns) — nothing
    faults the data in.
    """
    table = Table()
    for name in store.continuous_columns():
        values = store.continuous(name)
        table._check_length(name, len(values))
        table._continuous[name] = values
        table.catalog.register_continuous_bounds(name, store.bounds(name))
    for name in store.categorical_columns():
        codes = store.codes(name)
        table._check_length(name, len(codes))
        table._categorical[name] = CategoricalColumn(
            codes=codes, dictionary=store.dictionary(name)
        )
        table.catalog.register_categorical(name)
    return table


def open_block_scramble(
    directory: str | os.PathLike,
    cache_bytes: int | None = None,
):
    """Open a block directory as a fully out-of-core Scramble.

    The rows on disk are already permuted (the writer spilled a
    scramble), so no re-shuffle happens and no column is faulted in;
    the scramble's table serves store-backed views.  The result is
    read-only: ``insert_rows`` raises instead of silently diverging
    from the files.
    """
    from repro.fastframe.scramble import Scramble

    store = open_block_store(directory, cache_bytes=cache_bytes)
    return Scramble.from_storage(store, table_from_store(store))


_SPILL_DIRS: list[str] = []


def _cleanup_spill_dirs() -> None:
    for path in _SPILL_DIRS:
        shutil.rmtree(path, ignore_errors=True)


atexit.register(_cleanup_spill_dirs)


def attach_block_storage(
    scramble,
    directory: str | os.PathLike | None = None,
    cache_bytes: int | None = None,
    block_rows: int = DEFAULT_STORE_BLOCK_ROWS,
) -> MmapBlockStore:
    """Spill a scramble to a block directory and route gathers through it.

    The in-memory arrays stay in place (mutation via ``insert_rows``
    detaches the store and proceeds in memory), but every value/code
    gather on the query hot path reads through the mmap store — this is
    what ``storage="mmap"`` turns on for a connection.  Idempotent: an already
    attached scramble keeps its store (the cache budget is still
    applied when given).
    """
    existing = getattr(scramble, "storage", None)
    if existing is not None:
        if cache_bytes is not None:
            existing.set_cache_budget(cache_bytes)
        return existing
    if directory is None:
        directory = tempfile.mkdtemp(prefix="repro-blockstore-")
        _SPILL_DIRS.append(directory)
    write_block_store(directory, scramble, block_rows=block_rows)
    store = open_block_store(directory, cache_bytes=cache_bytes)
    scramble.attach_storage(store)
    return store
