"""Scrambles: pre-shuffled table copies enabling scan-based sampling (Def. 4).

"A scramble is an ordered copy of a relational table that has been permuted
randomly, allowing for scan-based without-replacement sampling" (§4.1).
Scanning any subset of a scramble chosen without knowledge of the data
order — in particular, any filtered/grouped subset, i.e. any *aggregate
view* (Definition 5) — is equivalent to sampling without replacement.

The scramble is organized into fixed-size **blocks** (25 rows in the
paper's experiments, §4.3), the unit of I/O and of bitmap indexing.  The
up-front shuffling cost is paid once and amortized over many ad-hoc
queries.
"""

from __future__ import annotations

import numpy as np

from repro.fastframe.table import Table

__all__ = ["Scramble", "DEFAULT_BLOCK_SIZE"]

#: Block size used in the paper's experiments (§4.3): 25 rows per block.
DEFAULT_BLOCK_SIZE = 25


class Scramble:
    """A randomly permuted copy of a table with a block layout.

    Parameters
    ----------
    table:
        The base table; a permuted copy is materialized (the base table is
        left untouched, mirroring the paper's offline shuffle).
    block_size:
        Rows per block (the I/O granularity).
    rng:
        Randomness for the permutation; pass a seeded generator for
        reproducible layouts.
    """

    def __init__(
        self,
        table: Table,
        block_size: int = DEFAULT_BLOCK_SIZE,
        rng: np.random.Generator | None = None,
    ) -> None:
        if table.num_rows == 0:
            raise ValueError("cannot scramble an empty table")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        rng = rng or np.random.default_rng()
        self.permutation = rng.permutation(table.num_rows)
        self.table = table.take(self.permutation)
        self.block_size = block_size
        #: Load-time metadata shared by every executor over this scramble
        #: (bitmap indexes, group domains); see ApproximateExecutor.
        self.metadata_cache: dict = {}
        #: Attached out-of-core block store (None ⇒ in-memory arrays);
        #: see repro.fastframe.storage.
        self.storage = None
        #: True when the table's column arrays themselves read through
        #: the store (a scramble opened from a block directory): the
        #: scramble is then read-only.
        self._storage_owns_table = False

    @classmethod
    def from_storage(cls, store, table: Table) -> "Scramble":
        """A scramble over rows that were permuted when spilled to a store.

        Used by :func:`repro.fastframe.storage.open_block_scramble`: the
        block directory holds an already-permuted table, so no reshuffle
        happens (re-permuting would fault every column in and break the
        on-disk block ↔ row correspondence).
        """
        self = cls.__new__(cls)
        self.permutation = None  # the shuffle happened before the spill
        self.table = table
        self.block_size = store.scramble_block_size
        self.metadata_cache = {}
        self.storage = store
        self._storage_owns_table = True
        return self

    def attach_storage(self, store) -> None:
        """Route hot-path gathers through an mmap block store.

        The in-memory arrays are kept (metadata built from them stays
        valid — the store holds identical bytes), but value and code
        gathers go out-of-core from here on.
        """
        if store.num_rows != self.num_rows:
            raise ValueError(
                f"store holds {store.num_rows} rows but scramble has {self.num_rows}"
            )
        self.storage = store

    def detach_storage(self) -> None:
        """Fall back to the in-memory arrays (no-op when not attached)."""
        if self._storage_owns_table:
            raise RuntimeError(
                "this scramble was opened from a block directory and has no "
                "in-memory arrays to fall back to"
            )
        self.storage = None

    def column_values(self, name: str):
        """A continuous column for gather (store-backed when attached)."""
        if self.storage is not None:
            return self.storage.continuous(name)
        return self.table.continuous(name)

    def column_codes(self, name: str):
        """A categorical column's codes for gather (store-backed when attached)."""
        if self.storage is not None:
            return self.storage.codes(name)
        return self.table.categorical(name).codes

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def num_blocks(self) -> int:
        return -(-self.num_rows // self.block_size)  # ceil division

    def block_rows(self, block_id: int) -> slice:
        """Row slice of a block (the last block may be short)."""
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block {block_id} out of range [0, {self.num_blocks})")
        start = block_id * self.block_size
        return slice(start, min(start + self.block_size, self.num_rows))

    def block_length(self, block_id: int) -> int:
        """Number of rows in a block."""
        rows = self.block_rows(block_id)
        return rows.stop - rows.start

    def count_rows_of_blocks(self, block_ids: np.ndarray) -> int:
        """Total rows spanned by a set of blocks (pure arithmetic).

        Equivalent to ``rows_of_blocks(block_ids).size`` without
        materializing the row-index array — used by accounting paths that
        only need the count (the last block may be short).
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size == 0:
            return 0
        starts = block_ids * self.block_size
        return int(
            (np.minimum(starts + self.block_size, self.num_rows) - starts).sum()
        )

    def rows_of_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """Row indices of a set of blocks, in block order.

        Vectorized equivalent of concatenating :meth:`block_rows` slices;
        the executor uses this to gather one whole round of blocks at once.
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = block_ids * self.block_size
        offsets = np.arange(self.block_size, dtype=np.int64)
        rows = (starts[:, None] + offsets[None, :]).ravel()
        return rows[rows < self.num_rows]

    def insert_rows(
        self,
        continuous: dict[str, np.ndarray] | None = None,
        categorical: dict[str, object] | None = None,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Insert rows while keeping the layout a uniform random permutation.

        The scramble's soundness rests on the permutation being uniform;
        appending at the end would bias late scan positions toward new
        data.  Each inserted row is therefore placed by one step of the
        inside-out Fisher-Yates construction: append, then swap with a
        uniformly random position (possibly itself).  If the prior layout
        was a uniform permutation, the new layout is a uniform permutation
        of the enlarged table.

        Load-time metadata (bitmap indexes, group domains) is invalidated —
        it is rebuilt lazily on the next query.  Returns the number of rows
        inserted.
        """
        if self._storage_owns_table:
            raise RuntimeError(
                "cannot insert into a scramble opened from a block directory; "
                "rewrite the store with repro.fastframe.storage.write_block_store"
            )
        if self.storage is not None:
            # The spilled bytes would go stale; fall back to memory (a
            # later connect(storage="mmap") re-spills).
            self.detach_storage()
        rng = rng or np.random.default_rng()
        added = self.table.append_rows(continuous, categorical)
        for offset in range(added):
            end = self.num_rows - added + offset
            target = int(rng.integers(end + 1))
            self.table.swap_rows(target, end)
        self.permutation = None  # original-row lineage is no longer tracked
        self.metadata_cache.clear()
        return added

    def block_order_from(self, start_block: int) -> np.ndarray:
        """All block ids in scan order starting at ``start_block``, wrapping.

        Approximate queries start from a random position in the shuffled
        data (§5.2); wrapping the scan covers every block exactly once.
        """
        if not 0 <= start_block < self.num_blocks:
            raise IndexError(f"start block {start_block} out of range [0, {self.num_blocks})")
        ids = np.arange(self.num_blocks, dtype=np.int64)
        return np.concatenate([ids[start_block:], ids[:start_block]])
