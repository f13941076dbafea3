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

from repro.fastframe.table import Table, row_count

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
        #: Load-time metadata shared by every query over this scramble
        #: (bitmap indexes, group domains, combined codes, decoded keys,
        #: block → view tables);
        #: filled by the metadata methods below, cleared by insert_rows.
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

    # ------------------------------------------------------------------
    # Load-time metadata: catalog-style state a deployed system builds
    # once, shared by every query over the same data (any bounder or
    # strategy combination).
    # ------------------------------------------------------------------

    def bitmap_index(self, column: str):
        """The (lazily built, cached) bitmap index for a column."""
        key = ("bitmap", column)
        if key not in self.metadata_cache:
            # The bitmap module imports this one.
            from repro.fastframe.bitmap import BlockBitmapIndex

            self.metadata_cache[key] = BlockBitmapIndex(self, column)
        return self.metadata_cache[key]

    def block_views(self, group_by: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """The (lazily built, cached) block → view table of a GROUP BY that
        active scanning reads; see
        :func:`repro.fastframe.bitmap.block_view_table`."""
        key = ("block_views", group_by)
        if key not in self.metadata_cache:
            from repro.fastframe.bitmap import block_view_table

            self.metadata_cache[key] = block_view_table(self, group_by)
        return self.metadata_cache[key]

    def group_domain(self, group_by: tuple[str, ...]) -> np.ndarray:
        """Combined codes of the groups actually present in the data.

        Cached per GROUP BY column set.  A real system reads this from its
        dictionary/bitmap metadata; it is not charged to query metrics.
        """
        key = ("domain", group_by)
        if key not in self.metadata_cache:
            self.metadata_cache[key] = np.unique(self.combined_codes(group_by))
        return self.metadata_cache[key]

    def combined_codes(
        self, group_by: tuple[str, ...], rows: slice | np.ndarray | None = None
    ) -> np.ndarray:
        """Row-aligned combined group codes (mixed-radix over the columns).

        The full-table array is computed once per GROUP BY column set and
        cached (invalidated by inserts, like the bitmap indexes);
        per-window calls just slice it.
        """
        if not group_by:
            return np.zeros(row_count(self.num_rows, rows), dtype=np.int64)
        key = ("combined", group_by)
        if key not in self.metadata_cache:
            combined = None
            # column_codes reads through the attached block store when one
            # is present; this is a one-time load-level metadata build (the
            # array is cached here), not a per-window gather.
            for column in group_by:
                codes = self.column_codes(column)
                card = self.table.categorical(column).cardinality
                combined = (
                    codes.astype(np.int64)
                    if combined is None
                    else combined * card + np.asarray(codes)
                )
            self.metadata_cache[key] = combined
        full = self.metadata_cache[key]
        return full if rows is None else full[rows]

    def group_keys(
        self, group_by: tuple[str, ...]
    ) -> tuple[list[tuple[int, ...]], list[tuple]]:
        """``(codes, keys)`` of each group in :meth:`group_domain`, in
        domain order: the per-column dictionary codes (the mixed-radix
        combination inverted) and the decoded group-by values.

        Cached next to the domain, so both are rebuilt together after an
        insert clears the metadata.
        """
        key = ("keys", group_by)
        if key not in self.metadata_cache:
            domain = self.group_domain(group_by)
            columns = [self.table.categorical(column) for column in group_by]
            remainder = domain.copy()
            per_column = []
            for column in reversed(columns):
                per_column.append((remainder % column.cardinality).tolist())
                remainder //= column.cardinality
            codes = (
                list(zip(*reversed(per_column)))
                if group_by
                else [()] * domain.size
            )
            keys = [
                tuple(
                    column.dictionary[code]
                    for column, code in zip(columns, view_codes)
                )
                for view_codes in codes
            ]
            self.metadata_cache[key] = codes, keys
        return self.metadata_cache[key]

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
        return block_ids.size * self.block_size - self._short_rows(block_ids)

    def _short_rows(self, block_ids: np.ndarray) -> int:
        """Rows the (short) last block lacks, times its count in ``block_ids``."""
        short = self.num_blocks * self.block_size - self.num_rows
        if short == 0 or block_ids.size == 0:
            return 0
        return short * int(np.count_nonzero(block_ids == self.num_blocks - 1))

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
        if self._short_rows(block_ids):
            rows = rows[rows < self.num_rows]
        return rows

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
