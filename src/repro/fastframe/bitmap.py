"""Block-based bitmap indexes over categorical attributes (§4, [50]).

FastFrame "uses block-based bitmaps over categorical attributes for
efficient processing of queries with predicates or groups".  For each
distinct value of an indexed categorical column, the index records which
blocks of the scramble contain at least one row with that value.  Active
scanning probes the index to decide whether a block can be skipped
(ActiveSync: one synchronous probe per block per active group; ActivePeek:
vectorized probes over a 1024-block lookahead batch — §4.3).

Representation: instead of dense bit matrices (values × blocks bits), each
value stores a *sorted array of block ids* — a compressed bitmap.  Single
probes are binary searches and batch probes are vectorized range lookups;
every probe increments a counter so experiments can report index traffic
alongside blocks fetched.
"""

from __future__ import annotations

import numpy as np

from repro.fastframe.scramble import Scramble

__all__ = ["BlockBitmapIndex", "LOOKAHEAD_BATCH_BLOCKS"]

#: ActivePeek's lookahead batch: 1024 blocks (25,600 rows at the default
#: block size), per §4.3.
LOOKAHEAD_BATCH_BLOCKS = 1024


class BlockBitmapIndex:
    """Bitmap index for one categorical column of a scramble.

    Parameters
    ----------
    scramble:
        The scramble whose block layout the index describes.
    column:
        Name of the categorical column to index.
    """

    def __init__(self, scramble: Scramble, column: str) -> None:
        self.column = column
        self.block_size = scramble.block_size
        self.num_blocks = scramble.num_blocks
        categorical = scramble.table.categorical(column)
        self.cardinality = categorical.cardinality
        codes = categorical.codes
        block_ids = np.arange(codes.size, dtype=np.int64) // self.block_size
        # Distinct (value, block) pairs, sorted by value then block: CSR-style
        # storage of each value's sorted block list.
        pairs = np.unique(
            codes.astype(np.int64) * self.num_blocks + block_ids
        )
        values = pairs // self.num_blocks
        blocks = pairs % self.num_blocks
        self._offsets = np.searchsorted(
            values, np.arange(self.cardinality + 1), side="left"
        )
        self._blocks = blocks
        #: Number of single-block probes served (ActiveSync-style access).
        self.probe_count = 0
        #: Number of batched lookahead probes served (ActivePeek-style).
        self.batch_probe_count = 0

    def blocks_of(self, code: int) -> np.ndarray:
        """Sorted block ids containing at least one row with ``code``."""
        if not 0 <= code < self.cardinality:
            raise IndexError(f"code {code} out of range [0, {self.cardinality})")
        return self._blocks[self._offsets[code] : self._offsets[code + 1]]

    def block_count_of(self, code: int) -> int:
        """Number of blocks containing ``code`` (no probe charged)."""
        return int(self._offsets[code + 1] - self._offsets[code])

    def probe(self, block_id: int, code: int) -> bool:
        """Synchronous single-block probe: does ``block_id`` contain ``code``?

        Models ActiveSync's per-block index query, which "typically results
        in cache misses" (§5.2); each call charges one probe.
        """
        self.probe_count += 1
        blocks = self.blocks_of(code)
        pos = int(np.searchsorted(blocks, block_id))
        return pos < blocks.size and int(blocks[pos]) == block_id

    def probe_batch(self, block_ids: np.ndarray, code: int) -> np.ndarray:
        """Vectorized probe over a lookahead batch of block ids.

        Returns a boolean mask aligned with ``block_ids``.  Models
        ActivePeek's batched bitmap iteration, where "bitmaps for the group
        tend to be in cache more often" (§4.3); the whole batch charges a
        single batched probe.
        """
        self.batch_probe_count += 1
        block_ids = np.asarray(block_ids, dtype=np.int64)
        blocks = self.blocks_of(code)
        positions = np.searchsorted(blocks, block_ids)
        positions = np.minimum(positions, blocks.size - 1) if blocks.size else positions
        if blocks.size == 0:
            return np.zeros(block_ids.shape, dtype=bool)
        return blocks[positions] == block_ids

    def probe_batch_any(self, block_ids: np.ndarray, codes) -> np.ndarray:
        """Does each block contain *any* of ``codes``?  One batched probe.

        Multi-code generalization of :meth:`probe_batch`: the per-code
        sorted block lists are merged once and the whole window is tested
        against the merged list with a single pair of binary searches —
        replacing the per-code probe loop the predicate mask and ActivePeek
        previously issued.  Charges one batched probe for the whole call
        (the iteration stays in cache exactly like ActivePeek's, §4.3).
        """
        self.batch_probe_count += 1
        block_ids = np.asarray(block_ids, dtype=np.int64)
        lists = [self.blocks_of(int(code)) for code in codes]
        if not lists:
            return np.zeros(block_ids.shape, dtype=bool)
        if len(lists) == 1:
            merged = lists[0]
        else:
            merged = np.unique(np.concatenate(lists))
        if merged.size == 0:
            return np.zeros(block_ids.shape, dtype=bool)
        positions = np.minimum(np.searchsorted(merged, block_ids), merged.size - 1)
        return merged[positions] == block_ids

    def reset_counters(self) -> None:
        """Zero the probe counters (between experiment runs)."""
        self.probe_count = 0
        self.batch_probe_count = 0
