"""Block-based bitmap indexes over categorical attributes (§4, [50]).

FastFrame "uses block-based bitmaps over categorical attributes for
efficient processing of queries with predicates or groups".  For each
distinct value of an indexed categorical column, the index records which
blocks of the scramble contain at least one row with that value.  A fixed
categorical predicate probes it once per lookahead window
(:meth:`BlockBitmapIndex.probe_batch_any`); active scanning reads its
block-major transpose over a GROUP BY, :func:`block_view_table` (§4.3).

Representation: instead of dense bit matrices (values × blocks bits), each
value stores a *sorted array of block ids* — a compressed bitmap.  Nothing
here counts probes: a strategy charges them to the run that asked
(:mod:`repro.fastframe.scan`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.fastframe.scramble import Scramble

__all__ = ["BlockBitmapIndex", "LOOKAHEAD_BATCH_BLOCKS", "block_view_table"]

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

    def blocks_of(self, code: int) -> np.ndarray:
        """Sorted block ids containing at least one row with ``code``."""
        if not 0 <= code < self.cardinality:
            raise IndexError(f"code {code} out of range [0, {self.cardinality})")
        return self._blocks[self._offsets[code] : self._offsets[code + 1]]

    def block_count_of(self, code):
        """Number of blocks containing ``code`` (an int or an array of codes)."""
        return self._offsets[code + 1] - self._offsets[code]

    def probe_batch_any(self, block_ids: np.ndarray, codes) -> np.ndarray:
        """Does each block contain *any* of ``codes``?  One batched probe.

        The per-code sorted block lists are merged once and the whole
        window is tested against the merged list with a single pair of
        binary searches — the batched bitmap iteration of §4.3.
        """
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


def block_view_table(
    scramble: Scramble, group_by: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per block, the views of ``group_domain(group_by)`` that may be in it.

    A view may be present in a block when each of its per-column codes is
    (the conjunction of the columns' bitmaps, so a block holding both
    values of a two-column group in different rows lists it too).  Returned
    as int32 CSR ``(indptr, views)``: block ``b``'s view indices are
    ``views[indptr[b]:indptr[b + 1]]``; every block lists at least one.
    The third array is every view in ActiveSync's probe order: most blocks
    first by the first column's bitmap, ties in view order (§5.2).

    Built column by column from each column's (block, value) pairs: every
    prefix a block holds is extended by every value of the next column in
    that block, and a prefix no domain view starts with is dropped.
    """
    domain = scramble.group_domain(group_by)
    num_blocks = scramble.num_blocks
    cardinalities = [scramble.table.categorical(c).cardinality for c in group_by]
    blocks = prefixes = None
    for depth, column in enumerate(group_by):
        index = scramble.bitmap_index(column)
        order = np.argsort(index._blocks, kind="stable")
        column_blocks = index._blocks[order]
        column_codes = np.repeat(
            np.arange(index.cardinality, dtype=np.int64), np.diff(index._offsets)
        )[order]
        if depth == 0:
            blocks, prefixes = column_blocks, column_codes
            continue
        starts = np.searchsorted(column_blocks, np.arange(num_blocks + 1))
        width = np.diff(starts)[blocks]
        firsts = np.repeat(np.cumsum(width) - width, width)
        blocks = np.repeat(blocks, width)
        picks = starts[blocks] + np.arange(blocks.size) - firsts
        prefixes = (
            np.repeat(prefixes, width) * cardinalities[depth] + column_codes[picks]
        )
        known = np.unique(domain // math.prod(cardinalities[depth + 1 :]))
        slots = np.minimum(np.searchsorted(known, prefixes), known.size - 1)
        keep = known[slots] == prefixes
        blocks, prefixes = blocks[keep], prefixes[keep]
    indptr = np.searchsorted(blocks, np.arange(num_blocks + 1))
    views = np.searchsorted(domain, prefixes)
    first = scramble.bitmap_index(group_by[0])
    frequency = first.block_count_of(domain // math.prod(cardinalities[1:]))
    probe_order = np.argsort(-frequency, kind="stable")
    return indptr.astype(np.int32), views.astype(np.int32), probe_order
