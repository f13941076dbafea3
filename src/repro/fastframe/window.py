"""Shared window materialization: gather each lookahead window once.

A :class:`WindowFrame` is the per-window materialization layer between the
scan cursor and the query runs.  PR 2's shared cursor deduplicated *block
fetches* across a dashboard's queries, but each
:class:`~repro.fastframe.executor.QueryRun` still re-gathered its value
arrays, combined group codes, and predicate masks privately per window —
O(queries × windows) gathers for work that is identical across queries.

The frame closes that gap.  Once per lookahead window the driver unions
the runs' block-fetch masks and builds one frame over the union:

* ``rows`` — the union-fetched row ids, in scan (block) order;
* :meth:`values` — per-column (or per-expression) value arrays, gathered
  once per distinct aggregate column however many queries consume it;
* :meth:`combined_codes` — per-(GROUP BY column set) pool-row ranks, a
  slice of the scramble's cached rank column;
* :meth:`predicate_mask` — per-predicate boolean masks, keyed by the
  predicate's value (two separately parsed ``Origin = 'ORD'`` filters
  share one mask);
* :attr:`deltas` — in a multi-run scan, each distinct partitioned
  stream (:class:`~repro.fastframe.kernels.IngestDelta`), keyed by the
  consuming run (:meth:`~repro.fastframe.executor.QueryRun.consume`).

A window whose fetched blocks form one contiguous run (every full scan
except the window that wraps around the scramble's end) is read as
``slice(r0, r1)``: resident columns then come back as zero-copy views and
block-store columns as one block-slice copy per block, with the same
bytes as the index gather.  Every array the frame hands out is read-only,
because it is shared by every run that consumes the window.

Each run then slices its private view through :meth:`element_selector`:
its block mask is a subset of the union, and because the union preserves
window order, ``rows[selector]`` is exactly what the run's own
``rows_of_blocks`` call used to return — the ingest arithmetic (moment
folds, record clips) consumes bit-identical arrays, so sharing the
gather cannot change any answer.  The solo execution path drives the same
frame (with its own mask as the union), so there is one code path and no
parity fork.

``values_gathered`` counts the value elements the frame actually gathered
— the benchmark's evidence that per-window value gathering happens once
per shared window, not once per query.

The frame is single-threaded: its memo dicts are unlocked, so only the
scanning thread calls its methods.  The parallel driver's ingest threads
read arrays the scanning thread has already materialized, never the
frame itself (:mod:`repro.fastframe.parallel`).
"""

from __future__ import annotations

import numpy as np

from repro.fastframe.predicate import Predicate

__all__ = ["WindowFrame"]


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only (views stay views; the base is untouched)."""
    array.flags.writeable = False
    return array


class WindowFrame:
    """One lookahead window's union fetch, materialized once for all runs.

    Parameters
    ----------
    scramble:
        The scramble the window's block ids refer to.
    window:
        The lookahead window of block ids (scan order).
    union_mask:
        Boolean fetch mask over ``window`` — the union of every consuming
        run's block mask (a solo run passes its own mask).
    shared:
        True when several runs consume the frame: :attr:`deltas` is then a
        memo of partitioned streams, ``None`` otherwise.
    """

    def __init__(
        self,
        scramble,
        window: np.ndarray,
        union_mask: np.ndarray,
        shared: bool = False,
    ) -> None:
        self.scramble = scramble
        self.window = np.asarray(window, dtype=np.int64)
        self.union_mask = np.asarray(union_mask, dtype=bool)
        if self.union_mask.shape != self.window.shape:
            raise ValueError(
                f"union mask shape {self.union_mask.shape} does not match "
                f"window shape {self.window.shape}"
            )
        #: Fetched block ids (the union across consuming runs).
        self.blocks = blocks = self.window[self.union_mask]
        self._rows: np.ndarray | None = None
        first, last = (int(blocks[0]), int(blocks[-1])) if blocks.size else (0, -1)
        # The O(1) span test rejects a block-skipping window before the
        # O(blocks) check that the run really is consecutive.
        if last - first == blocks.size - 1 and (
            blocks.size < 3 or (np.diff(blocks) == 1).all()
        ):
            start = first * scramble.block_size
            stop = min((last + 1) * scramble.block_size, scramble.num_rows)
            #: What the gathers index with: ``slice(r0, r1)`` for one
            #: contiguous run of blocks, else the row ids (:attr:`rows`).
            self.row_key = slice(start, stop)
            #: Union-fetched rows (``rows.size`` without building ``rows``).
            self.n_rows = stop - start
        else:
            self._rows = scramble.rows_of_blocks(blocks)
            self.row_key = self._rows
            self.n_rows = int(self._rows.size)
        #: Total rows spanned by the window, fetched or skipped — Lemma 5's
        #: covered-row accounting input, identical for every consuming run.
        self.window_rows = scramble.count_rows_of_blocks(self.window)
        #: Value elements gathered by :meth:`values` (one count per
        #: distinct column/expression, not per consuming query).
        self.values_gathered = 0
        #: Partitioned streams of a multi-run scan, keyed by the consuming
        #: run's (block mask, predicate, GROUP BY, value column); ``None``
        #: on a one-run scan, which never builds a key.
        self.deltas: dict | None = {} if shared else None
        self._values: dict = {}
        self._combined: dict = {}
        self._masks: dict = {}
        self._block_of_row: np.ndarray | None = None

    @property
    def rows(self) -> np.ndarray:
        """Union-fetched row ids, in block (scan) order (built on demand
        for a contiguous window)."""
        if self._rows is None:
            key = self.row_key
            self._rows = np.arange(key.start, key.stop, dtype=np.int64)
        return self._rows

    # -- per-run slicing ------------------------------------------------

    def element_selector(self, mask: np.ndarray) -> np.ndarray | None:
        """Element mask over :attr:`rows` for one run's block mask.

        Returns ``None`` when the run's mask *is* the union (the common
        solo / identical-strategy case), so callers can skip the slice
        entirely.  ``mask`` must be a subset of the union mask.
        """
        if mask is self.union_mask:
            # A one-run driver's union: skip the O(window_blocks) compare.
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.window.shape:
            raise ValueError(
                f"block mask shape {mask.shape} does not match window "
                f"shape {self.window.shape}"
            )
        if np.array_equal(mask, self.union_mask):
            return None
        if (mask & ~self.union_mask).any():
            raise ValueError(
                "block mask is not a subset of the frame's union mask"
            )
        # mask[union_mask] is one bool per fetched block, in scan order;
        # expanding it per block length yields the element mask.
        return mask[self.union_mask][self._row_blocks()]

    def _row_blocks(self) -> np.ndarray:
        """Fetched-block ordinal of each row of :attr:`rows` (lazy)."""
        if self._block_of_row is None:
            starts = self.blocks * self.scramble.block_size
            lengths = (
                np.minimum(starts + self.scramble.block_size, self.scramble.num_rows)
                - starts
            )
            self._block_of_row = np.repeat(
                np.arange(self.blocks.size, dtype=np.int64), lengths
            )
        return self._block_of_row

    # -- shared materializations ---------------------------------------

    def values(self, key, gather) -> np.ndarray:
        """Union value array for an aggregate column, gathered once.

        ``key`` identifies the column (``("column", name)``) or expression
        (``("expression", id(expr))``); ``gather`` maps a row selector
        (:attr:`row_key`: a slice or row ids) to values and is only called
        on the first request for a key.

        The gather is union-sized (all fetched rows, not just one query's
        predicate-passing rows): that is what lets queries with
        *different* predicates over the same column share one array.  For
        a highly selective solo query this trades at most one extra
        O(rows) gather per window — the same order as the predicate mask
        itself — for the cross-query sharing.
        """
        if key not in self._values:
            self._values[key] = _read_only(gather(self.row_key))
            self.values_gathered += self.n_rows
        return self._values[key]

    def combined_codes(self, group_by: tuple[str, ...], provider) -> np.ndarray:
        """Union group codes for one GROUP BY column set, sliced once.

        ``provider`` maps the row selector to the codes the runs fold by:
        the scramble's pool-row ranks
        (:meth:`~repro.fastframe.scramble.Scramble.group_ranks`).
        """
        if group_by not in self._combined:
            self._combined[group_by] = _read_only(provider(self.row_key))
        return self._combined[group_by]

    def predicate_mask(self, predicate: Predicate) -> np.ndarray:
        """Union predicate mask, evaluated once per distinct predicate.

        Keyed by the predicate's value: equal predicates (every
        ``TruePredicate``, or one filter parsed twice) share one entry.
        """
        mask = self._masks.get(predicate)
        if mask is None:
            mask = _read_only(predicate.mask(self.scramble.table, self.row_key))
            self._masks[predicate] = mask
        return mask
