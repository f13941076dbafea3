"""Sampling strategies: Scan, ActiveSync, ActivePeek (§4.3, §5.2).

All strategies consume the scramble in scan order (wrapping from a random
start) in lookahead *windows* of 1024 blocks and decide which blocks of
each window to fetch:

* **Scan** — fetches every block, except those a fixed categorical
  predicate certifies empty (the paper permits Scan to "leverage bitmaps
  for evaluation of whether a block contains tuples that satisfy a fixed
  predicate, such as the one appearing in F-q1").  It never consults
  active groups, so with sparse bottleneck groups it degenerates toward
  Exact.
* **ActiveSync** — additionally skips blocks containing no tuples of any
  *active* group, probing the bitmap index synchronously per block.  Each
  per-block probe is charged; in the paper these probes "typically result
  in cache misses", and in this reproduction they are Python-level loop
  iterations — both models make the probe the unit of overhead.
* **ActivePeek** — same skipping decision, but computed with vectorized
  batch probes over the whole lookahead window, modelling the asynchronous
  lookahead thread of [50] whose batched bitmap iteration keeps bitmaps in
  cache (§4.3).  The lookahead lives entirely inside one window's
  selection: a window's blocks are selected when that window is taken off
  the cursor, never speculatively ahead of it, and nothing warms the
  next window's pages.

Skipping is always *conservative*: a block is skipped only when the index
certifies it holds no row of any active group (and/or no row satisfying
the predicate), so no needed tuple is ever missed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.fastframe.bitmap import LOOKAHEAD_BATCH_BLOCKS, BlockBitmapIndex

__all__ = [
    "ScanContext",
    "ScanCursor",
    "SamplingStrategy",
    "ScanStrategy",
    "ActiveSyncStrategy",
    "ActivePeekStrategy",
    "get_strategy",
    "EVALUATED_STRATEGIES",
]


class ScanCursor:
    """A sequential wrapped-scan position over a scramble's blocks.

    Yields the scramble's blocks in scan order from ``start_block``
    (wrapping, each block exactly once) in lookahead windows of
    ``window_blocks``.  The cursor is the unit of sharing for multi-query
    execution: one cursor can feed several concurrent
    :class:`~repro.fastframe.executor.QueryRun` states, so a whole
    dashboard session costs a single pass over the scramble.
    """

    def __init__(
        self,
        scramble,
        start_block: int,
        window_blocks: int = LOOKAHEAD_BATCH_BLOCKS,
    ) -> None:
        if window_blocks < 1:
            raise ValueError(f"window_blocks must be >= 1, got {window_blocks}")
        self.scramble = scramble
        self.start_block = int(start_block)
        self.window_blocks = window_blocks
        self.order = scramble.block_order_from(self.start_block)
        self.position = 0

    @property
    def exhausted(self) -> bool:
        """True once every block has been handed out."""
        return self.position >= self.order.size

    def next_window(self) -> np.ndarray:
        """The next lookahead window of block ids (empty when exhausted)."""
        window = self.order[self.position : self.position + self.window_blocks]
        self.position += window.size
        return window

    def windows(self):
        """Iterate ``(window, at_end)`` pairs until the scan is exhausted.

        ``at_end`` is True for the last window of the scan — the shared
        iteration idiom of every driver (solo execution, progressive
        rounds, and the shared-scan gather loop); drivers stop consuming
        early when their runs finish.
        """
        while not self.exhausted:
            window = self.next_window()
            yield window, self.exhausted


@dataclass
class ScanContext:
    """Everything a strategy may consult when selecting blocks.

    Attributes
    ----------
    indexes:
        Bitmap index per indexed categorical column.
    predicate_requirements:
        Per-column sets of dictionary codes a matching row must carry
        (from :meth:`Predicate.categorical_requirements`); empty disables
        predicate-based skipping.
    group_columns:
        The GROUP BY columns (empty for scalar queries).
    active_groups:
        Dictionary codes (one tuple per group, aligned with
        ``group_columns``) of the currently active groups.
    """

    indexes: dict[str, BlockBitmapIndex]
    predicate_requirements: dict[str, set[int]]
    group_columns: tuple[str, ...]
    active_groups: list[tuple[int, ...]]


class SamplingStrategy(ABC):
    """Chooses which blocks of a lookahead window to fetch."""

    name: str = "strategy"
    window_blocks: int = LOOKAHEAD_BATCH_BLOCKS

    #: Whether the strategy skips blocks based on *active groups* (if not,
    #: every group is effectively always covered by the scan — used by the
    #: executor's covered-row accounting).
    uses_active_groups: bool = False

    @abstractmethod
    def select_blocks(self, window: np.ndarray, context: ScanContext) -> np.ndarray:
        """Boolean mask over ``window``: True = fetch the block."""

    def _predicate_mask(
        self, window: np.ndarray, context: ScanContext, batched: bool
    ) -> np.ndarray:
        """Blocks that may contain predicate-satisfying rows.

        A block can be skipped when, for some constrained column, *none*
        of the required codes appear in it.
        """
        mask = np.ones(window.shape, dtype=bool)
        for column, codes in context.predicate_requirements.items():
            if column not in context.indexes:
                continue
            index = context.indexes[column]
            if batched:
                # One multi-code batch probe for the whole window instead
                # of a probe per required code.
                column_mask = index.probe_batch_any(window, sorted(codes))
            else:
                column_mask = np.zeros(window.shape, dtype=bool)
                for code in sorted(codes):
                    for position, block in enumerate(window):
                        if not column_mask[position]:
                            column_mask[position] = index.probe(int(block), code)
            mask &= column_mask
            if not mask.any():
                break
        return mask


class ScanStrategy(SamplingStrategy):
    """Sequential scan; skips only predicate-certified-empty blocks."""

    name = "Scan"
    uses_active_groups = False

    def select_blocks(self, window: np.ndarray, context: ScanContext) -> np.ndarray:
        return self._predicate_mask(window, context, batched=True)


class ActiveSyncStrategy(SamplingStrategy):
    """Active scanning with synchronous per-block index probes.

    For each block, active groups are probed one at a time (most-frequent
    group first, early-exiting on the first hit — the favourable order for
    a system that knows per-value block counts); the block is skipped when
    every active group is certified absent.
    """

    name = "ActiveSync"
    uses_active_groups = True

    def select_blocks(self, window: np.ndarray, context: ScanContext) -> np.ndarray:
        mask = self._predicate_mask(window, context, batched=False)
        if not context.group_columns:
            return mask
        if not context.active_groups:
            return np.zeros(window.shape, dtype=bool)
        ordered_groups = _order_by_frequency(context)
        indexes = [context.indexes[column] for column in context.group_columns]
        for position, block in enumerate(window):
            if not mask[position]:
                continue
            block = int(block)
            present = False
            for codes in ordered_groups:
                if all(
                    index.probe(block, code) for index, code in zip(indexes, codes)
                ):
                    present = True
                    break
            mask[position] = present
        return mask


class ActivePeekStrategy(SamplingStrategy):
    """Active scanning with batched lookahead probes (the paper's best).

    The whole window is probed per (group, column) with one vectorized
    batch operation; a block survives if some active group is possibly
    present in it.
    """

    name = "ActivePeek"
    uses_active_groups = True

    def select_blocks(self, window: np.ndarray, context: ScanContext) -> np.ndarray:
        mask = self._predicate_mask(window, context, batched=True)
        if not context.group_columns:
            return mask
        if not context.active_groups:
            return np.zeros(window.shape, dtype=bool)
        if len(context.group_columns) == 1:
            # Single GROUP BY column: "block holds some active group" is a
            # plain multi-code membership test — one merged batch probe for
            # the whole window, however many groups are active.
            index = context.indexes[context.group_columns[0]]
            any_active = index.probe_batch_any(
                window, [codes[0] for codes in context.active_groups]
            )
            return mask & any_active
        any_active = np.zeros(window.shape, dtype=bool)
        for codes in context.active_groups:
            remaining = mask & ~any_active
            if not remaining.any():
                break
            group_mask = remaining.copy()
            for column, code in zip(context.group_columns, codes):
                index = context.indexes[column]
                group_mask &= index.probe_batch(window, code)
                if not group_mask.any():
                    break
            any_active |= group_mask
        return mask & any_active


def _order_by_frequency(context: ScanContext) -> list[tuple[int, ...]]:
    """Active groups ordered by descending block frequency (probe order)."""
    first_index = context.indexes[context.group_columns[0]]

    def frequency(codes: tuple[int, ...]) -> int:
        return first_index.block_count_of(codes[0])

    return sorted(context.active_groups, key=frequency, reverse=True)


_STRATEGIES = {
    "scan": ScanStrategy,
    "activesync": ActiveSyncStrategy,
    "activepeek": ActivePeekStrategy,
}

#: Strategy names compared in Table 6.
EVALUATED_STRATEGIES = ("scan", "activesync", "activepeek")


def get_strategy(name: str) -> SamplingStrategy:
    """Construct a sampling strategy by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in _STRATEGIES:
        raise KeyError(f"unknown strategy {name!r}; available: {sorted(_STRATEGIES)}")
    return _STRATEGIES[key]()
