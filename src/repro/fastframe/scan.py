"""Sampling strategies: Scan and active scanning (§4.3, §5.2).

All strategies consume the scramble in scan order (wrapping from a random
start) in lookahead *windows* of 1024 blocks and decide which blocks of
each window to fetch:

* **Scan** — fetches every block, except those a fixed categorical
  predicate certifies empty (the paper permits Scan to "leverage bitmaps
  for evaluation of whether a block contains tuples that satisfy a fixed
  predicate, such as the one appearing in F-q1").  It never consults
  active groups, so with sparse bottleneck groups it degenerates toward
  Exact.
* **Active scanning** — additionally skips blocks containing no tuples of
  any *active* group.  One class, :class:`ActiveStrategy`, selects the
  blocks for both of the paper's names, ``activesync`` and
  ``activepeek``, vectorized over the window.  The names differ only in
  the probe cost they charge, which models §5.2 rather than this
  process's wall time: ActiveSync's ``index_probes`` are the synchronous
  per-block probes an early-exit loop over the active groups (most
  frequent first) would issue, each of which "typically result[s] in
  cache misses"; ActivePeek's ``batch_probes`` charge one batched
  lookahead probe per window, the asynchronous thread of [50] whose
  bitmaps stay in cache (§4.3).  A window's blocks are selected when that
  window is taken off the cursor, never speculatively ahead of it.

Skipping is always *conservative*: a block is skipped only when the index
certifies it holds no row of any active group (and/or no row satisfying
the predicate), so no needed tuple is ever missed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.fastframe.bitmap import LOOKAHEAD_BATCH_BLOCKS

__all__ = [
    "ScanCursor",
    "SamplingStrategy",
    "ScanStrategy",
    "ActiveStrategy",
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


class SamplingStrategy(ABC):
    """Chooses which blocks of a lookahead window to fetch."""

    name: str = "strategy"
    window_blocks: int = LOOKAHEAD_BATCH_BLOCKS

    #: Whether the strategy skips blocks based on *active groups* (if not,
    #: every group is effectively always covered by the scan — used by the
    #: executor's covered-row accounting).
    uses_active_groups: bool = False

    @abstractmethod
    def select_blocks(self, window: np.ndarray, run) -> np.ndarray:
        """Boolean mask over ``window``: True = fetch the block.

        ``run`` is the asking :class:`~repro.fastframe.executor.QueryRun`:
        the strategy reads its predicate requirements, GROUP BY and active
        views, and charges its index probes to ``run.metrics``.
        """

    def _predicate_mask(self, window: np.ndarray, run) -> np.ndarray:
        """Blocks that may contain predicate-satisfying rows.

        A block can be skipped when, for some constrained column, *none*
        of the required codes appear in it: one batched probe per column.
        """
        mask = np.ones(window.shape, dtype=bool)
        for column, codes in run.predicate_requirements.items():
            run.metrics.batch_probes += 1
            mask &= run.indexes[column].probe_batch_any(window, sorted(codes))
            if not mask.any():
                break
        return mask


class ScanStrategy(SamplingStrategy):
    """Sequential scan; skips only predicate-certified-empty blocks."""

    name = "Scan"

    def select_blocks(self, window: np.ndarray, run) -> np.ndarray:
        return self._predicate_mask(window, run)


class ActiveStrategy(SamplingStrategy):
    """Active scanning: also skip blocks that hold no active view.

    A block is fetched iff the predicate allows it and it lists a view the
    run still needs in the scramble's block → view table
    (:meth:`~repro.fastframe.scramble.Scramble.block_views`).  No state
    outlives a window, so a view the stopping condition re-activates
    is fetched again from the next window on.  ``name`` picks the probe
    cost charged (module docstring).
    """

    uses_active_groups = True

    def __init__(self, name: str) -> None:
        self.name = name
        self.sync_probes = name == "ActiveSync"

    def select_blocks(self, window: np.ndarray, run) -> np.ndarray:
        mask = self._predicate_mask(window, run)
        if not run.group_by:
            return mask
        active = run.active_views()
        if not active.any():
            return np.zeros(window.shape, dtype=bool)
        indptr, views, probe_order = run.scramble.block_views(run.group_by)
        if self.sync_probes:
            # Per view, what the early-exit loop probes on a block whose
            # first present active view it is: 1 + its rank among the
            # active views in probe order.  Inactive views get ``absent``,
            # one past every active view, so a block's minimum says both
            # whether it lists an active view and what it costs.
            in_order = active[probe_order]
            ranks = in_order.cumsum()
            absent = int(ranks[-1]) + 1
            # int32: numpy gathers int64 values by int32 indices far slower.
            per_view = np.empty(active.size, dtype=np.int32)
            per_view[probe_order] = np.where(in_order, ranks, absent)
            reduce = np.minimum
        else:
            run.metrics.batch_probes += 1
            per_view, reduce = active, np.logical_or
        # One gather and one segmented reduction per contiguous span of
        # the window (it wraps at most once).
        per_block = np.empty(window.shape, dtype=per_view.dtype)
        cuts = ((window[1:] - window[:-1] != 1).nonzero()[0] + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, window.size]):
            bounds = indptr[window[lo] : window[hi - 1] + 2]
            span = per_view.take(views[bounds[0] : bounds[-1]])
            # Every block lists >= 1 view, so no reduceat segment is empty.
            per_block[lo:hi] = reduce.reduceat(span, bounds[:-1] - bounds[0])
        if not self.sync_probes:
            return mask & per_block
        probes = np.minimum(per_block, absent - 1)[mask].sum()
        run.metrics.index_probes += int(probes)
        return mask & (per_block < absent)


_STRATEGIES = {
    "scan": ScanStrategy,
    "activesync": lambda: ActiveStrategy("ActiveSync"),
    "activepeek": lambda: ActiveStrategy("ActivePeek"),
}

#: Strategy names compared in Table 6.
EVALUATED_STRATEGIES = ("scan", "activesync", "activepeek")


def get_strategy(name: str) -> SamplingStrategy:
    """Construct a sampling strategy by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in _STRATEGIES:
        raise KeyError(f"unknown strategy {name!r}; available: {sorted(_STRATEGIES)}")
    return _STRATEGIES[key]()
