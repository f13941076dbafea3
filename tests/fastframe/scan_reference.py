"""The probe loops active scanning used before it was vectorized.

``ReferenceSync`` is the per-block loop (for each block, the active groups
most-frequent-first, one bitmap probe per group until one is present) and
``ReferencePeek`` the per-group loop (for each active group, one batched
probe per GROUP BY column over the window).  Both select blocks through
:class:`~repro.fastframe.scan.SamplingStrategy`'s interface, so they plug
into ``connect(strategy=...)`` and into direct ``select_blocks`` calls, and
they are the oracle :class:`~repro.fastframe.scan.ActiveStrategy` is
compared against.  ``ReferenceSync`` charges one ``index_probes`` per
group it tries, which is the cost ActiveSync models.
"""

from __future__ import annotations

import numpy as np

from repro.fastframe.scan import SamplingStrategy

__all__ = ["ReferencePeek", "ReferenceSync", "probe", "probe_batch"]


def probe(index, block: int, code: int) -> bool:
    """Does ``block`` hold a row with ``code``?  One binary search."""
    blocks = index.blocks_of(code)
    position = int(np.searchsorted(blocks, block))
    return position < blocks.size and int(blocks[position]) == block


def probe_batch(index, window: np.ndarray, code: int) -> np.ndarray:
    """:func:`probe` over a whole window, vectorized."""
    blocks = index.blocks_of(code)
    if blocks.size == 0:
        return np.zeros(window.shape, dtype=bool)
    positions = np.minimum(np.searchsorted(blocks, window), blocks.size - 1)
    return blocks[positions] == window


def active_groups(run) -> list[tuple[int, ...]]:
    """Per-column codes of the run's active views, in view order."""
    return [run.key_codes[view] for view in np.flatnonzero(run.active_views())]


class ReferenceSync(SamplingStrategy):
    """Per block, probe the active groups (most blocks first) until a hit."""

    name = "ReferenceSync"
    uses_active_groups = True

    def select_blocks(self, window: np.ndarray, run) -> np.ndarray:
        mask = self._predicate_mask(window, run)
        if not run.group_by:
            return mask
        groups = active_groups(run)
        if not groups:
            return np.zeros(window.shape, dtype=bool)
        first_index = run.indexes[run.group_by[0]]
        ordered = sorted(
            groups, key=lambda codes: first_index.block_count_of(codes[0]), reverse=True
        )
        indexes = [run.indexes[column] for column in run.group_by]
        for position, block in enumerate(window):
            if not mask[position]:
                continue
            present = False
            for codes in ordered:
                run.metrics.index_probes += 1
                if all(
                    probe(index, int(block), code) for index, code in zip(indexes, codes)
                ):
                    present = True
                    break
            mask[position] = present
        return mask


class ReferencePeek(SamplingStrategy):
    """Per active group, probe the whole window column by column."""

    name = "ReferencePeek"
    uses_active_groups = True

    def select_blocks(self, window: np.ndarray, run) -> np.ndarray:
        mask = self._predicate_mask(window, run)
        if not run.group_by:
            return mask
        groups = active_groups(run)
        if not groups:
            return np.zeros(window.shape, dtype=bool)
        any_active = np.zeros(window.shape, dtype=bool)
        for codes in groups:
            group_mask = mask & ~any_active
            for column, code in zip(run.group_by, codes):
                if not group_mask.any():
                    break
                group_mask &= probe_batch(run.indexes[column], window, code)
            any_active |= group_mask
        return mask & any_active
