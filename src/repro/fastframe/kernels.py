"""The per-(query, window) ingest kernel — one copy for every layer.

Every engine in this codebase does the same thing to a scan window: slice
it down to the run's elements (block mask ∧ predicate) and gather the
surviving values and pool rows.  :func:`partition_ingest` is the single
entry point both engines call; the parallel driver calls its two halves,
:func:`slice_elements` on the scanning thread and :func:`partition_slice`
on an ingest thread.

Stream order
------------

The kernel does not sort.  Each row's pool row is read off the
scramble's cached rank column
(:meth:`~repro.fastframe.scramble.Scramble.group_ranks`), so a window's
:class:`IngestDelta` is ``view_idx`` / ``values`` in the order the scan
read them — a slice and a gather, and for an all-pass contiguous window
zero-copy views of the frame's arrays.  Folding a view's rows needs only
that view's rows in stream order, which the stream already has:

* COUNT pools and the moment-family pools reduce it with ``bincount``
  (:meth:`~repro.stats.streaming.MomentPool.batch_stats`), and RangeTrim
  over a moment pool derives its two sides from those moments plus the
  view's records (:mod:`repro.bounders.range_trim`) — none of them sorts;
* consumers that need each view's rows contiguous — the scalar engine's
  per-view segments, the CSR sample pools (Anderson, quantile) and
  RangeTrim over Anderson — call :meth:`IngestDelta.grouped`, a stable
  radix argsort on the narrow ranks, run once per delta and memoized, so
  runs sharing a delta in a multi-run scan share the sort too.

Determinism contract: for the same inputs the kernel returns the same
bytes on any thread and any storage backend;
``tests/fastframe/test_kernels.py`` pins it against the composed passes
across the edge cases (empty partition, all rows filtered, single group,
dtype boundaries, non-contiguous slices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bounders.base import view_order

__all__ = [
    "IngestDelta",
    "WindowSlice",
    "lookup_codes",
    "slice_elements",
    "partition_slice",
    "partition_ingest",
]

#: Zero-copy gather key for the all-pass fast path (``arr[_ALL]`` is a
#: view, not a copy).
_ALL = slice(None)


def lookup_codes(codes: np.ndarray, combined: np.ndarray) -> np.ndarray:
    """Pool row index per combined code over a sorted domain (checked).

    Raises :class:`KeyError` when any code is outside the domain — an
    unguarded ``searchsorted`` would silently return a neighboring view's
    row and corrupt its counters.  Called once per GROUP BY, when the
    scramble builds its rank column.
    """
    combined = np.asarray(combined, dtype=np.int64)
    if codes.size == 0:
        if combined.size:
            raise KeyError(
                f"combined group codes {np.unique(combined)[:8].tolist()} "
                "looked up in an empty pool domain"
            )
        return np.zeros(0, dtype=np.int64)
    span = int(codes[-1]) - int(codes[0])
    if combined.size > codes.size and span <= max(4 * combined.size, 4096):
        # Dense-domain fast path: one table gather per element instead of
        # a binary search — same integer ranks, bit for bit.  Mixed-radix
        # combined codes are near-dense, so this is the common case.
        base = int(codes[0])
        table = np.full(span + 2, -1, dtype=np.int64)
        table[codes - base] = np.arange(codes.size, dtype=np.int64)
        offsets = np.clip(combined - base, -1, span + 1)
        idx = table[offsets]
        bad = idx < 0
    else:
        idx = np.searchsorted(codes, combined)
        clipped = np.minimum(idx, codes.size - 1)
        bad = (idx >= codes.size) | (codes[clipped] != combined)
    if bad.any():
        missing = np.unique(combined[bad])[:8]
        raise KeyError(
            f"combined group codes {missing.tolist()} are not in the "
            "pool domain (stale pool after inserts?)"
        )
    return idx


@dataclass
class IngestDelta:
    """One (query, window) slice, ready to fold.

    Everything :meth:`~repro.fastframe.viewpool.ViewPool.apply_ingest`
    (or the scalar engine's ``_ingest``) needs to fold the window into a
    run's view state without touching the window's frame again.

    Attributes
    ----------
    n_read:
        Rows of the window this run read (its block mask's elements).
    n_in_view:
        Rows that additionally pass the run's predicate.
    view_idx:
        Pool row (``intp``) per in-view element, in stream order; ``None``
        when ``n_in_view == 0``.
    values:
        Aggregated-column values aligned with ``view_idx``; ``None`` for
        COUNT queries.
    segments, moments:
        The scalar engine's per-view split of the stream and its batch
        moments, filled on first use (``QueryRun._segments``) so runs
        sharing the delta split and reduce it once.
    """

    n_read: int
    n_in_view: int
    view_idx: np.ndarray | None = None
    values: np.ndarray | None = None
    segments: dict | None = field(default=None, repr=False, compare=False)
    moments: dict | None = field(default=None, repr=False, compare=False)
    _grouped: tuple | None = field(default=None, repr=False, compare=False)

    def grouped(self) -> tuple[np.ndarray, np.ndarray | None]:
        """``(view_idx, values)`` stably sorted by view: each view's rows
        contiguous, in stream order (memoized).

        The sort key is the ranks narrowed to the smallest unsigned dtype
        that holds them (:func:`~repro.bounders.base.view_order`), so up
        to 65 536 views it is a one- or two-pass radix sort.
        """
        if self._grouped is None:
            order = view_order(self.view_idx)
            values = None if self.values is None else self.values[order]
            self._grouped = self.view_idx[order], values
        return self._grouped


@dataclass
class WindowSlice:
    """Element accounting of one run's slice of one window.

    Attributes
    ----------
    n_read:
        Elements the run's block mask selects (all of them when ``sel``
        was ``None``, i.e. the mask equals the window's union).
    n_in_view:
        Selected elements that additionally pass the run's predicate.
    pick:
        The combined boolean element mask (``None`` when nothing was
        read — the predicate mask is then never evaluated).
    """

    n_read: int
    n_in_view: int
    pick: np.ndarray | None


def slice_elements(n_rows: int, sel, predicate_of) -> WindowSlice:
    """Count one run's window slice (pure; the first half of ingest).

    ``sel`` is the run's element selector over the window's fetched rows
    (``None`` when the run's mask is the union); ``predicate_of`` lazily
    supplies the predicate mask — evaluated only when the run read
    anything.  The ONE copy of this arithmetic: :func:`partition_ingest`
    and the parallel driver's offload planning both call it, so the
    drivers cannot drift.
    """
    n_read = int(n_rows) if sel is None else int(np.count_nonzero(sel))
    pick = None
    n_in_view = 0
    if n_read:
        pred = predicate_of()
        pick = pred if sel is None else (sel & pred)
        n_in_view = int(np.count_nonzero(pick))
    return WindowSlice(n_read=n_read, n_in_view=n_in_view, pick=pick)


def partition_slice(
    window_slice: WindowSlice, values_of=None, ranks_of=None
) -> IngestDelta:
    """Gather a counted slice into a stream-order :class:`IngestDelta`.

    ``values_of`` / ``ranks_of`` lazily gather the slice's values and
    pool rows from a gather key (``None`` for COUNT queries / single-view
    pools); they are only invoked when the slice has in-view elements.
    The key is the pick mask's indices, or ``slice(None)`` when every
    element passes — then the gathers are zero-copy views.
    """
    n_in_view = window_slice.n_in_view
    if n_in_view == 0:
        return IngestDelta(n_read=window_slice.n_read, n_in_view=0)
    pick = window_slice.pick
    if n_in_view == pick.size:
        pick = _ALL
    else:
        # Indices, not the mask: two take-gathers beat two boolean ones.
        pick = np.flatnonzero(pick)
    values = None if values_of is None else values_of(pick)
    delta = IngestDelta(window_slice.n_read, n_in_view, values=values)
    if ranks_of is None:
        # Single view: the stream is already grouped.
        delta.view_idx = np.zeros(n_in_view, dtype=np.intp)
        delta._grouped = delta.view_idx, values
    else:
        delta.view_idx = ranks_of(pick).astype(np.intp)
    return delta


def partition_ingest(
    n_rows: int, sel, predicate_of, values_of=None, ranks_of=None
) -> IngestDelta:
    """The whole partition hot path: slice → gather, in stream order.

    :func:`slice_elements` then :func:`partition_slice` — the kernel both
    engines' ``consume`` call; the parallel driver slices on the scanning
    thread and runs :func:`partition_slice` on an ingest thread, so one
    optimization lands everywhere and parity stays one test.

    Parameters
    ----------
    n_rows:
        Fetched elements of the window (``frame.n_rows``).
    sel:
        The run's boolean element selector (``None`` when the run's
        block mask is the window union).
    predicate_of:
        Lazily supplies the predicate mask over the window's elements.
    values_of, ranks_of:
        Lazy gathers as in :func:`partition_slice`.
    """
    return partition_slice(
        slice_elements(n_rows, sel, predicate_of), values_of, ranks_of
    )
