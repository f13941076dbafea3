"""The fused per-(query, window) ingest kernel — one copy for every layer.

Every engine in this codebase ultimately does the same thing to a scan
window: slice it down to the run's elements (block mask ∧ predicate),
gather the surviving values and combined group codes, and stable-sort by
group code into pool rows.  Before this module existed that
arithmetic lived in three near-copies — the scalar engine, the ViewPool
serial path, and the parallel worker — and every optimization (or bug
fix) had to land three times and be parity-tested three ways.

:func:`partition_ingest` is now the single entry point both engines
call; the parallel driver calls its two halves, :func:`slice_elements`
on the scanning thread and :func:`partition_slice` on an ingest thread.
The primitives it composes (:func:`slice_elements`,
:func:`partition_slice`, :func:`lookup_codes`, :class:`IngestDelta`,
:class:`WindowSlice`) live here, so the arithmetic exists exactly once —
in this module.

Fusion
------

Relative to the composed legacy passes the kernel removes whole array
sweeps while producing byte-identical deltas:

* **All-pass gather elision** — when every element of the window
  survives the slice (no block-mask restriction and an all-true
  predicate: the common full-scan case), the boolean gathers
  ``values[pick]`` / ``combined[pick]`` are replaced by zero-copy views
  (``arr[:]``).  Nothing downstream mutates its inputs, and the fold
  reads the delta while the window's frame is still alive, so views are
  safe on either thread.
* **Sort-fused value gather** — for multi-view value queries the legacy
  path gathered values twice (boolean gather, then permutation by sort
  order).  The kernel converts the pick mask to indices once and
  gathers values directly in sorted order (``full[pick_idx[order]]``)
  — one gather instead of two, identical floats.
* **Low-cardinality bucketing** — the stable sort by combined group
  code is replaced, when the pool domain is small, by a counting sort:
  codes are first ranked into the dense pool domain
  (:func:`lookup_codes`), the ranks are narrowed to ``uint8``/``uint16``
  and stable-argsorted — numpy's stable integer argsort is a radix
  sort, so this is 1–2 counting passes instead of 8 for the legacy
  ``int64`` sort.  Ranking is a strictly monotone map of the codes, so
  the stable permutation — and therefore every downstream byte — is
  identical to the legacy sort.  ``BUCKET_MAX_CARDINALITY`` caps the
  path; ``benchmarks/bench_hot_path.py`` measures the crossover.

Determinism contract: for the same inputs the kernel returns the same
bytes as the composed legacy passes — ``tests/fastframe/test_kernels.py``
pins fused ≡ composed across the edge cases (empty partition, all rows
filtered, single group, max cardinality, non-contiguous slices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BUCKET_MAX_CARDINALITY",
    "IngestDelta",
    "WindowSlice",
    "lookup_codes",
    "group_order",
    "slice_elements",
    "partition_slice",
    "partition_ingest",
]

#: Largest pool domain partitioned by counting sort (rank + narrow-dtype
#: radix argsort) instead of the general stable sort on int64 codes.
#: Ranks fit uint8 up to 256 views and uint16 up to 65536; beyond that
#: the narrowing pass stops paying for itself.
BUCKET_MAX_CARDINALITY = 65536

#: Zero-copy gather key for the all-pass fast path (``arr[_ALL]`` is a
#: view, not a copy).
_ALL = slice(None)


def lookup_codes(codes: np.ndarray, combined: np.ndarray) -> np.ndarray:
    """Pool row index per combined code over a sorted domain (checked).

    Raises :class:`KeyError` when any code is outside the domain — an
    unguarded ``searchsorted`` would silently return a neighboring view's
    row and corrupt its counters (e.g. when an insert widens a dictionary
    after the pool was built).  Module-level so ingest threads can map
    codes without holding a :class:`~repro.fastframe.viewpool.ViewPool`.
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


def group_order(
    view_combined: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping permutation and sorted pool rows for a slice.

    Returns ``(order, view_idx)`` such that ``view_combined[order]`` is
    sorted ascending with ties in stream order (the order the
    order-sensitive bounder pools require) and ``view_idx`` maps each
    sorted element to its pool row.

    Small domains take the counting-sort path: rank every code into the
    dense domain first, then stable-argsort the narrowed ranks — numpy's
    stable integer argsort is a radix sort, so ``uint8``/``uint16`` keys
    cost 1–2 counting passes instead of 8 for int64 codes.  The ranking
    is strictly monotone over the sorted unique domain, so the stable
    permutation is byte-identical to the legacy sort on the raw codes.
    """
    size = codes.size
    if 1 < size <= BUCKET_MAX_CARDINALITY:
        ranks = lookup_codes(codes, view_combined)
        key_dtype = np.uint8 if size <= 256 else np.uint16
        order = np.argsort(ranks.astype(key_dtype), kind="stable")
        return order, ranks[order]
    order = np.argsort(view_combined, kind="stable")
    return order, lookup_codes(codes, view_combined[order])


@dataclass
class IngestDelta:
    """One (query, window) slice, partitioned and ready to fold.

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
        Pool row per in-view element, sorted ascending with ties in
        stream order (the order the bounder pools require); ``None``
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
    anything, exactly the serial lazy condition.  The ONE copy of this
    arithmetic: :func:`partition_ingest` and the parallel driver's
    offload planning both call it, so the drivers cannot drift.
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
    window_slice: WindowSlice,
    codes: np.ndarray,
    values_of=None,
    combined_of=None,
) -> IngestDelta:
    """Partition a counted slice into an :class:`IngestDelta` (pure, fused).

    ``values_of`` / ``combined_of`` lazily gather the slice's value and
    combined-code arrays from a gather key (``None`` for COUNT queries /
    single-view pools); they are only invoked when the slice has in-view
    elements — again the serial lazy condition, shared by every engine.
    The gather key is a boolean pick mask, an int64 index array, or
    ``slice(None)`` — all three index an ndarray the same way, and the
    kernel picks whichever does the least work:

    * all elements pass → ``slice(None)`` (zero-copy view, no gather);
    * multi-view value query → the pick mask is converted to indices once
      and values are gathered directly in sorted order (one gather
      instead of gather-then-permute).
    """
    n_in_view = window_slice.n_in_view
    needs_values = values_of is not None
    if n_in_view == 0:
        return IngestDelta(n_read=window_slice.n_read, n_in_view=0)
    pick = window_slice.pick
    if n_in_view == pick.size:
        # All-pass fast path: every element of the window survives the
        # slice, so gathers degrade to zero-copy views.
        pick = _ALL
    if combined_of is None or codes.size <= 1:
        # Single view: no partitioning needed, keep stream order.
        view_idx = np.zeros(n_in_view, dtype=np.int64)
        ordered_values = values_of(pick) if needs_values else None
    else:
        if needs_values and pick is not _ALL:
            # Indices instead of a mask, so the value gather below can
            # fuse with the sort permutation (one gather, not two).
            pick = np.flatnonzero(pick)
        view_combined = combined_of(pick)
        sort_order, view_idx = group_order(view_combined, codes)
        if needs_values:
            gather = sort_order if pick is _ALL else pick[sort_order]
            ordered_values = values_of(gather)
        else:
            ordered_values = None
    return IngestDelta(
        n_read=window_slice.n_read,
        n_in_view=n_in_view,
        view_idx=view_idx,
        values=ordered_values,
    )


def partition_ingest(
    n_rows: int,
    sel,
    predicate_of,
    codes: np.ndarray,
    values_of=None,
    combined_of=None,
) -> IngestDelta:
    """The whole partition hot path, fused: slice → gather → sort.

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
    codes:
        The pool's sorted combined group-code domain (the run's full
        group domain for the scalar engine).
    values_of, combined_of:
        Lazy gathers as in :func:`partition_slice`.
    """
    return partition_slice(
        slice_elements(n_rows, sel, predicate_of), codes, values_of, combined_of
    )
