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
* :meth:`combined_codes` — per-(GROUP BY column set) combined mixed-radix
  group codes;
* :meth:`predicate_mask` — per-predicate boolean masks (every
  ``TruePredicate`` shares one entry; other predicates are keyed by
  object identity).

Each run then slices its private view through :meth:`element_selector`:
its block mask is a subset of the union, and because the union preserves
window order, ``rows[selector]`` is exactly what the run's own
``rows_of_blocks`` call used to return — the ingest arithmetic (stable
sorts, moment updates) consumes bit-identical arrays, so sharing the
gather cannot change any answer.  The solo execution path drives the same
frame (with its own mask as the union), so there is one code path and no
parity fork.

``values_gathered`` counts the value elements the frame actually gathered
— the benchmark's evidence that per-window value gathering happens once
per shared window, not once per query.

**Shared-memory export.**  For parallel ingest the frame's materialized
arrays must be readable by worker processes without per-task copies:
:class:`SharedWindowExport` snapshots every array the frame has
materialized so far (row ids, the per-row fetched-block ordinals, value
arrays, combined group codes, predicate masks) into POSIX shared-memory
segments and hands workers a picklable descriptor;
:func:`attach_shared_frame` reconstructs zero-copy numpy views on the
worker side.  Workers treat the views as read-only and copy out only
their (much smaller) per-view results.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.fastframe.predicate import Predicate, TruePredicate

__all__ = [
    "WindowFrame",
    "SharedWindowExport",
    "attach_shared_frame",
    "live_export_segments",
    "predicate_key",
]

#: All ``TruePredicate`` instances share one mask entry — distinct queries
#: without a WHERE clause each carry their own instance, but the mask is
#: the same all-ones array.
_TRUE_PREDICATE_KEY = "TRUE"


def predicate_key(predicate: Predicate):
    """The frame-cache key of a predicate's mask.

    Every ``TruePredicate`` shares one entry; other predicates are keyed
    by object identity.  Exposed so the parallel driver can tell a worker
    which exported mask belongs to which query.
    """
    if isinstance(predicate, TruePredicate):
        return _TRUE_PREDICATE_KEY
    return id(predicate)


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
    """

    def __init__(
        self, scramble, window: np.ndarray, union_mask: np.ndarray
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
        self.blocks = self.window[self.union_mask]
        #: Union-fetched row ids, in block (scan) order.
        self.rows = scramble.rows_of_blocks(self.blocks)
        #: Total rows spanned by the window, fetched or skipped — Lemma 5's
        #: covered-row accounting input, identical for every consuming run.
        self.window_rows = scramble.count_rows_of_blocks(self.window)
        #: Value elements gathered by :meth:`values` (one count per
        #: distinct column/expression, not per consuming query).
        self.values_gathered = 0
        self._values: dict = {}
        self._combined: dict = {}
        self._masks: dict = {}
        self._mask_refs: list = []  # keep id()-keyed predicates alive
        self._block_of_row: np.ndarray | None = None

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
        (``("expression", id(expr))``); ``gather`` maps row ids to values
        and is only called on the first request for a key.

        The gather is union-sized (all fetched rows, not just one query's
        predicate-passing rows): that is what lets queries with
        *different* predicates over the same column share one array.  For
        a highly selective solo query this trades at most one extra
        O(rows) gather per window — the same order as the predicate mask
        itself — for the cross-query sharing.
        """
        if key not in self._values:
            self._values[key] = gather(self.rows)
            self.values_gathered += int(self.rows.size)
        return self._values[key]

    def combined_codes(self, group_by: tuple[str, ...], provider) -> np.ndarray:
        """Union combined group codes for one GROUP BY column set."""
        if group_by not in self._combined:
            self._combined[group_by] = provider(self.rows)
        return self._combined[group_by]

    def predicate_mask(self, predicate: Predicate) -> np.ndarray:
        """Union predicate mask, evaluated once per distinct predicate."""
        key = predicate_key(predicate)
        if key not in self._masks:
            self._masks[key] = predicate.mask(self.scramble.table, self.rows)
            if key is not _TRUE_PREDICATE_KEY:
                self._mask_refs.append(predicate)
        return self._masks[key]

    def export_shared(self) -> "SharedWindowExport":
        """Snapshot the frame's materialized arrays into shared memory.

        Call after every consuming run's inputs (values, combined codes,
        predicate masks) have been materialized; the export is a frozen
        copy — later materializations are not visible to workers.
        """
        return SharedWindowExport(self)


#: Names of shared-memory segments created by exports in this process
#: and not yet released — the unlink audit the leak regression tests and
#: the driver's ``shm_cleanup_failures`` counter read.
_LIVE_SEGMENT_NAMES: set = set()


def live_export_segments() -> tuple:
    """Names of export segments this process has created but not yet
    released (sorted, for stable assertions)."""
    return tuple(sorted(_LIVE_SEGMENT_NAMES))


def _release_segments(segments: list) -> int:
    """Close + unlink every segment in ``segments``; return the number
    that could not be released.

    Shared between :meth:`SharedWindowExport.close` and the export's
    ``weakref.finalize`` guard: if a driver error path ever drops an
    export without closing it, the finalizer still unlinks the segments
    (at GC or interpreter exit) instead of stranding them in ``/dev/shm``
    until reboot.  The list is cleared in place so close() and the
    finalizer never double-release.
    """
    failures = 0
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            _LIVE_SEGMENT_NAMES.discard(segment.name)
        except (OSError, BufferError):  # pragma: no cover - held mapping
            failures += 1
        else:
            _LIVE_SEGMENT_NAMES.discard(segment.name)
    del segments[:]
    return failures


class SharedWindowExport:
    """One window frame's arrays in POSIX shared memory, plus a picklable
    descriptor worker processes attach to (:func:`attach_shared_frame`).

    The export owns the segments: keep it alive until every worker task
    over this window has returned, then :meth:`close` (which unlinks and
    returns the count of segments that would not release — the driver
    surfaces that as ``ExecutionMetrics.shm_cleanup_failures``).  A
    ``weakref.finalize`` guard releases the segments even if close() is
    never reached, and :func:`live_export_segments` audits what this
    process still holds.  Exports degrade gracefully — if the platform
    offers no shared memory, constructing one raises and the driver falls
    back to inline ingest.
    """

    def __init__(self, frame: WindowFrame) -> None:
        from multiprocessing import shared_memory

        self._segments: list = []
        # Registered before any segment exists: whatever __init__ manages
        # to create is covered even if it raises partway through.
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )
        arrays: dict = {
            ("rows",): frame.rows,
            ("row_blocks",): frame._row_blocks(),
        }
        # With an mmap block store attached, plain-column value arrays are
        # not copied into shm at all: workers attach the store by *path*
        # and gather the same rows from the same on-disk blocks —
        # identical bytes, minus the largest per-window segment.
        # Expression values (computed arrays) still travel via shm.
        store = getattr(frame.scramble, "storage", None)
        mmap_layout: dict = {}
        for key, array in frame._values.items():
            if (
                store is not None
                and isinstance(key, tuple)
                and len(key) == 2
                and key[0] == "column"
            ):
                mmap_layout[("values", key)] = (store.path, key[1])
            else:
                arrays[("values", key)] = array
        for group_by, array in frame._combined.items():
            arrays[("combined", group_by)] = array
        for key, array in frame._masks.items():
            arrays[("mask", key)] = array
        layout = {}
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(array.nbytes, 1)
                )
                self._segments.append(segment)
                _LIVE_SEGMENT_NAMES.add(segment.name)
                if array.nbytes:
                    view = np.ndarray(
                        array.shape, dtype=array.dtype, buffer=segment.buf
                    )
                    view[...] = array
                    del view
                layout[name] = (segment.name, array.shape, array.dtype.str)
        except Exception:
            self.close()
            raise
        #: Picklable attachment recipe: segment names, shapes, dtypes,
        #: mmap-by-path value entries, and the frame scalars workers need
        #: (row count, window rows).
        self.descriptor = {
            "layout": layout,
            "mmap": mmap_layout,
            "rows_size": int(frame.rows.size),
            "window_rows": int(frame.window_rows),
        }

    def close(self) -> int:
        """Release (close + unlink) every segment.  Idempotent; returns
        the number of segments that could not be released."""
        return _release_segments(self._segments)


class AttachedFrame:
    """A worker-side zero-copy view of an exported window frame.

    ``fault`` is the chaos seam: a ``shm-attach-failure`` directive makes
    the attach raise *after* the first segment is mapped — the worker
    dies holding a live attachment, which is exactly the scenario the
    export's finalizer/unlink audit must survive.
    """

    def __init__(self, descriptor: dict, fault: dict | None = None) -> None:
        from multiprocessing import shared_memory

        self.rows_size: int = descriptor["rows_size"]
        self.window_rows: int = descriptor["window_rows"]
        self._segments = []
        self._arrays: dict = {}
        #: Value arrays the exporter left on disk: gathered lazily from
        #: the mmap block store on first access, then memoized.
        self._mmap_layout: dict = dict(descriptor.get("mmap", ()))
        try:
            for name, (segment_name, shape, dtype) in descriptor["layout"].items():
                # NB: attaching registers the name with the (process-tree-wide)
                # resource tracker on Python ≤ 3.12 — harmless here, because
                # registration is a set and the exporting process always
                # unlinks+unregisters each segment exactly once in close().
                segment = shared_memory.SharedMemory(name=segment_name)
                self._segments.append(segment)
                self._arrays[name] = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=segment.buf
                )
                if fault is not None and fault.get("kind") == "shm-attach-failure":
                    from repro.testing.faults import InjectedAttachFailure

                    raise InjectedAttachFailure(
                        "injected attach failure after first segment"
                    )
        except BaseException:
            self.close()
            raise

    def array(self, *name) -> np.ndarray:
        """A named exported array (e.g. ``array("values", key)``).

        Shm-exported arrays are zero-copy views; mmap-by-path value
        entries are gathered from the block store on first request (the
        same ``values[rows]`` arithmetic the exporting process ran, over
        the same on-disk bytes — bit-identical input to the kernels).
        """
        name = tuple(name)
        if name not in self._arrays and name in self._mmap_layout:
            from repro.fastframe.storage import open_block_store

            store_path, column = self._mmap_layout[name]
            store = open_block_store(store_path, prefetch=False)
            self._arrays[name] = store.continuous(column)[self.array("rows")]
        return self._arrays[name]

    def close(self) -> None:
        """Drop the views and close the attachments (no unlink)."""
        self._arrays = {}
        for segment in self._segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass
        self._segments = []


def attach_shared_frame(
    descriptor: dict, fault: dict | None = None
) -> AttachedFrame:
    """Attach to a :class:`SharedWindowExport` descriptor (worker side)."""
    return AttachedFrame(descriptor, fault=fault)
