"""Parallel window ingest: pipeline block selection, fan consume to threads.

:class:`ParallelScanDriver` is the multi-core subclass of
:class:`~repro.fastframe.executor.ScanDriver`, the one window loop behind
``run_shared_scan`` and the solo ``execute``/``rounds`` drivers
(:func:`~repro.fastframe.executor.scan_driver` picks it above
``parallelism`` 1).  The base class owns the loop's shape, its accounting
(batch and solo), ``run()`` and ``finish()``; this module holds only what
is parallel, exploiting the two axes the window-frame architecture exposes:

* **Pipelining** — block selection consults only bitmap metadata and (for
  non-active strategies) none of the run's evolving state, so selection
  for window k+1 runs on the scanning thread *while ingest threads are
  still partitioning window k* (the :meth:`ScanCursor.peek_window` half
  of the prefetch/lookahead split).
* **Per-query consume fan-out** — once a window's
  :class:`~repro.fastframe.window.WindowFrame` is materialized, each
  query run's consumption of it (predicate slice, gather, stable sort by
  group code, per-view bincount statistics) is independent of every other
  run's.  The scanning thread materializes every array a run will read
  (predicate mask, value array, combined group codes) and counts its
  slice, groups the offloadable partitions into *task batches*
  (``ceil(partitions / workers)`` per task, so one window costs one task
  per thread), and submits the batches to a persistent thread pool; each
  task returns one per-view bincount
  :class:`~repro.fastframe.kernels.IngestDelta` per partition.  The
  partition kernels are numpy calls that release the GIL, so the threads
  run them in parallel over the frame's own arrays — nothing is copied
  and nothing crosses a process boundary.  For delta-capable bounders
  (``ErrorBounder.supports_delta``) the task also runs the bounder's pure
  ``partition_delta`` kernel and — when every view is settling — drops
  the O(rows) ``view_idx``/``values`` arrays from the delta: only
  O(views) delta arrays come back for the fold
  (``ExecutionMetrics.delta_bytes_returned`` counts them, and the
  ``partition_wall_s``/``merge_wall_s`` counters split the ingest wall
  between the two stages).

**Why results are bit-identical to serial.**  Ingest threads only run the
*pure* half of ingest (:func:`~repro.fastframe.kernels.partition_ingest`
and the bounder's ``partition_delta`` over arrays nothing mutates — the
same fused kernel the serial path runs in place); all state mutation
happens on the scanning thread, which folds the deltas into each run's
:class:`~repro.fastframe.viewpool.ViewPool` via
:meth:`~repro.fastframe.executor.QueryRun.consume_delta` in deterministic
window-then-run order — the exact order the serial loop uses.  Batching
changes only how deltas travel (several per task instead of one), never
the deltas themselves or the fold order, so pool state is byte-identical
at any ``parallelism`` and batch size.  Prefetched
block selections are charged to metrics only when consumed, and the probe
counters of a selection that is discarded (its run retired meanwhile) are
reconciled, so every :class:`~repro.fastframe.query.ExecutionMetrics`
counter except wall time is also identical.  The determinism suite
(``tests/harness/test_parallel_determinism.py``) pins byte-identical pool
state and metrics across ``parallelism`` 1/2/4.

**Why the unlocked state is safe.**  Everything a task reads is handed to
it by the scanning thread: materialized ndarrays, the counted
:class:`~repro.fastframe.kernels.WindowSlice`, the pool's code domain and
the bounder's ``delta_context``.  A task never calls into the frame's
memo dicts, the block store or its cache, or a
:class:`~repro.fastframe.viewpool.ViewPool`, so none of them needs a
lock; and a run's pool (which its ``delta_context`` references) is only
mutated by the fold, after the task that read it has returned.

Scalar-engine runs (and pool runs below :data:`MIN_OFFLOAD_ELEMENTS`
in-view elements, where a task round trip would cost more than the
partition) consume inline on the scanning thread — same arrays, same
results.  A kernel error in a task (a genuine bug: the kernels are
deterministic) propagates from ``future.result()`` unchanged.

Worker count comes from the caller's
:class:`~repro.fastframe.config.ExecConfig`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import ScanDriver
from repro.fastframe.kernels import partition_ingest, partition_slice, slice_elements
from repro.fastframe.window import WindowFrame

__all__ = ["ParallelScanDriver", "MIN_OFFLOAD_ELEMENTS", "shutdown_worker_pool"]

#: In-view elements below which a run's window slice is partitioned inline
#: — at this size the sort+bincount costs less than a task round trip.
MIN_OFFLOAD_ELEMENTS = 256


# ----------------------------------------------------------------------
# Persistent ingest thread pool (shared by every driver in the process;
# tasks carry all their inputs, so one pool serves any number of scans).
# ----------------------------------------------------------------------

_POOL: ThreadPoolExecutor | None = None
_POOL_WORKERS = 0


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The shared thread pool, (re)created to hold >= ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        shutdown_worker_pool()
        _POOL = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-ingest"
        )
        _POOL_WORKERS = workers
    return _POOL


def shutdown_worker_pool() -> None:
    """Tear down the shared pool (idempotent; re-created on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def _partition_batch_task(specs: list) -> list:
    """Thread body: partition a batch of runs' slices of one window.

    Runs :func:`~repro.fastframe.kernels.partition_ingest` — the same
    fused kernel the serial paths call — once per spec (its keyword
    arguments, see :meth:`ParallelScanDriver._worker_spec`; the slice
    arrives counted, so ``n_rows``/``sel``/``predicate_of`` are unused),
    returning a list of ``(IngestDelta, partition_seconds)`` aligned with
    ``specs``.  Per-view bincount statistics are precomputed so the fold
    is O(views); when a spec carries a delta-capable bounder the kernel
    also runs the pure ``partition_delta`` and (``native``) drops the
    O(rows) arrays from the delta.  Per-item seconds are cumulative
    splits, so their sum is the task's wall time.

    Pure: reads only the arrays in ``specs`` and touches no executor
    state — which is what lets it run off the scanning thread.
    """
    results = []
    last = time.perf_counter()
    for spec in specs:
        delta = partition_ingest(None, None, None, **spec)
        now = time.perf_counter()
        results.append((delta, now - last))
        last = now
    return results


class _RunWindowState:
    """Per-(run, window) bookkeeping between the slice and fold phases.

    ``values`` / ``combined`` are the frame arrays the run's partition
    reads (``None`` when it needs none); ``task`` is the future of the
    batch this run's partition was submitted in (``None`` for inline
    runs) and ``index_in_task`` its slot in the batch's result list.  A
    future keeps its result, so the first member to fold waits for the
    task and later members just index into it.
    """

    __slots__ = ("window_slice", "values", "combined", "task", "index_in_task")

    def __init__(self) -> None:
        self.window_slice = None
        self.values = None
        self.combined = None
        self.task = None
        self.index_in_task = 0


class ParallelScanDriver(ScanDriver):
    """Drive query runs from one cursor with pipelined, multi-core ingest.

    ``runs``, ``cursor`` and ``solo`` are the base class's; ``config`` is
    the resolved :class:`~repro.fastframe.config.ExecConfig`: its
    ``parallelism`` is the ingest thread count (at 1 everything runs
    inline but the pipeline structure is identical).
    """

    def __init__(
        self,
        runs: list,
        cursor,
        config: ExecConfig,
        solo: bool = False,
    ) -> None:
        super().__init__(runs, cursor, solo)
        self.workers = config.parallelism
        self._pool = _worker_pool(self.workers) if self.workers > 1 else None
        # Prefetched next window: (window, at_end, {id(run): mask},
        # {id(run): [(index, probe_delta, batch_delta), ...]}).
        self._prefetched: tuple | None = None

    # -- driving --------------------------------------------------------

    def windows(self):
        """The base loop with pipelined block selection.

        Masks prefetched while the previous window was being ingested are
        charged here, when consumed, so :meth:`_process` gets every live
        run's charged mask as in the serial loop.  Closing the generator
        reconciles any prefetched selection's probe counters.
        """
        cursor = self.cursor
        try:
            while not cursor.exhausted:
                if self._prefetched is not None:
                    window, at_end, pre_masks, probe_deltas = self._prefetched
                    self._prefetched = None
                    cursor.next_window()  # consume the peeked window
                else:
                    window = cursor.next_window()
                    at_end = cursor.exhausted
                    pre_masks, probe_deltas = {}, {}
                live = [run for run in self.runs if not run.finished]
                # Selections prefetched for runs that retired meanwhile
                # were never consumed: take their probes back so the
                # shared counters match what a serial scan would record.
                for run in self.runs:
                    if run.finished and id(run) in probe_deltas:
                        self._uncharge(probe_deltas.pop(id(run)))
                masks = []
                for run in live:
                    mask = pre_masks.pop(id(run), None)
                    if mask is None:
                        mask = run.select_blocks(window)
                    else:
                        run.charge_blocks(window, mask)
                    masks.append(mask)
                self._process(window, at_end, live, masks)
                yield window
                if all(run.finished for run in self.runs):
                    break
        finally:
            self._discard_prefetched()

    # -- one window -----------------------------------------------------

    def _ingest(
        self, frame: WindowFrame, at_end: bool, live: list, masks: list
    ) -> None:
        # Phase 1 — slice and materialize every frame input on this
        # thread, under exactly the serial lazy conditions
        # (values_gathered must match the serial loop bit for bit).
        states = [self._slice(run, frame, mask) for run, mask in zip(live, masks)]

        # Phase 2 — fan the heavy partitions out in task batches.
        offload = [
            (run, state)
            for run, state in zip(live, states)
            if (
                self._pool is not None
                and run.pool is not None
                and state.window_slice.n_in_view >= MIN_OFFLOAD_ELEMENTS
            )
        ]
        if offload:
            size = self._batch_size(len(offload))
            for start in range(0, len(offload), size):
                batch = offload[start : start + size]
                specs = [self._worker_spec(run, state) for run, state in batch]
                task = self._pool.submit(_partition_batch_task, specs)
                for index, (_, state) in enumerate(batch):
                    state.task = task
                    state.index_in_task = index

            # Phase 3 — overlap: block selection for the next window runs
            # while the threads partition this one.  Only strategies that
            # ignore active groups select identically before/after this
            # window's rounds, so only those are prefetched.
            if not at_end:
                self._prefetch(live)

        # Phase 4 — fold, in deterministic run order (serial order):
        # whichever thread computed a delta, it is folded here, in this
        # order — which is why parallel runs stay byte-identical to
        # serial at any parallelism and batch size.
        for run, mask, state in zip(live, masks, states):
            if state.task is not None:
                delta, partition_s = state.task.result()[state.index_in_task]
                payload = delta.payload_nbytes()
                run.metrics.delta_bytes_returned += payload
                self.metrics.delta_bytes_returned += payload
                run.metrics.partition_wall_s += partition_s
                self.metrics.partition_wall_s += partition_s
                merge_start = time.perf_counter()
                run.consume_delta(delta, frame.window_rows, at_end)
                merge_s = time.perf_counter() - merge_start
                run.metrics.merge_wall_s += merge_s
                self.metrics.merge_wall_s += merge_s
            elif run.pool is not None:
                run.consume_delta(
                    self._inline_delta(run, frame, state),
                    frame.window_rows,
                    at_end,
                )
            else:
                run.consume(frame, mask, at_end)
            if run.finished and not self.solo:
                # Seal the run the moment it retires (wall time spans
                # construction → retirement; finalize is cached).
                run.finalize(merge_index_counters=False)

    def _slice(self, run, frame: WindowFrame, mask: np.ndarray) -> _RunWindowState:
        """Scanning-thread slice bookkeeping for one pool run (scalar runs
        are consumed whole in phase 4 and need none)."""
        state = _RunWindowState()
        if run.pool is None:
            return state
        state.window_slice = slice_elements(
            frame.rows.size,
            frame.element_selector(mask),
            lambda: frame.predicate_mask(run.query.predicate),
        )
        if state.window_slice.n_in_view:
            # Materialize the union arrays a task will read, under the
            # run's own lazy conditions (frame_values_of/frame_combined_of
            # return None exactly when the run needs no such array), so
            # values_gathered matches the serial loop bit for bit.
            if run.frame_values_of(frame) is not None:
                state.values = frame.values(run.value_key, run.values_of)
            if run.frame_combined_of(frame) is not None:
                group_by = run.group_by
                ex = run.executor
                state.combined = frame.combined_codes(
                    group_by, lambda rows: ex._combined_codes(group_by, rows)
                )
        return state

    def _worker_spec(self, run, state: _RunWindowState) -> dict:
        """The :func:`partition_ingest` arguments of one offloaded slice.

        The slice was counted on this thread (``window_slice``) and the
        arrays it gathers from were materialized here, so the task reads
        nothing but what this dict holds.  ``native`` is the
        drop-the-row-arrays gate: the task's bounder delta (and
        precomputed stats) can replace ``view_idx``/``values`` only when
        every view is settling — a native delta is partitioned over the
        whole stream, and the pool's flags cannot change between this
        submit and the window's fold (rounds run after phase 4), so the
        gate evaluated here still holds at merge time.  Value queries
        additionally need a delta-capable bounder; COUNT queries never
        feed the bounder, so their precomputed bincount suffices.
        """
        bounder = run.bounder
        needs_values = run.value_key is not None
        native = bool(run.pool.settling_mask(run.freezes_groups).all()) and (
            not needs_values or bounder.supports_delta
        )
        ship_bounder = native and needs_values
        values, combined = state.values, state.combined
        return {
            "window_slice": state.window_slice,
            "codes": run.pool.codes,
            "values_of": None if values is None else values.__getitem__,
            "combined_of": None if combined is None else combined.__getitem__,
            "with_stats": True,
            "native": native,
            "bounder": bounder if ship_bounder else None,
            "bounder_ctx": (
                bounder.delta_context(run.pool.bounder_pool) if ship_bounder else None
            ),
        }

    def _inline_delta(self, run, frame: WindowFrame, state: _RunWindowState):
        """Partition a pool run's slice on this thread (below the offload
        cutoff, or at parallelism 1) — the serial arithmetic."""
        return partition_slice(
            state.window_slice,
            run.pool.codes,
            values_of=run.frame_values_of(frame),
            combined_of=run.frame_combined_of(frame),
        )

    def _batch_size(self, n_offload: int) -> int:
        """Partitions per task for a window with ``n_offload`` offloadable
        partitions: ``ceil(n_offload / workers)`` — the whole window
        costs at most one task round trip per thread while every thread
        stays busy.  Batch size never changes a byte of any result, only
        how many deltas share one round trip."""
        return max(1, -(-n_offload // self.workers))

    # -- prefetch -------------------------------------------------------

    def _prefetch(self, live: list) -> None:
        """Select blocks for the next window while the threads are busy.

        Masks are computed *uncharged* (via ``run.scan_context()``) and
        charged when consumed; per-run bitmap probe-counter deltas are
        recorded so a discarded selection can be reconciled.
        """
        window = self.cursor.peek_window()
        if window.size == 0:
            return
        at_end = self.cursor.peek_at_end()
        masks: dict = {}
        probe_deltas: dict = {}
        for run in live:
            if run.uses_active:
                continue  # selection depends on this window's round
            before = [
                (index, index.probe_count, index.batch_probe_count)
                for index in run.indexes.values()
            ]
            masks[id(run)] = run.strategy.select_blocks(window, run.scan_context())
            probe_deltas[id(run)] = [
                (index, index.probe_count - probes, index.batch_probe_count - batches)
                for index, probes, batches in before
            ]
        if masks:
            self._prefetched = (window, at_end, masks, probe_deltas)

    def _uncharge(self, deltas: list) -> None:
        """Take back the probe counts of a discarded prefetched selection."""
        for index, probes, batches in deltas:
            index.probe_count -= probes
            index.batch_probe_count -= batches

    def _discard_prefetched(self) -> None:
        if self._prefetched is None:
            return
        _, _, _, probe_deltas = self._prefetched
        for deltas in probe_deltas.values():
            self._uncharge(deltas)
        self._prefetched = None
