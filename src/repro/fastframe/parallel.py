"""Parallel window ingest: fan each window's per-query ingest to threads.

:class:`ParallelScanDriver` is the multi-core subclass of
:class:`~repro.fastframe.executor.ScanDriver`, the one window loop behind
``run_shared_scan`` and the solo ``execute``/``rounds`` drivers
(:func:`~repro.fastframe.executor.scan_driver` picks it above
``parallelism`` 1).  The base class owns the loop — cursor, block
selection, frame, accounting, ``run()`` and ``finish()`` — and this
subclass overrides only :meth:`ParallelScanDriver._ingest`, the one step
that is parallel.  Block selection stays exactly serial: each window is
selected when it is taken off the cursor, never ahead of it.

**A task owns its run's fold.**  Once a window's
:class:`~repro.fastframe.window.WindowFrame` is materialized, each pool
run's ingest of it (predicate slice, gather of values and pool rows,
fold into its :class:`~repro.fastframe.viewpool.ViewPool`) is independent
of every other run's.  The scanning thread counts each pool run's slice;
for a run with at least :data:`MIN_OFFLOAD_ELEMENTS` in-view elements it
materializes every frame array the run reads (predicate mask, value
array, pool-row ranks), groups those runs into *task batches*
(``ceil(runs / workers)`` per task, so one window costs one task per
thread) and submits the batches to a persistent thread pool.  Per run, a
task runs :func:`~repro.fastframe.kernels.partition_slice` and then the
run's own ``_ingest`` — :meth:`~repro.fastframe.viewpool.ViewPool.
apply_ingest`, the call the serial path makes — and returns the rows read
and its wall time (``ExecutionMetrics.partition_wall_s``).  The kernels
are numpy calls that release the GIL, so the threads run in parallel
over the frame's own arrays; nothing is copied.  Every other run —
scalar-engine runs and pool runs below the cutoff, where a task round
trip would cost more than the work — consumes inline on the scanning
thread through :meth:`~repro.fastframe.executor.QueryRun.consume`.

**Why results are bit-identical to serial.**  Serial and threaded ingest
run one program: the same partition kernel over the same arrays, then
the same ``apply_ingest`` on the same pool, so where it ran changes no
float.  Each run still sees its windows in order, and its round (the
window's tail: rows charged, bounds recomputed, active set refreshed,
stopping condition tested) runs on the scanning thread after the
window's ingest, in run order — exactly the serial loop.  Batching
changes only how many runs share one task.  Selection and its bitmap
probes run in the inherited serial loop, so every
:class:`~repro.fastframe.query.ExecutionMetrics` counter except wall time
is also identical.  The determinism suite
(``tests/harness/test_parallel_determinism.py``) pins byte-identical pool
state and metrics across ``parallelism`` 1/2/4.

**Why the unlocked state is safe.**

* A task touches only its own run's pool.  Everything else it reads is
  handed to it: materialized ndarrays and the counted
  :class:`~repro.fastframe.kernels.WindowSlice` — never the frame's memo
  dicts, the block store or its cache.
  (Bounders are stateless, so tasks of runs sharing one may call its
  ``update_pool`` on their own pools at once.)
* No two tasks share a run: a run is ingested once per window, and the
  scanning thread waits for a window's tasks before the next window.
* The scanning thread touches that run again only after
  ``task.result()``, because rounds run after the window's ingest.

A kernel error in a task (a genuine bug: the kernels are deterministic)
propagates from ``task.result()`` unchanged, once every task of the
window has stopped writing.

The thread pool is shared by every driver in the process, including
scans running on different threads; growing it for a scan that asks for
more threads never cancels another scan's queued tasks.  Worker count
comes from the caller's :class:`~repro.fastframe.config.ExecConfig`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np

from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import ScanDriver
from repro.fastframe.kernels import partition_slice, slice_elements
from repro.fastframe.window import WindowFrame

__all__ = ["ParallelScanDriver", "MIN_OFFLOAD_ELEMENTS", "shutdown_worker_pool"]

#: In-view elements below which a run's window slice is ingested inline
#: — at this size the fold costs less than a task round trip.
MIN_OFFLOAD_ELEMENTS = 256


# ----------------------------------------------------------------------
# Persistent ingest thread pool (shared by every driver in the process;
# tasks carry all their inputs, so one pool serves any number of scans).
# ----------------------------------------------------------------------

_POOL: ThreadPoolExecutor | None = None
_POOL_WORKERS = 0
#: Guards ``_POOL`` / ``_POOL_WORKERS``: scans on different threads share
#: the pool.  Re-entrant so :func:`_submit` can hold it across the lookup.
_POOL_LOCK = threading.RLock()


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The shared thread pool, grown to hold >= ``workers`` threads.

    Growing starts a bigger pool and retires the old one without
    cancelling anything, so another scan's queued tasks still run on it.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < workers:
            retired = _POOL
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-ingest"
            )
            _POOL_WORKERS = workers
            if retired is not None:
                retired.shutdown(wait=False)
        return _POOL


def _submit(workers: int, fn, *args) -> Future:
    """Submit to the shared pool under its lock, so no other scan can
    retire the pool between the lookup and the submit."""
    with _POOL_LOCK:
        return _worker_pool(workers).submit(fn, *args)


def shutdown_worker_pool() -> None:
    """Tear down the shared pool (idempotent; re-created on demand)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
            _POOL = None
            _POOL_WORKERS = 0


def _ingest_batch_task(items: list) -> list:
    """Thread body: ingest a batch of runs' slices of one window.

    Per item ``(run, window_slice, values, ranks, window_rows)``: runs
    :func:`~repro.fastframe.kernels.partition_slice` over the arrays the
    scanning thread materialized, then ``run._ingest`` — the two calls the
    serial ``consume`` makes.  Returns ``(n_read, seconds)`` per item;
    per-item seconds are cumulative splits, so their sum is the task's
    wall time.  Touches no state but the items' runs' pools.
    """
    results = []
    last = time.perf_counter()
    for run, window_slice, values, ranks, window_rows in items:
        delta = partition_slice(
            window_slice,
            None if values is None else values.__getitem__,
            None if ranks is None else ranks.__getitem__,
        )
        run._ingest(delta, window_rows)
        now = time.perf_counter()
        results.append((delta.n_read, now - last))
        last = now
    return results


class ParallelScanDriver(ScanDriver):
    """Drive query runs from one cursor with multi-core ingest.

    ``runs``, ``cursor`` and ``solo`` are the base class's; ``config`` is
    the resolved :class:`~repro.fastframe.config.ExecConfig`: its
    ``parallelism`` is the ingest thread count (at 1 every run consumes
    inline, as in the base class).
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

    # -- one window -----------------------------------------------------

    def _ingest(
        self, frame: WindowFrame, at_end: bool, live: list, masks: list
    ) -> None:
        # Phase 1 — on this thread: pick the runs worth offloading and
        # materialize the arrays their tasks read.
        offload = {}
        if self.workers > 1:
            for position, (run, mask) in enumerate(zip(live, masks)):
                item = self._offload_item(run, frame, mask)
                if item is not None:
                    offload[position] = item

        # Phase 2 — fan them out in task batches.
        tasks, slots = [], {}
        positions = list(offload)
        size = self._batch_size(len(positions))
        for start in range(0, len(positions), size):
            batch = positions[start : start + size]
            task = _submit(
                self.workers, _ingest_batch_task, [offload[p] for p in batch]
            )
            tasks.append(task)
            for index, position in enumerate(batch):
                slots[position] = (task, index)

        # Phase 3 — each run's tail in run order (the serial order); an
        # offloaded run's only after its task has folded the window.
        try:
            for position, (run, mask) in enumerate(zip(live, masks)):
                if position in slots:
                    task, index = slots[position]
                    n_read, ingest_s = task.result()[index]
                    run.metrics.partition_wall_s += ingest_s
                    self.metrics.partition_wall_s += ingest_s
                    run._end_window(n_read, at_end)
                else:
                    run.consume(frame, mask, at_end)
                if run.finished and not self.solo:
                    # Seal the run the moment it retires (wall time spans
                    # construction → retirement; finalize is cached).
                    run.finalize()
        finally:
            # Even on error, no task may outlive the window: it would still
            # be writing its run's pool.
            wait(tasks)

    def _offload_item(self, run, frame: WindowFrame, mask: np.ndarray):
        """The task item of a pool run worth offloading, else ``None``.

        Counts the run's slice; above the cutoff, materializes the frame
        arrays its partition reads under the run's own lazy conditions
        (``frame_values_of`` / ``frame_ranks_of`` return ``None``
        exactly when the run needs no such array), so ``values_gathered``
        matches the serial loop bit for bit.
        """
        if run.pool is None:
            return None
        window_slice = slice_elements(
            frame.n_rows,
            frame.element_selector(mask),
            lambda: frame.predicate_mask(run.query.predicate),
        )
        if window_slice.n_in_view < MIN_OFFLOAD_ELEMENTS:
            return None
        # Each lazy slicer, keyed with the whole window, is the frame's
        # union array itself.
        values_of, ranks_of = run.frame_values_of(frame), run.frame_ranks_of(frame)
        values = None if values_of is None else values_of(slice(None))
        ranks = None if ranks_of is None else ranks_of(slice(None))
        return run, window_slice, values, ranks, frame.window_rows

    def _batch_size(self, n_offload: int) -> int:
        """Runs per task for a window with ``n_offload`` offloaded runs:
        ``ceil(n_offload / workers)`` — the whole window costs at most one
        task round trip per thread while every thread stays busy.  Batch
        size never changes a byte of any result, only how many runs share
        one round trip."""
        return max(1, -(-n_offload // self.workers))
