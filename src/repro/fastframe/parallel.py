"""Parallel window ingest: pipeline block selection, fan consume to workers.

:class:`ParallelScanDriver` is the multi-core subclass of
:class:`~repro.fastframe.executor.ScanDriver`, the one window loop behind
``run_shared_scan`` and the solo ``execute``/``rounds`` drivers
(:func:`~repro.fastframe.executor.scan_driver` picks it above
``parallelism`` 1).  The base class owns the loop's shape, its accounting
(batch and solo), ``run()`` and ``finish()``; this module holds only what
is parallel, exploiting the two axes the window-frame architecture exposes:

* **Pipelining** — block selection consults only bitmap metadata and (for
  non-active strategies) none of the run's evolving state, so selection
  for window k+1 runs in the main process *while worker processes are
  still ingesting window k* (the :meth:`ScanCursor.peek_window` half of
  the prefetch/lookahead split).
* **Per-query consume fan-out** — once a window's
  :class:`~repro.fastframe.window.WindowFrame` is materialized, each
  query run's consumption of it (predicate slice, gather, stable sort by
  group code, per-view bincount statistics) is independent of every other
  run's.  The driver exports the frame's buffers (row ids, value arrays,
  combined group codes, predicate masks) to POSIX shared memory once,
  groups the offloadable partitions into *task batches*
  (``ceil(partitions / workers)`` per worker task, so one window costs
  one task per worker), and submits the batches to a persistent process
  pool; workers attach the frame once per batch and return one per-view
  bincount :class:`~repro.fastframe.kernels.IngestDelta` per partition.
  For delta-capable bounders (``ErrorBounder.supports_delta``) the
  worker also runs the bounder's pure ``partition_delta`` kernel, and —
  when every view is settling — drops the O(rows) ``view_idx``/``values``
  arrays from the return payload entirely: only O(views) delta arrays
  cross IPC (``ExecutionMetrics.delta_bytes_returned`` counts what
  ships, and the ``partition_wall_s``/``merge_wall_s`` counters split the
  ingest wall between the two stages).

**Why results are bit-identical to serial.**  Workers only run the *pure*
half of ingest (:func:`~repro.fastframe.kernels.partition_ingest` and
the bounder's ``partition_delta`` over
read-only shared buffers — the same fused kernel the serial path runs in
place); all state mutation happens in the main process, which folds the
deltas into each run's :class:`~repro.fastframe.viewpool.ViewPool` via
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

Scalar-engine runs (and pool runs below :data:`MIN_OFFLOAD_ELEMENTS`
in-view elements, where IPC would cost more than the partition) consume
inline in the main process — same arrays, same results.  If the platform
offers no usable process pool or shared memory, the driver degrades to
fully inline execution with identical semantics.

**Fault tolerance.**  Because every worker task is a *pure recompute*
of inputs the main process still holds, any failure is recoverable with
byte-identical results.  Each task batch carries a deadline
(``ExecConfig.task_timeout``, covering the whole batch); a
timed-out or crashed batch is re-dispatched whole up to
:data:`MAX_TASK_ATTEMPTS` times under exponential backoff, and as the
always-correct last resort every slice in it is recomputed in-process
via the inline path.  A broken pool
(``BrokenProcessPool``/dead workers) is rebuilt with backoff up to
:data:`MAX_POOL_REBUILDS` times per scan, after which the driver degrades
permanently to inline execution.  Every recovery action is counted in
``ExecutionMetrics`` (``tasks_retried`` / ``tasks_timed_out`` /
``inline_fallbacks`` / ``pool_rebuilds`` / ``shm_cleanup_failures``).
Deterministic chaos for all of this lives in :mod:`repro.testing.faults`.

Worker count and task deadline come from the caller's
:class:`~repro.fastframe.config.ExecConfig`.
"""

from __future__ import annotations

import atexit
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import ScanDriver
from repro.fastframe.kernels import partition_ingest, partition_slice, slice_elements
from repro.fastframe.window import (
    WindowFrame,
    attach_shared_frame,
    predicate_key,
)
from repro.testing.faults import (
    InjectedWorkerFault,
    draw_task_fault,
    execute_worker_fault,
)

__all__ = [
    "ParallelScanDriver",
    "MIN_OFFLOAD_ELEMENTS",
    "MAX_TASK_ATTEMPTS",
    "MAX_POOL_REBUILDS",
]

#: In-view elements below which a run's window slice is partitioned inline
#: — at this size the sort+bincount costs less than a task round trip.
MIN_OFFLOAD_ELEMENTS = 256

#: Dispatch attempts per task (first submit + re-dispatches) before the
#: slice is recomputed inline.
MAX_TASK_ATTEMPTS = 3

#: Base of the exponential re-dispatch backoff (seconds): attempt k
#: sleeps ``RETRY_BACKOFF_S * 2**(k-1)`` before resubmitting.
RETRY_BACKOFF_S = 0.02

#: Pool rebuilds per scan before permanent inline degradation.
MAX_POOL_REBUILDS = 2

#: Pause before rebuilding a broken pool (seconds).
POOL_REBUILD_BACKOFF_S = 0.1

#: Worker exceptions that warrant a re-dispatch: injected crashes and the
#: transient OS-level failures a sibling's death can cause (shm attach
#: races, fd exhaustion, allocation failure).  Anything else — a genuine
#: bug in the partition kernels — propagates: retrying a deterministic
#: error would loop, and hiding it behind the inline path would mask it.
RETRIABLE_TASK_ERRORS = (InjectedWorkerFault, MemoryError, OSError)


# ----------------------------------------------------------------------
# Persistent worker pool (shared by every driver in the process; workers
# hold no per-scramble state, so one pool serves any number of scans).
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _worker_pool(workers: int) -> ProcessPoolExecutor | None:
    """The shared process pool, (re)created to hold >= ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    shutdown_worker_pool()
    import multiprocessing as mp

    try:
        # fork is cheapest and lets workers inherit the warm interpreter;
        # fall back to the platform default (spawn) elsewhere.  Workers
        # read only shared-memory buffers + task payloads, so both work.
        methods = mp.get_all_start_methods()
        context = mp.get_context("fork" if "fork" in methods else None)
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOL_WORKERS = workers
    except (OSError, ImportError, NotImplementedError, ValueError, RuntimeError):
        # Restricted platforms: no fork/semaphores (OSError/ImportError/
        # NotImplementedError), or a hardened runtime rejecting process
        # creation (ValueError/RuntimeError).  The driver runs inline.
        _POOL = None
        _POOL_WORKERS = 0
    return _POOL


def shutdown_worker_pool() -> None:
    """Tear down the shared pool (idempotent; re-created on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_worker_pool)


def _partition_batch_task(descriptor: dict, specs: list):
    """Worker body: partition a batch of runs' slices of one exported window.

    Attaches the shared-memory frame **once** and runs
    :func:`~repro.fastframe.kernels.partition_ingest` — the same fused
    kernel the serial paths call — once per spec, returning a list of
    ``(IngestDelta, partition_seconds)`` aligned with ``specs``.  Per-view
    bincount statistics are precomputed so the main process's merge is
    O(views); when a spec carries a delta-capable bounder the kernel also
    runs the pure ``partition_delta`` and (``spec["native"]``) drops the
    O(rows) arrays from the payload — only O(views) deltas cross IPC.
    Per-item seconds are cumulative splits (the attach is charged to the
    first item), so their sum is the task's wall time.

    Pure: touches no executor state — which is what makes every batch
    safely re-dispatchable: running it 0, 1, or N times leaves nothing
    behind, and its return value is a deterministic function of the
    (frozen) shared buffers.  ``own_arrays=True`` re-materializes any
    zero-copy views the fused kernel produced: a delta must not keep a
    buffer of the attached frame alive past ``frame.close()``, or the
    persistent worker would leak the mapping.

    ``spec["fault"]`` is the chaos seam: a directive drawn by the driver
    (deterministically, see :mod:`repro.testing.faults`) is acted out at
    its spec's position in the loop — crash, straggle, or kill the
    process mid-batch — exercising whole-batch recovery.  Attach-time
    directives (shm-attach-failure) are honored by the attach itself,
    wherever in the batch they ride.
    """
    start = time.perf_counter()
    fault = next((s.get("fault") for s in specs if s.get("fault") is not None), None)
    frame = attach_shared_frame(descriptor, fault=fault)
    try:
        results = []
        last = start
        for spec in specs:
            execute_worker_fault(spec.get("fault"))
            mask_bits = spec["mask_bits"]
            sel = None if mask_bits is None else mask_bits[frame.array("row_blocks")]
            value_key = spec["value_key"]
            group_key = spec["group_key"]
            delta = partition_ingest(
                frame.rows_size,
                sel,
                lambda key=spec["pred_key"]: frame.array("mask", key),
                spec["codes"],
                values_of=(
                    None
                    if value_key is None
                    else lambda pick, key=value_key: frame.array("values", key)[pick]
                ),
                combined_of=(
                    None
                    if group_key is None
                    else lambda pick, key=group_key: frame.array("combined", key)[pick]
                ),
                with_stats=True,
                native=spec["native"],
                bounder=spec["bounder"],
                bounder_ctx=spec["bounder_ctx"],
                own_arrays=True,
            )
            now = time.perf_counter()
            results.append((delta, now - last))
            last = now
        return results
    finally:
        frame.close()


class _RunWindowState:
    """Per-(run, window) bookkeeping between the slice and fold phases.

    ``batch`` points at the :class:`_TaskBatch` this run's partition was
    grouped into (``None`` for inline runs) and ``index_in_batch`` at its
    slot in the batch's spec/result lists; ``fallback`` marks a slice
    that never reached a worker (no shared memory) and must be
    recomputed inline.
    """

    __slots__ = ("sel", "window_slice", "batch", "index_in_batch", "fallback")

    def __init__(self) -> None:
        self.sel = None
        self.window_slice = None
        self.batch = None
        self.index_in_batch = 0
        self.fallback = False


class _TaskBatch:
    """One worker task: a batch of partitions sharing dispatch fate.

    ``positions`` indexes the batch's members into the window's ``live``
    run list, in serial fold order; ``specs`` holds the frozen task
    recipes (re-dispatches reuse them — the native gate evaluated at
    first submit still holds until the window's rounds run, which is
    after phase 4); ``attempts`` counts dispatches of the *whole* batch;
    ``pool`` records which pool instance the live future was submitted
    to, so a broken-pool recovery triggered by one batch does not tear
    down the pool a *later* batch was already resubmitted to;
    ``fallback`` marks a batch that exhausted its dispatch budget —
    every member slice is then recomputed inline; ``results`` memoizes
    the worker's ``(delta, seconds)`` list once collected, so the first
    member to fold awaits the task and later members just index into it.
    """

    __slots__ = ("positions", "specs", "future", "attempts", "pool", "fallback", "results")

    def __init__(self, positions: list) -> None:
        self.positions = positions
        self.specs: list = []
        self.future = None
        self.attempts = 0
        self.pool = None
        self.fallback = False
        self.results = None


class ParallelScanDriver(ScanDriver):
    """Drive query runs from one cursor with pipelined, multi-core ingest.

    ``runs``, ``cursor`` and ``solo`` are the base class's; ``config`` is
    the resolved :class:`~repro.fastframe.config.ExecConfig`: its
    ``parallelism`` is the worker count (at 1 everything runs inline but
    the pipeline structure is identical) and its ``task_timeout`` the
    deadline of one task batch.
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
        self.task_timeout = config.task_timeout
        self._pool = _worker_pool(self.workers) if self.workers > 1 else None
        self._pool_rebuilds = 0
        #: Permanent inline degradation: set when pool recovery gives up.
        self._degraded = False
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
        # Phase 1 — slice main-side state and materialize frame inputs
        # under exactly the serial lazy conditions (values_gathered must
        # match the serial loop bit for bit).
        states = [self._slice(run, frame, mask) for run, mask in zip(live, masks)]

        # Phase 2 — export the frame once, fan the heavy partitions out
        # in task batches (one attach + one round trip per batch).
        export = None
        offload = [
            position
            for position, (run, state) in enumerate(zip(live, states))
            if (
                self._pool is not None
                and run.pool is not None
                and state.window_slice.n_in_view >= MIN_OFFLOAD_ELEMENTS
            )
        ]
        if offload:
            try:
                export = frame.export_shared()
            except (OSError, ImportError, MemoryError):
                # No usable shared memory (platform restriction, /dev/shm
                # exhaustion): every offload candidate this window falls
                # back inline — counted, not silent.
                export = None
                for position in offload:
                    states[position].fallback = True
            if export is not None:
                size = self._batch_size(len(offload))
                for start in range(0, len(offload), size):
                    batch = _TaskBatch(offload[start : start + size])
                    for index, position in enumerate(batch.positions):
                        run, state = live[position], states[position]
                        batch.specs.append(
                            self._worker_spec(run, frame, masks[position], state)
                        )
                        state.batch = batch
                        state.index_in_batch = index
                    if not self._submit_batch(export, batch, live):
                        batch.fallback = True

        try:
            # Phase 3 — overlap: block selection for the next window runs
            # while workers partition this one.  Only strategies that
            # ignore active groups select identically before/after this
            # window's rounds, so only those are prefetched.
            if not at_end and export is not None:
                self._prefetch(live)

            # Phase 4 — fold, in deterministic run order (serial order).
            # Recovery happens inside _await_batch; whatever path computed
            # the delta, it is folded here, in this order — which is why
            # recovered runs stay byte-identical to serial at any
            # parallelism and batch size.
            for run, mask, state in zip(live, masks, states):
                result = None
                if state.batch is not None:
                    self._await_batch(export, state.batch, live)
                    if state.batch.results is not None:
                        result = state.batch.results[state.index_in_batch]
                if result is not None:
                    delta, partition_s = result
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
                    if state.fallback or (
                        state.batch is not None and state.batch.fallback
                    ):
                        # Retries exhausted / no pool / no shared memory:
                        # the always-correct last resort, recompute the
                        # slice in-process (same arrays, same arithmetic).
                        self._count(run, "inline_fallbacks")
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
        finally:
            if export is not None:
                self.metrics.shm_cleanup_failures += export.close()

    def _slice(self, run, frame: WindowFrame, mask: np.ndarray) -> _RunWindowState:
        """Main-side slice bookkeeping for one pool run (scalar runs are
        consumed whole in phase 4 and need none)."""
        state = _RunWindowState()
        if run.pool is None:
            return state
        state.sel = frame.element_selector(mask)
        state.window_slice = slice_elements(
            frame.rows.size,
            state.sel,
            lambda: frame.predicate_mask(run.query.predicate),
        )
        if state.window_slice.n_in_view:
            # Materialize the union arrays a worker will read, under the
            # run's own lazy conditions (frame_values_of/frame_combined_of
            # return None exactly when the run needs no such array), so
            # values_gathered matches the serial loop bit for bit.
            if run.frame_values_of(frame) is not None:
                frame.values(run.value_key, run.values_of)
            if run.frame_combined_of(frame) is not None:
                group_by = run.group_by
                ex = run.executor
                frame.combined_codes(
                    group_by, lambda rows: ex._combined_codes(group_by, rows)
                )
        return state

    def _worker_spec(
        self, run, frame: WindowFrame, mask: np.ndarray, state: _RunWindowState
    ) -> dict:
        """The picklable per-task recipe for :func:`_partition_batch_task`.

        ``native`` is the drop-the-row-arrays gate: the worker's bounder
        delta (and precomputed stats) can replace ``view_idx``/``values``
        only when every view is settling — a native delta is partitioned
        over the whole stream, and the pool's flags cannot change between
        this submit and the window's fold (rounds run after phase 4), so
        the gate evaluated here still holds at merge time.  Value queries
        additionally need a delta-capable bounder; COUNT queries never
        feed the bounder, so their precomputed bincount suffices.
        """
        bounder = run.bounder
        needs_values = run.value_key is not None
        native = bool(run.pool.settling_mask(run.freezes_groups).all()) and (
            not needs_values or bounder.supports_delta
        )
        ship_bounder = native and needs_values
        return {
            "mask_bits": None if state.sel is None else mask[frame.union_mask],
            "pred_key": predicate_key(run.query.predicate),
            "value_key": run.value_key,
            "group_key": run.group_by if run.pool.size > 1 else None,
            "codes": run.pool.codes,
            "native": native,
            "bounder": bounder if ship_bounder else None,
            "bounder_ctx": (
                bounder.delta_context(run.pool.bounder_pool) if ship_bounder else None
            ),
        }

    def _inline_delta(self, run, frame: WindowFrame, state: _RunWindowState):
        """Partition a pool run's slice in-process (below the offload
        cutoff, shared memory unavailable, or task retries exhausted) —
        the serial arithmetic."""
        return partition_slice(
            state.window_slice,
            run.pool.codes,
            values_of=run.frame_values_of(frame),
            combined_of=run.frame_combined_of(frame),
        )

    # -- task lifecycle / recovery --------------------------------------

    def _count(self, run, counter: str) -> None:
        """Increment a recovery counter on the run's metrics *and* the
        batch metrics (the ``delta_bytes_returned`` pattern)."""
        setattr(run.metrics, counter, getattr(run.metrics, counter) + 1)
        setattr(self.metrics, counter, getattr(self.metrics, counter) + 1)

    def _batch_size(self, n_offload: int) -> int:
        """Partitions per worker task for a window with ``n_offload``
        offloadable partitions: ``ceil(n_offload / workers)`` — the
        whole window costs at most one task round trip per worker while
        every worker stays busy.  Batch size never changes a byte of any
        result, only how many deltas share one round trip."""
        return max(1, -(-n_offload // self.workers))

    def _submit_batch(self, export, batch: _TaskBatch, live: list) -> bool:
        """Dispatch (or re-dispatch) one task batch; True on success.

        One deterministic chaos draw per dispatch
        (:func:`~repro.testing.faults.draw_task_fault`) — batching
        amortizes the fault-plan bookkeeping exactly like the IPC.  The
        drawn directive rides on the batch's *middle* spec, so injected
        crashes land mid-batch and exercise whole-batch recovery (at
        batch size 1 the middle is the only spec — the pre-batching
        behavior).  The pool the future went to is recorded on the batch
        so a later broken-pool recovery triggered by *this* batch never
        tears down a pool other batches were already resubmitted to.
        """
        if self._pool is None or not batch.specs:
            return False
        specs = batch.specs
        directive = draw_task_fault()
        if directive is not None:
            specs = list(specs)
            middle = len(specs) // 2
            spec = dict(specs[middle])
            spec["fault"] = directive
            specs[middle] = spec
        try:
            future = self._pool.submit(_partition_batch_task, export.descriptor, specs)
        except (BrokenExecutor, RuntimeError, OSError):
            # The pool broke between windows (workers OOM-killed, fd
            # exhaustion): rebuild once and retry this submit.
            self._recover_pool(live[batch.positions[0]])
            if self._pool is None:
                return False
            try:
                future = self._pool.submit(
                    _partition_batch_task, export.descriptor, specs
                )
            except (BrokenExecutor, RuntimeError, OSError):
                return False
        batch.future = future
        batch.pool = self._pool
        batch.attempts += 1
        return True

    def _await_batch(self, export, batch: _TaskBatch, live: list) -> None:
        """Collect one batch's ``(delta, partition_seconds)`` list into
        ``batch.results`` under the batch deadline, re-dispatching the
        whole batch on straggle/crash/broken pool.

        Memoized: the first member to fold pays the wait; later members
        index the memoized list.  Leaves ``batch.fallback`` set (results
        ``None``) when the dispatch budget is exhausted or no pool
        survives — every member slice is then recomputed inline.  Every
        path out of here leaves each delta the same bytes the serial
        arithmetic produces; only the recovery counters differ, charged
        once per member run (so batch size 1 reduces exactly to the
        pre-batching counters).
        """
        if batch.results is not None or batch.fallback:
            return
        while True:
            future, pool = batch.future, batch.pool
            if future is None:
                batch.fallback = True
                return
            try:
                batch.results = future.result(timeout=self.task_timeout)
                return
            except (FutureTimeoutError, TimeoutError):
                # A straggler blew the deadline.  Cancel if still queued;
                # a *running* hang cannot be cancelled — its eventual
                # result is simply never read (and the export's segments
                # outlive it only until this window's fold finishes).
                for position in batch.positions:
                    self._count(live[position], "tasks_timed_out")
                future.cancel()
            except BrokenExecutor:
                # Pool died under this batch.  Only the first observer
                # rebuilds: later batches' futures from the dead pool fail
                # the identity check and just re-dispatch to the new one.
                if pool is self._pool:
                    self._recover_pool(live[batch.positions[0]])
            except RETRIABLE_TASK_ERRORS:
                # Transient in-worker failure (injected crash, shm attach
                # race, allocation failure): the batch is pure, so
                # re-running it is always safe.
                pass
            batch.future = None
            if batch.attempts >= MAX_TASK_ATTEMPTS or self._pool is None:
                batch.fallback = True
                return
            time.sleep(RETRY_BACKOFF_S * (2 ** (batch.attempts - 1)))
            if self._submit_batch(export, batch, live):
                for position in batch.positions:
                    self._count(live[position], "tasks_retried")
            else:
                batch.fallback = True
                return

    def _recover_pool(self, run) -> None:
        """Tear down a broken pool and rebuild it with backoff; after
        :data:`MAX_POOL_REBUILDS` rebuilds the driver degrades to
        permanent inline execution (correct, just slower)."""
        shutdown_worker_pool()
        self._pool = None
        if self._degraded:
            return
        if self._pool_rebuilds >= MAX_POOL_REBUILDS:
            self._degraded = True
            return
        self._pool_rebuilds += 1
        time.sleep(POOL_REBUILD_BACKOFF_S * (2 ** (self._pool_rebuilds - 1)))
        self._pool = _worker_pool(self.workers)
        if self._pool is None:
            self._degraded = True
        else:
            self._count(run, "pool_rebuilds")

    # -- prefetch -------------------------------------------------------

    def _prefetch(self, live: list) -> None:
        """Select blocks for the next window while workers are busy.

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
