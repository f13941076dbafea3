"""Hot-path benchmark: vectorized pool engine vs the scalar reference,
plus shared-scan gather vs sequential dashboard execution.

Part 1 times a full-scan AVG GROUP BY query (an unachievable accuracy
target, so every row is ingested and every round recomputes bounds for
every view) at 1, 10, 100, and 1000 groups, for both executor engines.

Part 2 times the paper's dashboard workload through the connection
front-end: a 6-query mix (HAVING thresholds, accuracy contracts, top-K,
COUNT) resolved sequentially (one scan cursor per query) vs via
``conn.gather()`` (one shared cursor + one window frame per pass feeding
every query's view pool), reporting rows fetched, value elements
gathered (once per shared window, not once per query), per-view bound
recomputations (incremental rounds), and wall time for both paths — and
asserting the per-query intervals are identical (≤ 1e-9) to sequential
execution from the same start block.

Part 3 times the same gathered dashboard serial
(``parallelism=1``) vs parallel (``BENCH_PARALLELISM`` worker processes,
default 2): the multi-core ingest pipeline of
``repro/fastframe/parallel.py``.  Per-query intervals must again match
the serial gather to ≤ 1e-9 (they are in fact bit-identical); the
``parallel`` JSON entry records both wall times, the speedup, the core
count, the asserted parity flag, and the worker-kernel stage split —
worker partition wall vs main-process merge wall and the delta bytes
shipped over IPC (native bounder deltas are O(views) per window).  On a
single-core host the pipeline still runs (correctness is the point of
the entry); a wall-clock win is only expected with ≥ 2 cores.

Part 4 times the fused ingest kernel
(``repro/fastframe/kernels.partition_ingest``) across group cardinalities
straddling the bucketing threshold.  The ``kernel`` JSON entry records the
sweep.  (The comparison against a reimplementation of the pre-kernel
composed passes was deleted once its 4-5x was on record in
PERFORMANCE.md; ``tests/fastframe/test_kernels.py`` pins the bytes.)

Part 5 times RangeTrim's record-only clip (``RangeTrimBounder.
_clip_segments``) at 10 / 200 / 1 400 views: ns per row and candidates
per row for the first window (fresh views: every element is a candidate)
and in steady state, asserting the clipped streams ``==`` a per-element
Algorithm 6 loop.  The ``range_trim`` JSON entry records both.

Part 6 times Anderson's pooled CSR sample buffers against the per-view
buffer baseline (one ``SampleState`` per view, the pre-CSR pool layout):
windowed sorted-stream ingest and the batched confidence-interval
kernel, asserting ≤ 1e-9 parity between the layouts.  The ``anderson``
JSON entry records both walls and the speedups.

Part 7 spills the dashboard scramble to an mmap block store
(``repro/fastframe/storage.py``) and runs the 6-query dashboard cold
(every block read from disk) then warm (a second connection served by
the shared cross-connection block cache), asserting interval parity
with resident execution, a ≥ 50% byte saving on the warm connection,
and the zero-copy gather contract (no whole-column materialization).
The ``storage`` JSON entry records the spill/cold/warm walls and the
block-I/O ledger.

Emits ``BENCH_hot_path.json`` — the repository's performance trajectory
(see PERFORMANCE.md).

Standalone script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_hot_path.py

Environment knobs:

``BENCH_HOT_PATH_ROWS``
    Table size (default 400,000; CI smoke uses a smaller value).
``BENCH_HOT_PATH_REPS``
    Timed repetitions per configuration; the minimum is reported
    (default 3).
``BENCH_HOT_PATH_BOUNDER``
    Registry name of the bounder (default ``bernstein+rt``, the paper's
    headline configuration).
``BENCH_HOT_PATH_OUT``
    Output JSON path (default ``BENCH_hot_path.json`` in the working
    directory).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from repro.api import connect
from repro.bounders.registry import get_bounder
from repro.fastframe.executor import ApproximateExecutor
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import AbsoluteAccuracy

ROWS = int(os.environ.get("BENCH_HOT_PATH_ROWS", "400000"))
REPS = int(os.environ.get("BENCH_HOT_PATH_REPS", "3"))
BOUNDER = os.environ.get("BENCH_HOT_PATH_BOUNDER", "bernstein+rt")
OUT = os.environ.get("BENCH_HOT_PATH_OUT", "BENCH_hot_path.json")
PARALLELISM = max(int(os.environ.get("BENCH_PARALLELISM", "2")), 2)
GROUP_COUNTS = (1, 10, 100, 1000)
DELTA = 1e-9


def _scramble_with_groups(groups: int) -> Scramble:
    rng = np.random.default_rng(groups)
    table = Table(
        continuous={"x": rng.normal(100.0, 15.0, ROWS)},
        categorical={"g": rng.integers(0, groups, ROWS).astype(str)},
    )
    return Scramble(table, rng=np.random.default_rng(groups + 1))


def _executor(scramble: Scramble, engine: str) -> ApproximateExecutor:
    return ApproximateExecutor(
        scramble,
        get_bounder(BOUNDER),
        delta=DELTA,
        rng=np.random.default_rng(2),
        engine=engine,
    )


def _time_engines_paired(
    scramble: Scramble, query: Query
) -> tuple[float, float, int]:
    """Best-of-REPS for scalar and pool with the reps interleaved.

    Timing one engine's full rep loop and then the other's lets clock /
    load drift between the loops masquerade as an engine-speed ratio; the
    paired loop (same idiom as the fault-overhead measurement) exposes
    both engines to the same conditions rep by rep.
    """
    scalar_best = pool_best = float("inf")
    rounds = 0
    for _ in range(REPS):
        for engine in ("scalar", "pool"):
            executor = _executor(scramble, engine)
            start = time.perf_counter()
            result = executor.execute(query, start_block=0)
            elapsed = time.perf_counter() - start
            assert result.metrics.rows_read == scramble.num_rows  # full scan
            if engine == "scalar":
                scalar_best = min(scalar_best, elapsed)
                rounds = result.metrics.rounds
            else:
                pool_best = min(pool_best, elapsed)
    return scalar_best, pool_best, rounds


def run() -> dict:
    query_target = AbsoluteAccuracy(1e-9)  # unachievable: forces a full scan
    results = []
    for groups in GROUP_COUNTS:
        scramble = _scramble_with_groups(groups)
        query = Query(AggregateFunction.AVG, "x", query_target, group_by=("g",))
        # Warm load-time metadata (bitmap index, group domain, combined
        # codes) so timings measure query execution, not catalog builds.
        _executor(scramble, "pool").execute(query, start_block=0)

        scalar_s, pool_s, rounds = _time_engines_paired(scramble, query)
        entry = {
            "groups": groups,
            "rounds": rounds,
            "scalar_s": round(scalar_s, 6),
            "pool_s": round(pool_s, 6),
            "speedup": round(scalar_s / pool_s, 2),
            "rows_per_s_scalar": round(ROWS / scalar_s),
            "rows_per_s_pool": round(ROWS / pool_s),
            "per_round_ms_scalar": round(1e3 * scalar_s / max(rounds, 1), 3),
            "per_round_ms_pool": round(1e3 * pool_s / max(rounds, 1), 3),
        }
        results.append(entry)
        print(
            f"groups={groups:>5}  scalar={scalar_s:.3f}s  pool={pool_s:.3f}s  "
            f"speedup={entry['speedup']:>5}x  pool rows/s={entry['rows_per_s_pool']:,}"
        )
    return {
        "benchmark": "hot_path",
        "rows": ROWS,
        "reps": REPS,
        "bounder": BOUNDER,
        "delta": DELTA,
        "results": results,
    }


def _dashboard_scramble() -> Scramble:
    rng = np.random.default_rng(42)
    table = Table(
        continuous={
            "delay": rng.gamma(2.0, 6.0, ROWS) - 4.0,
            "distance": rng.uniform(100.0, 2500.0, ROWS),
        },
        categorical={
            "airline": rng.integers(0, 12, ROWS).astype(str),
            "origin": rng.integers(0, 40, ROWS).astype(str),
        },
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(43))


def _dashboard_handles(conn):
    """A 6-query dashboard: the paper's §4.1 multi-query session shape."""
    return [
        conn.table().group_by("airline").named("having-hi").avg("delay", above=9.0),
        conn.table().group_by("airline").named("having-lo").avg("delay", above=7.5),
        conn.table().where("origin", "7").named("origin-avg").avg("delay", rel=0.2),
        conn.table().group_by("airline").named("top3").avg("delay", top=3),
        conn.table().group_by("airline").named("counts").count(rel=0.05),
        conn.table().named("distance").avg("distance", rel=0.01),
    ]


def _dashboard_connection(
    scramble: Scramble,
    parallelism: int = 1,
    engine: str = "auto",
):
    return connect(
        scramble,
        bounder=BOUNDER,
        delta=DELTA,
        policy="harmonic",
        rng=np.random.default_rng(9),
        parallelism=parallelism,
        engine=engine,
    )


def _assert_intervals_match(gathered, sequential) -> None:
    """Statistical honesty: batching must not change any answer."""
    assert gathered.metrics.rows_read == sequential.metrics.rows_read
    assert set(gathered.groups) == set(sequential.groups)
    for key, left in gathered.groups.items():
        right = sequential.groups[key]
        for x, y in (
            (left.interval.lo, right.interval.lo),
            (left.interval.hi, right.interval.hi),
        ):
            if np.isfinite(x) or np.isfinite(y):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y)), (key, x, y)
            else:
                assert x == y


def run_dashboard() -> dict:
    """Gather-vs-sequential on the 6-query dashboard (best of REPS)."""
    scramble = _dashboard_scramble()
    start_block = 0
    # Warm load-time metadata so timings measure execution, not catalog builds.
    conn = _dashboard_connection(scramble)
    conn.gather(_dashboard_handles(conn), start_block=start_block)

    sequential_s = float("inf")
    shared_s = float("inf")
    sequential_rows = shared_rows = 0
    sequential_values = shared_values = 0
    sequential_bounds = shared_bounds = 0
    windows = 0
    for _ in range(REPS):
        conn = _dashboard_connection(scramble)
        handles = _dashboard_handles(conn)
        start = time.perf_counter()
        results = [handle.result(start_block=start_block) for handle in handles]
        sequential_s = min(sequential_s, time.perf_counter() - start)
        sequential_rows = sum(r.metrics.rows_read for r in results)
        sequential_values = sum(r.metrics.values_gathered for r in results)
        sequential_bounds = sum(r.metrics.bounds_recomputed for r in results)

        conn = _dashboard_connection(scramble)
        handles = _dashboard_handles(conn)
        start = time.perf_counter()
        batch = conn.gather(handles, start_block=start_block)
        shared_s = min(shared_s, time.perf_counter() - start)
        shared_rows = batch.rows_read_shared
        shared_values = batch.values_gathered
        shared_bounds = batch.metrics.bounds_recomputed
        windows = batch.metrics.rounds
        for gathered, sequential in zip(batch.results, results):
            _assert_intervals_match(gathered, sequential)
    # The window frame gathers each distinct column once per shared
    # window, however many of the 6 queries aggregate it.
    assert 0 < shared_values < sequential_values
    entry = {
        "queries": 6,
        "rows_read_sequential": sequential_rows,
        "rows_read_shared": shared_rows,
        "rows_saved_pct": round(100.0 * (1.0 - shared_rows / sequential_rows), 1),
        "values_gathered_sequential": sequential_values,
        "values_gathered_shared": shared_values,
        "values_saved_pct": round(
            100.0 * (1.0 - shared_values / sequential_values), 1
        ),
        "bounds_recomputed_sequential": sequential_bounds,
        "bounds_recomputed_shared": shared_bounds,
        "sequential_s": round(sequential_s, 6),
        "gather_s": round(shared_s, 6),
        "wall_speedup": round(sequential_s / shared_s, 2),
        "shared_windows": windows,
    }
    print(
        f"dashboard: sequential {sequential_rows:,} rows / {sequential_s:.3f}s, "
        f"gather {shared_rows:,} rows / {shared_s:.3f}s "
        f"({entry['rows_saved_pct']}% rows saved, {entry['wall_speedup']}x wall)"
    )
    print(
        f"dashboard: values gathered {sequential_values:,} sequential vs "
        f"{shared_values:,} shared ({entry['values_saved_pct']}% saved); "
        f"bounds recomputed {sequential_bounds:,} vs {shared_bounds:,}"
    )
    return entry


def run_parallel() -> dict:
    """Serial vs parallel gather on the dashboard (best of REPS).

    Wall-time speedup is hardware-bound (a 1-core host cannot win), but
    interval parity is asserted unconditionally — the parallel pipeline
    must be a pure performance knob.
    """
    scramble = _dashboard_scramble()
    start_block = 0
    # Pool engine on both sides: the worker-kernel protocol (partition in
    # workers, O(views) delta merge in main) only drives pool runs, and
    # the dashboard's GROUP BY cardinalities sit below the auto
    # threshold, where auto would dispatch to the scalar loop.
    engine = "pool"
    # Warm load-time metadata and the worker pool (fork + first-task cost).
    conn = _dashboard_connection(scramble, parallelism=PARALLELISM, engine=engine)
    conn.gather(_dashboard_handles(conn), start_block=start_block)

    serial_s = float("inf")
    serial_batch = parallel_batch = None
    for _ in range(REPS):
        conn = _dashboard_connection(scramble, parallelism=1, engine=engine)
        handles = _dashboard_handles(conn)
        start = time.perf_counter()
        serial_batch = conn.gather(handles, start_block=start_block)
        serial_s = min(serial_s, time.perf_counter() - start)

    # The fault-overhead comparison below is a percentage of a ~25ms
    # gather, where best-of-3 is dominated by scheduler noise (it once
    # reported −1.3%, i.e. the armed run "won").  Use the median of at
    # least 5 paired reps for both sides of that ratio; the headline
    # parallel_s stays best-of for comparability with serial_s.
    fault_reps = max(REPS, 5)
    parallel_times = []
    for _ in range(fault_reps):
        conn = _dashboard_connection(scramble, parallelism=PARALLELISM, engine=engine)
        handles = _dashboard_handles(conn)
        start = time.perf_counter()
        parallel_batch = conn.gather(handles, start_block=start_block)
        parallel_times.append(time.perf_counter() - start)
    parallel_s = min(parallel_times)

    # Fault-machinery overhead: the recovery layer (deadline-waited
    # futures, per-dispatch chaos draws, attempt bookkeeping) must be
    # ~free when no fault fires.  An armed zero-rate plan exercises the
    # full draw path without ever injecting.
    from repro.testing.faults import FaultPlan, install_fault_plan, reset_faults

    armed_times = []
    armed_batch = None
    install_fault_plan(FaultPlan(rate=0.0))
    try:
        for _ in range(fault_reps):
            conn = _dashboard_connection(
                scramble, parallelism=PARALLELISM, engine=engine
            )
            handles = _dashboard_handles(conn)
            start = time.perf_counter()
            armed_batch = conn.gather(handles, start_block=start_block)
            armed_times.append(time.perf_counter() - start)
    finally:
        reset_faults()
    fault_armed_s = float(np.median(armed_times))
    assert not armed_batch.metrics.recovery_snapshot(), (
        "a zero-rate fault plan must never trigger recovery"
    )

    for parallel_result, serial_result in zip(parallel_batch, serial_batch):
        _assert_intervals_match(parallel_result, serial_result)
    for armed_result, serial_result in zip(armed_batch, serial_batch):
        _assert_intervals_match(armed_result, serial_result)
    assert parallel_batch.rows_read_shared == serial_batch.rows_read_shared
    assert parallel_batch.values_gathered == serial_batch.values_gathered
    cores = os.cpu_count() or 1
    stage = parallel_batch.metrics
    # Median-of-paired-medians, floored at 0: the machinery cannot make
    # the gather *faster*, so a negative ratio is measurement noise by
    # definition and reports as 0.0.
    parallel_median_s = float(np.median(parallel_times))
    fault_overhead_pct = round(
        max(0.0, 100.0 * (fault_armed_s - parallel_median_s) / parallel_median_s),
        1,
    )
    entry = {
        "parallelism": PARALLELISM,
        "cores": cores,
        "queries": len(serial_batch.handles),
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 2),
        "interval_parity": True,  # asserted ≤1e-9 above
        # Worker-kernel stage split of the LAST parallel rep: partition
        # wall is summed across worker tasks (can exceed elapsed time),
        # merge wall is the main process's delta folds.
        "partition_wall_s": round(stage.partition_wall_s, 6),
        "merge_wall_s": round(stage.merge_wall_s, 6),
        "delta_bytes_returned": int(stage.delta_bytes_returned),
        # Recovery machinery cost with injection disabled: armed
        # zero-rate plan vs plain parallel, median of >= 5 paired reps
        # each, floored at 0 (negative = noise).  The CI gate warns
        # above 2%.
        "fault_reps": fault_reps,
        "fault_armed_s": round(fault_armed_s, 6),
        "fault_overhead_pct": fault_overhead_pct,
    }
    print(
        f"parallel ingest: serial gather {serial_s:.3f}s vs "
        f"parallelism={PARALLELISM} {parallel_s:.3f}s "
        f"({entry['speedup']}x on {cores} core(s)); intervals identical; "
        f"stages: partition {stage.partition_wall_s:.3f}s (worker-summed) / "
        f"merge {stage.merge_wall_s:.3f}s, "
        f"{stage.delta_bytes_returned:,} delta bytes over IPC; "
        f"fault machinery armed: {fault_armed_s:.3f}s median "
        f"({fault_overhead_pct:.1f}% overhead floor-0, "
        f"median of {fault_reps} paired reps, no faults fired)"
    )
    return entry


def run_kernel() -> dict:
    """The fused ingest kernel across the bucketing crossover.

    Times :func:`~repro.fastframe.kernels.partition_ingest` (one fused
    slice → gather → sort → lookup pass, with low-cardinality bucketing)
    on the full-scan all-pass slice, across group cardinalities
    straddling ``BUCKET_MAX_CARDINALITY``.
    """
    from repro.fastframe.kernels import BUCKET_MAX_CARDINALITY, partition_ingest

    rng = np.random.default_rng(77)
    n = min(ROWS, 200_000)
    values = rng.normal(0.0, 1.0, n)
    pred = np.ones(n, dtype=bool)  # all-pass: the full-scan hot case

    sweep = []
    for groups in (8, 256, 4096, BUCKET_MAX_CARDINALITY, 2 * BUCKET_MAX_CARDINALITY):
        codes = np.arange(groups, dtype=np.int64)
        combined = rng.integers(0, groups, n).astype(np.int64)
        fused_s = float("inf")
        for _ in range(REPS):
            start = time.perf_counter()
            delta = partition_ingest(
                n,
                None,
                lambda: pred,
                codes,
                values_of=lambda pick: values[pick],
                combined_of=lambda pick: combined[pick],
            )
            fused_s = min(fused_s, time.perf_counter() - start)
        assert delta.n_in_view == n
        sweep.append(
            {
                "groups": groups,
                "bucketed": groups <= BUCKET_MAX_CARDINALITY,
                "fused_s": round(fused_s, 6),
                "ns_per_row": round(1e9 * fused_s / n, 2),
            }
        )
        print(
            f"kernel: groups={groups:>6}  fused={fused_s:.4f}s  "
            f"({sweep[-1]['ns_per_row']} ns/row)"
            f"{'  (bucketed)' if sweep[-1]['bucketed'] else ''}"
        )
    return {
        "rows": n,
        "bucket_max_cardinality": BUCKET_MAX_CARDINALITY,
        "sweep": sweep,
    }


def _reference_clip(indices, values, carry_min, carry_max, counts):
    """Per-element Algorithm 6 over one sorted stream: the fed elements'
    view, ``min(v, prior max)`` and ``max(v, prior min)``, in plain Python."""
    run_min, run_max = carry_min.tolist(), carry_max.tolist()
    seen = counts.tolist()
    fed, left, right = [], [], []
    for view, value in zip(indices.tolist(), values.tolist()):
        if seen[view]:
            fed.append(view)
            left.append(min(value, run_max[view]))
            right.append(max(value, run_min[view]))
        seen[view] += 1
        run_max[view] = max(run_max[view], value)
        run_min[view] = min(run_min[view], value)
    return np.array(fed, dtype=np.int64), np.array(left), np.array(right)


def run_range_trim() -> dict:
    """RangeTrim's record-only clip: cost and candidate rate per window.

    Replays windowed view-sorted streams through ``bernstein+rt``'s pool
    and times the pure clip (``_clip_segments`` over the pool's
    ``delta_context``) per window.  The first window meets fresh views —
    every element is a candidate, the dense worst case; from the second
    on only elements beyond a view's carried extrema are.  Every window's
    clipped streams are asserted ``==`` the per-element reference.
    """
    bounder = get_bounder("bernstein+rt")
    window = 25_000
    num_windows = max(2, min(ROWS, 200_000) // window)
    sweep = []
    for views in (10, 200, 1400):
        rng = np.random.default_rng(views)
        pool = bounder.init_pool(views)
        ns_per_row, candidates_per_row = [], []
        for _ in range(num_windows):
            indices = np.sort(rng.integers(0, views, window)).astype(np.int64)
            values = rng.normal(100.0, 15.0, window)
            carry_min, carry_max, counts, _, _ = bounder.delta_context(pool)
            best = float("inf")
            for _ in range(REPS):
                start = time.perf_counter()
                clipped = bounder._clip_segments(
                    indices, values, carry_min, carry_max, counts
                )
                best = min(best, time.perf_counter() - start)
            expected = _reference_clip(indices, values, carry_min, carry_max, counts)
            for got, want in zip(clipped[3:], expected):
                assert np.array_equal(got, want)
            candidates = np.count_nonzero(
                (values > carry_max[indices]) | (values < carry_min[indices])
            )
            ns_per_row.append(1e9 * best / window)
            candidates_per_row.append(int(candidates) / window)
            bounder.update_pool(pool, indices, values)
        entry = {
            "views": views,
            "first_window_ns_per_row": round(ns_per_row[0], 2),
            "first_window_candidates_per_row": round(candidates_per_row[0], 5),
            "steady_ns_per_row": round(float(np.median(ns_per_row[1:])), 2),
            "steady_candidates_per_row": round(
                float(np.mean(candidates_per_row[1:])), 5
            ),
        }
        sweep.append(entry)
        print(
            f"range-trim clip: views={views:>5}  first window "
            f"{entry['first_window_ns_per_row']} ns/row "
            f"({entry['first_window_candidates_per_row']} cand/row), steady "
            f"{entry['steady_ns_per_row']} ns/row "
            f"({entry['steady_candidates_per_row']} cand/row)"
        )
    return {
        "window_rows": window,
        "windows": num_windows,
        "sweep": sweep,
        "stream_parity": True,  # asserted == per window above
    }


def run_anderson() -> dict:
    """CSR pooled sample buffers vs the per-view-buffer baseline.

    Replays the same windowed sorted streams through both layouts —
    the CSR pool's vectorized segment appends + grouped row-wise
    ``np.partition`` bound kernel vs one Python ``SampleState`` per view
    with per-view trimmed means (the pre-CSR pool layout) — and asserts
    the resulting intervals agree to ≤ 1e-9.
    """
    from repro.bounders.anderson import (
        AndersonBounder,
        SampleState,
        anderson_lower_bound,
    )
    from repro.bounders.base import iter_segments

    # High-cardinality regime (the pool engine's target): the per-view
    # Python loop is the baseline's bottleneck, the CSR pool's segment
    # scatter and grouped partition kernel amortize over views.
    views = int(os.environ.get("BENCH_ANDERSON_VIEWS", "2000"))
    rows = min(ROWS, 200_000)
    window = 20_000
    a, b, delta = 0.0, 200.0, 1e-6
    rng = np.random.default_rng(23)
    windows = []
    for start in range(0, rows, window):
        count = min(window, rows - start)
        indices = np.sort(rng.integers(0, views, count)).astype(np.int64)
        windows.append((indices, rng.uniform(a + 1.0, b - 1.0, count)))
    bounder = AndersonBounder()
    n_plus = np.full(views, rows, dtype=np.int64)

    csr_ingest_s = csr_bound_s = float("inf")
    base_ingest_s = base_bound_s = float("inf")
    csr_bounds = base_bounds = None
    for _ in range(REPS):
        pool = bounder.init_pool(views)
        start = time.perf_counter()
        for indices, values in windows:
            bounder.update_pool(pool, indices, values)
        csr_ingest_s = min(csr_ingest_s, time.perf_counter() - start)
        start = time.perf_counter()
        csr_bounds = bounder.confidence_interval_batch(pool, a, b, n_plus, delta)
        csr_bound_s = min(csr_bound_s, time.perf_counter() - start)

        states = [SampleState() for _ in range(views)]
        start = time.perf_counter()
        for indices, values in windows:
            for seg_start, seg_end, slot in iter_segments(indices):
                states[slot].extend(values[seg_start:seg_end])
        base_ingest_s = min(base_ingest_s, time.perf_counter() - start)
        start = time.perf_counter()
        half = delta / 2.0
        lo = np.empty(views)
        hi = np.empty(views)
        for slot in range(views):
            sample = states[slot].values
            lo[slot] = anderson_lower_bound(sample, a, half)
            hi[slot] = (a + b) - anderson_lower_bound((a + b) - sample, a, half)
        base_bounds = (np.clip(lo, a, b), np.clip(hi, a, b))
        base_bound_s = min(base_bound_s, time.perf_counter() - start)

    for csr_arr, base_arr in zip(csr_bounds, base_bounds):
        assert np.allclose(csr_arr, base_arr, rtol=1e-9, atol=1e-9)
    entry = {
        "views": views,
        "rows": rows,
        "windows": len(windows),
        "csr_ingest_s": round(csr_ingest_s, 6),
        "baseline_ingest_s": round(base_ingest_s, 6),
        "ingest_speedup": round(base_ingest_s / csr_ingest_s, 2),
        "csr_bound_s": round(csr_bound_s, 6),
        "baseline_bound_s": round(base_bound_s, 6),
        "bound_speedup": round(base_bound_s / csr_bound_s, 2),
        "layout_parity": True,  # asserted ≤1e-9 above
    }
    print(
        f"anderson pool: ingest CSR {csr_ingest_s:.4f}s vs per-view "
        f"{base_ingest_s:.4f}s ({entry['ingest_speedup']}x); bound CSR "
        f"{csr_bound_s:.4f}s vs {base_bound_s:.4f}s "
        f"({entry['bound_speedup']}x) at {views} views"
    )
    return entry


def run_quantile() -> dict:
    """Grouped quantile-rank kernel vs the per-view scalar loop.

    The quantile family rides the same CSR pool as Anderson, but its
    bound kernel selects order statistics: one row-wise ``np.sort`` per
    equal-count group serves both CI endpoints.  The baseline is the
    scalar reference — one ``QuantileBounder.confidence_interval`` call
    per view.  Both paths pick elements of the same multiset, so parity
    is asserted **exactly**, not to 1e-9.
    """
    from repro.bounders.quantile import QuantileBounder

    rows = min(ROWS, 200_000)
    window = 20_000
    a, b, delta, p = 0.0, 200.0, 1e-6, 0.95
    sweep = []
    for views in (10, 100, 2000):
        rng = np.random.default_rng(views)
        windows = []
        for start in range(0, rows, window):
            count = min(window, rows - start)
            indices = np.sort(rng.integers(0, views, count)).astype(np.int64)
            windows.append((indices, rng.uniform(a + 1.0, b - 1.0, count)))
        bounder = QuantileBounder(p)
        n_plus = np.full(views, rows, dtype=np.int64)

        pool_s = scalar_s = float("inf")
        pool_bounds = scalar_bounds = None
        for _ in range(REPS):
            pool = bounder.init_pool(views)
            states = [bounder.init_state() for _ in range(views)]
            for indices, values in windows:
                bounder.update_pool(pool, indices, values)
                boundaries = np.flatnonzero(np.diff(indices)) + 1
                for chunk, slot in zip(
                    np.split(values, boundaries), np.unique(indices)
                ):
                    bounder.update_batch(states[slot], chunk)

            start = time.perf_counter()
            pool_bounds = bounder.confidence_interval_batch(
                pool, a, b, n_plus, delta
            )
            pool_s = min(pool_s, time.perf_counter() - start)

            start = time.perf_counter()
            lo = np.empty(views)
            hi = np.empty(views)
            for slot in range(views):
                interval = bounder.confidence_interval(
                    states[slot], a, b, rows, delta
                )
                lo[slot], hi[slot] = interval.lo, interval.hi
            scalar_bounds = (lo, hi)
            scalar_s = min(scalar_s, time.perf_counter() - start)

        assert np.array_equal(pool_bounds[0], scalar_bounds[0])
        assert np.array_equal(pool_bounds[1], scalar_bounds[1])
        sweep.append(
            {
                "views": views,
                "pool_bound_s": round(pool_s, 6),
                "scalar_bound_s": round(scalar_s, 6),
                "speedup": round(scalar_s / pool_s, 2),
            }
        )
        print(
            f"quantile(p={p}) bound: pool {pool_s:.4f}s vs scalar "
            f"{scalar_s:.4f}s ({sweep[-1]['speedup']}x) at {views} views"
        )
    return {
        "p": p,
        "rows": rows,
        "sweep": sweep,
        "pool_parity": True,  # asserted exact (==) above
    }


def run_storage() -> dict:
    """Out-of-core block storage: cold vs warm-cache dashboard.

    Spills the dashboard scramble to an mmap block store and runs the
    6-query dashboard on a *cold* connection (every demanded block read
    from disk) and then on a second connection over the same directory
    (the shared cross-connection cache serves the blocks the first one
    paid for).  Asserts interval parity (≤ 1e-9; in fact byte-identical)
    against resident in-memory execution, that the warm connection reads
    ≥ 50% fewer bytes than the cold one, and that the gather path never
    materializes a whole value column (zero-copy block views only).
    """
    import shutil
    import tempfile

    from repro.fastframe.storage import open_block_scramble, write_block_store

    scramble = _dashboard_scramble()
    start_block = 0
    # Resident reference (also warms load-time metadata shapes).
    conn = _dashboard_connection(scramble)
    reference = conn.gather(_dashboard_handles(conn), start_block=start_block)

    directory = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        spill_start = time.perf_counter()
        write_block_store(directory, scramble, block_rows=16_384)
        spill_s = time.perf_counter() - spill_start

        oc_scramble = open_block_scramble(directory)
        store = oc_scramble.storage
        try:
            start = time.perf_counter()
            conn = _dashboard_connection(oc_scramble)
            cold_batch = conn.gather(_dashboard_handles(conn), start_block=start_block)
            cold_s = time.perf_counter() - start
            cold_bytes = store.stats.bytes_read
            cold_blocks = store.stats.blocks_read

            # Second connection over the same directory: the store
            # registry + shared block cache serve it without re-reading.
            start = time.perf_counter()
            conn = _dashboard_connection(open_block_scramble(directory))
            warm_batch = conn.gather(_dashboard_handles(conn), start_block=start_block)
            warm_s = time.perf_counter() - start
            warm_bytes = store.stats.bytes_read - cold_bytes

            for batch in (cold_batch, warm_batch):
                for oc_result, ref_result in zip(batch, reference):
                    _assert_intervals_match(oc_result, ref_result)
            assert cold_bytes > 0
            assert warm_bytes <= 0.5 * cold_bytes, (warm_bytes, cold_bytes)
            # Zero-copy contract: value gathers slice block views, they
            # never fault whole columns in.
            materialized = store.stats.materialized_columns
            zero_copy = not {"delay", "distance"} & materialized
            assert zero_copy, materialized
            stats = store.stats
            entry = {
                "rows": ROWS,
                "block_rows": 16_384,
                "spill_s": round(spill_s, 6),
                "cold_gather_s": round(cold_s, 6),
                "warm_gather_s": round(warm_s, 6),
                "cold_bytes_read": int(cold_bytes),
                "cold_blocks_read": int(cold_blocks),
                "warm_bytes_read": int(warm_bytes),
                "warm_bytes_saved_pct": round(
                    100.0 * (1.0 - warm_bytes / cold_bytes), 1
                ),
                "cache_hits": int(stats.cache_hits),
                "cache_evictions": int(stats.cache_evictions),
                "prefetch_hits": int(stats.prefetch_hits),
                "interval_parity": True,  # asserted ≤1e-9 vs in-memory above
                "zero_copy": zero_copy,
            }
            print(
                f"storage: spill {spill_s:.3f}s; cold gather {cold_s:.3f}s "
                f"({cold_bytes:,} bytes / {cold_blocks} blocks), warm gather "
                f"{warm_s:.3f}s ({warm_bytes:,} bytes, "
                f"{entry['warm_bytes_saved_pct']}% saved); "
                f"{stats.cache_hits} cache hits, {stats.prefetch_hits} "
                f"prefetch hits; intervals identical to in-memory"
            )
            return entry
        finally:
            store.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> int:
    payload = run()
    payload["dashboard"] = run_dashboard()
    payload["parallel"] = run_parallel()
    payload["kernel"] = run_kernel()
    payload["range_trim"] = run_range_trim()
    payload["anderson"] = run_anderson()
    payload["quantile"] = run_quantile()
    payload["storage"] = run_storage()
    with open(OUT, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {OUT}")
    failed = False
    top = payload["results"][-1]
    if top["groups"] >= 1000 and top["speedup"] < 5.0:
        print(
            f"WARNING: 1000-group speedup {top['speedup']}x below the 5x target",
            file=sys.stderr,
        )
        # Shared CI runners are noisy; only fail the build when asked to
        # enforce the target (BENCH_HOT_PATH_STRICT=1).
        failed = True
    # Low-cardinality floor: the bucketing kernel exists so the pool
    # engine stops losing to the scalar loop at tiny group counts
    # (historically 0.62x at 1 group).  Pool must stay >= 0.9x scalar.
    for entry in payload["results"]:
        if entry["groups"] <= 10 and entry["speedup"] < 0.9:
            print(
                f"WARNING: pool is {entry['speedup']}x scalar at "
                f"{entry['groups']} group(s), below the 0.9x floor",
                file=sys.stderr,
            )
            failed = True
    if failed and os.environ.get("BENCH_HOT_PATH_STRICT") == "1":
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
