"""Hot-path micro-benchmarks: vectorized pool engine vs the scalar
reference, plus the kernels underneath them.

Whole-query stories (shared-scan dashboards, parallel ingest, out-of-core
storage) are ``benchmarks/e2e``'s — SQL text in, checked intervals out;
this file times single layers.

Part 1 times a full-scan AVG GROUP BY query (an unachievable accuracy
target, so every row is ingested and every round recomputes bounds for
every view) at 1, 10, 100, and 1000 groups, for both executor engines.

Part 2 times the fused ingest kernel
(``repro/fastframe/kernels.partition_ingest``) across group cardinalities
straddling the bucketing threshold.  The ``kernel`` JSON entry records the
sweep.  (The comparison against a reimplementation of the pre-kernel
composed passes was deleted once its 4-5x was on record in
PERFORMANCE.md; ``tests/fastframe/test_kernels.py`` pins the bytes.)

Part 3 times RangeTrim's record-only clip (``RangeTrimBounder.
_clip_segments``) at 10 / 200 / 1 400 views: ns per row and candidates
per row for the first window (fresh views: every element is a candidate)
and in steady state, asserting the clipped streams ``==`` a per-element
Algorithm 6 loop.  The ``range_trim`` JSON entry records both.

Part 4 times Anderson's pooled CSR sample buffers against the per-view
buffer baseline (one ``SampleState`` per view, the pre-CSR pool layout):
windowed sorted-stream ingest and the batched confidence-interval
kernel, asserting ≤ 1e-9 parity between the layouts.  The ``anderson``
JSON entry records both walls and the speedups.

Part 5 (``quantile``) times the quantile bounder's pool kernels the way
the executor calls them — append a window, then bound every view and read
its estimate, window after window — against the per-view scalar calls,
asserting exact parity every window.

Emits ``BENCH_hot_path.json`` — the repository's performance trajectory
(see PERFORMANCE.md) — and checks the emitted entries' keys, parity flags
and sweep lengths (:func:`check_payload`; exits non-zero on any).

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

from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import _PoolRun, _ScalarRun
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import ScanCursor
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import AbsoluteAccuracy

ROWS = int(os.environ.get("BENCH_HOT_PATH_ROWS", "400000"))
REPS = int(os.environ.get("BENCH_HOT_PATH_REPS", "3"))
BOUNDER = os.environ.get("BENCH_HOT_PATH_BOUNDER", "bernstein+rt")
OUT = os.environ.get("BENCH_HOT_PATH_OUT", "BENCH_hot_path.json")
GROUP_COUNTS = (1, 10, 100, 1000)
DELTA = 1e-9


def _scramble_with_groups(groups: int) -> Scramble:
    rng = np.random.default_rng(groups)
    table = Table(
        continuous={"x": rng.normal(100.0, 15.0, ROWS)},
        categorical={"g": rng.integers(0, groups, ROWS).astype(str)},
    )
    return Scramble(table, rng=np.random.default_rng(groups + 1))


#: The two engines, by name; each is timed by constructing its run class.
ENGINES = {"scalar": _ScalarRun, "pool": _PoolRun}


def _execute(scramble: Scramble, engine: str, query: Query, config: ExecConfig):
    """Run ``query`` to completion on one engine, scanning from block 0."""
    run = ENGINES[engine](scramble, query, bounder=get_bounder(BOUNDER), delta=DELTA)
    for _ in run.drive(ScanCursor(scramble, 0, run.window_blocks), config):
        pass
    return run.finalize()


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
    config = ExecConfig.resolve()
    for _ in range(REPS):
        for engine in ENGINES:
            start = time.perf_counter()
            result = _execute(scramble, engine, query, config)
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
        _execute(scramble, "pool", query, ExecConfig.resolve())

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
    and times the pure clip (``_clip_segments`` over the pool's extrema
    and counts) per window.  The first window meets fresh views —
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
            carry_min, carry_max, counts = pool.min, pool.max, pool.count
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
    """Quantile pool kernels vs the per-view scalar loop, called the way
    the executor calls them.

    Window after window, the stream is appended to the pool (and to one
    ``SampleState`` per view); then the pool bounds every view with one
    ``confidence_interval_batch`` and reads the snapshot's
    ``estimate_batch``, and the scalar reference makes one
    ``confidence_interval`` and one ``estimate`` call per view.  Each
    side's wall sums those bound and estimate calls over all windows
    (ingest is not timed).  Both sides pick the same order statistic of
    the same multiset, so every window's parity is asserted **exactly**
    (``==``), not to 1e-9.
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
        for _ in range(REPS):
            pool = bounder.init_pool(views)
            states = [bounder.init_state() for _ in range(views)]
            pool_rep = scalar_rep = 0.0
            for indices, values in windows:
                bounder.update_pool(pool, indices, values)
                start = time.perf_counter()
                pool_lo, pool_hi = bounder.confidence_interval_batch(
                    pool, a, b, n_plus, delta
                )
                pool_est = bounder.estimate_batch(pool, fill=np.nan)
                pool_rep += time.perf_counter() - start

                boundaries = np.flatnonzero(np.diff(indices)) + 1
                for chunk, slot in zip(
                    np.split(values, boundaries), np.unique(indices)
                ):
                    bounder.update_batch(states[slot], chunk)
                start = time.perf_counter()
                lo = np.empty(views)
                hi = np.empty(views)
                est = np.full(views, np.nan)
                for slot, state in enumerate(states):
                    interval = bounder.confidence_interval(state, a, b, rows, delta)
                    lo[slot], hi[slot] = interval.lo, interval.hi
                    if state.count:
                        est[slot] = bounder.estimate(state)
                scalar_rep += time.perf_counter() - start

                assert np.array_equal(pool_lo, lo)
                assert np.array_equal(pool_hi, hi)
                assert np.array_equal(pool_est, est, equal_nan=True)
            pool_s = min(pool_s, pool_rep)
            scalar_s = min(scalar_s, scalar_rep)

        sweep.append(
            {
                "views": views,
                "pool_bound_s": round(pool_s, 6),
                "scalar_bound_s": round(scalar_s, 6),
                "speedup": round(scalar_s / pool_s, 2),
            }
        )
        print(
            f"quantile(p={p}) bound+estimate per window: pool {pool_s:.4f}s vs "
            f"scalar {scalar_s:.4f}s ({sweep[-1]['speedup']}x) at {views} views"
        )
    return {
        "p": p,
        "rows": rows,
        "windows": len(windows),
        "sweep": sweep,
        "pool_parity": True,  # asserted exact (==) every window above
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"BENCH_hot_path check failed: {message}")


def check_payload(payload: dict) -> None:
    """Structural checks on the emitted entries: keys, parity flags and
    sweep lengths.  None is a timing, so they run on every invocation and
    exit non-zero (the wall-clock targets in :func:`main` stay advisory
    unless ``BENCH_HOT_PATH_STRICT=1``)."""
    # The unified ingest kernel's entry must exist with its bucketing
    # sweep (byte identity with the composed passes is pinned by
    # tests/fastframe/test_kernels.py).
    entry = payload["kernel"]
    for key in ("bucket_max_cardinality", "sweep"):
        _require(key in entry, f"kernel: missing metric {key}: {entry}")
    _require(len(entry["sweep"]) >= 3, f"kernel: short sweep: {entry}")
    _require(
        any(point["bucketed"] for point in entry["sweep"]),
        f"kernel: no bucketed point: {entry}",
    )

    # The record-only clip's entry must exist with its asserted ==
    # stream-parity flag (clipped streams vs the per-element Algorithm 6
    # loop), and steady-state windows must see far fewer candidates than
    # the all-candidates first window.
    entry = payload["range_trim"]
    _require(entry.get("stream_parity") is True, f"range_trim: no parity: {entry}")
    _require(len(entry["sweep"]) >= 3, f"range_trim: short sweep: {entry}")
    for point in entry["sweep"]:
        _require(
            point["first_window_candidates_per_row"] == 1.0
            and point["steady_candidates_per_row"] < 0.5
            and point["steady_ns_per_row"] > 0,
            f"range_trim: {point}",
        )

    # The pooled CSR sample-buffer entry must exist with both layout
    # walls and its asserted ≤1e-9 CSR-vs-per-view-buffer parity flag.
    entry = payload["anderson"]
    for key in (
        "views", "rows", "csr_ingest_s", "baseline_ingest_s",
        "ingest_speedup", "csr_bound_s", "baseline_bound_s",
        "bound_speedup",
    ):
        _require(
            key in entry and entry[key] > 0,
            f"anderson: missing metric {key}: {entry}",
        )
    _require(entry.get("layout_parity") is True, f"anderson: no parity: {entry}")

    # The quantile kernels' entry must exist with its view sweep and
    # the asserted *exact* pool-vs-scalar parity flag (both paths select
    # order statistics of the same multiset: ==, not 1e-9).
    entry = payload["quantile"]
    for key in ("p", "rows", "sweep"):
        _require(key in entry, f"quantile: missing metric {key}: {entry}")
    _require(entry.get("pool_parity") is True, f"quantile: no parity: {entry}")
    _require(len(entry["sweep"]) >= 3, f"quantile: short sweep: {entry}")
    for point in entry["sweep"]:
        _require(
            point["pool_bound_s"] > 0 and point["scalar_bound_s"] > 0,
            f"quantile: {point}",
        )


def main() -> int:
    payload = run()
    payload["kernel"] = run_kernel()
    payload["range_trim"] = run_range_trim()
    payload["anderson"] = run_anderson()
    payload["quantile"] = run_quantile()
    with open(OUT, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {OUT}")
    check_payload(payload)
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
