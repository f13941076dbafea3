"""Metric glossary and ``compare.py A.json B.json``: the regression verdict.

``A`` is the parent (or the first of an A/A pair), ``B`` the change.  For
every (workload, end-to-end metric) the verdict is one of

* ``unchanged``  — B is no worse than A by more than the metric's bound;
* ``improved`` / ``REGRESSED`` — B is better / worse by more than the bound;
* ``unresolved`` — either side's own run-to-run spread (quartile distance
  over median, from ``run.py --repeat``) exceeds the bound, so the two
  medians cannot be told apart;
* ``equal`` / ``DIFFERS`` — count metrics, which repeat exactly when both
  sides ran the same fixed number of cycles (``run.py --cycles``); a count
  may fall but not rise.  On time-bounded runs counts are shown, not judged.

Exit status is the verdict: 0 when nothing regressed, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of A's median by which B may be worse; 0 marks an exact count.
E2E_METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.15),
    "latency_p50_ms": ("ms", "lower", 0.15),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "first_round_p50_ms": ("ms", "lower", 0.15),
    "rows_per_s": ("1/s", "higher", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "rows_read_per_op": ("count", "lower", 0),
    "blocks_fetched_per_op": ("count", "lower", 0),
    "ci_width_frac_p50": ("ratio", "lower", 0),
    "failure_rate": ("ratio", "lower", 0),
}
#: The metrics the driver gates on (BENCHMARK.json ``end_to_end``): the ones
#: every workload reports, that are never 0 and that a seed does not move.
DRIVER_E2E = ("latency_p50_ms", "latency_tail_ms", "rows_per_s", "peak_rss_mb", "setup_s")
#: ``wall_s`` is a result only when the op count is fixed.
CYCLES_ONLY = ("wall_s",)

#: Per-layer metrics: name -> (unit, better, exact count?).  Times are self
#: time per op from the traced pass; counts are per op from public
#: ``ExecutionMetrics``.  No bound: they explain, the end-to-end metrics judge.
LAYER_METRICS = {
    "sql.parse_ms": ("ms", "lower", False),
    "api.plan_ms": ("ms", "lower", False),
    "api.snapshot_ms": ("ms", "lower", False),
    "api.finalize_ms": ("ms", "lower", False),
    "api.first_round_p50_ms": ("ms", "lower", False),
    "scan.select_blocks_ms": ("ms", "lower", False),
    "scan.cursor_ms": ("ms", "lower", False),
    "scan.blocks_fetched": ("count", "lower", True),
    "scan.blocks_skipped": ("count", "higher", True),
    "scan.batch_probes": ("count", "lower", True),
    "scan.skip_ratio": ("ratio", "higher", True),
    "scan.rows_read": ("count", "lower", True),
    "executor.round_ms": ("ms", "lower", False),
    "executor.ci_width_frac_p50": ("ratio", "lower", True),
    "window.frame_ms": ("ms", "lower", False),
    "window.gather_values_ms": ("ms", "lower", False),
    "window.combined_codes_ms": ("ms", "lower", False),
    "window.predicate_mask_ms": ("ms", "lower", False),
    "window.export_ms": ("ms", "lower", False),
    "window.values_gathered": ("count", "lower", True),
    "window.share_ratio": ("ratio", "higher", True),
    "kernels.partition_ms": ("ms", "lower", False),
    "kernels.rows_partitioned": ("count", "lower", True),
    "kernels.ns_per_row": ("ns", "lower", False),
    "viewpool.merge_ms": ("ms", "lower", False),
    "viewpool.snapshot_ms": ("ms", "lower", False),
    "viewpool.views": ("count", "lower", True),
    "bounders.bound_ms": ("ms", "lower", False),
    "bounders.bounds_recomputed": ("count", "lower", True),
    "bounders.ns_per_bound": ("ns", "lower", False),
    "stopping.evaluate_ms": ("ms", "lower", False),
    "stopping.rounds": ("count", "lower", True),
    "stopping.stopped_early_ratio": ("ratio", "higher", True),
    "storage.gather_ms": ("ms", "lower", False),
    "storage.block_ms": ("ms", "lower", False),
    "storage.cache_hits": ("count", "higher", True),
    "storage.hit_ratio": ("ratio", "higher", True),
    "storage.blocks_read": ("count", "lower", True),
    "storage.bytes_read": ("B", "lower", True),
    "storage.cache_evictions": ("count", "lower", True),
    "storage.prefetch_hits": ("count", "higher", True),
    "storage.read_amplification": ("ratio", "lower", False),
    "storage.spill_s": ("s", "lower", False),
    "storage.spill_mb_per_s": ("MB/s", "higher", False),
    "storage.disk_bytes_per_user_byte": ("ratio", "lower", True),
    "storage.open_ms": ("ms", "lower", False),
    "parallel.run_ms": ("ms", "lower", False),
    "parallel.partition_wall_ms": ("ms", "lower", False),
    "parallel.merge_wall_ms": ("ms", "lower", False),
    "parallel.delta_bytes": ("B", "lower", True),
    "parallel.tasks_retried": ("count", "lower", False),
    "parallel.inline_fallbacks": ("count", "lower", False),
    "parallel.workers": ("count", "higher", True),
    "parallel.efficiency": ("ratio", "higher", False),
    "datasets.generate_s": ("s", "lower", False),
    "scramble.build_s": ("s", "lower", False),
    "catalog.warm_s": ("s", "lower", False),
    "exact.query_ms": ("ms", "lower", False),
    "exact.speedup": ("ratio", "higher", False),
    "trace.op_ms": ("ms", "lower", False),
    "trace.untraced_ms": ("ms", "lower", False),
    "trace.overhead_pct": ("%", "lower", False),
}


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 with under two runs)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def _series(doc: dict, workload: str, section: str, metric: str) -> list[float]:
    """The metric's value in each run of the file (absent values dropped)."""
    values = (run.get(workload, {}).get(section, {}).get(metric) for run in doc["runs"])
    return [v for v in values if v is not None]


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else (1.0 if (b > a) == (better == "lower") else -1.0)
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(doc_a: dict, doc_b: dict) -> tuple[list[tuple], bool]:
    """Rows of (workload, metric, a, b, unit, worse_by, verdict); any regression?"""
    fixed = (
        doc_a["meta"].get("cycles") is not None
        and doc_a["meta"].get("cycles") == doc_b["meta"].get("cycles")
        and doc_a["meta"]["seed"] == doc_b["meta"]["seed"]
    )
    rows, regressed = [], False
    workloads = [w for w in doc_a["runs"][0] if w in doc_b["runs"][0]]
    for workload in workloads:
        for metric, (unit, better, bound) in E2E_METRICS.items():
            if metric in CYCLES_ONLY and not fixed:
                continue
            a_runs = _series(doc_a, workload, "e2e", metric)
            b_runs = _series(doc_b, workload, "e2e", metric)
            if not a_runs or not b_runs:
                continue
            a, b = statistics.median(a_runs), statistics.median(b_runs)
            worse = _worse_by(a, b, better)
            if bound == 0:
                if not fixed:
                    verdict = "not judged (time-bounded)"
                elif a == b:
                    verdict = "equal"
                else:
                    verdict = "improved" if worse < 0 else "DIFFERS"
            elif max(spread(a_runs), spread(b_runs)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "improved" if worse < -bound else "unchanged"
            regressed |= verdict in ("REGRESSED", "DIFFERS")
            rows.append((workload, metric, a, b, unit, worse, verdict))
        for metric, (unit, better, exact) in LAYER_METRICS.items():
            a_runs = _series(doc_a, workload, "layers", metric)
            b_runs = _series(doc_b, workload, "layers", metric)
            if not a_runs or not b_runs:
                continue
            a, b = statistics.median(a_runs), statistics.median(b_runs)
            verdict = "layer"
            if exact and fixed:
                verdict = "equal" if a == b else "DIFFERS"
                regressed |= a != b
            rows.append((workload, metric, a, b, unit, _worse_by(a, b, better), verdict))
    return rows, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    rows, regressed = compare(*docs)
    print(f"{'workload':22s} {'metric':32s} {'A':>14s}    {'B':>14s} {'unit':6s} {'better by':>9s}")
    for workload, metric, a, b, unit, worse, verdict in rows:
        print(
            f"{workload:22s} {metric:32s} {a:14.6g} -> {b:14.6g} {unit:6s} "
            f"{-worse * 100:+7.1f}%  {verdict}"
        )
    print("verdict:", "REGRESSION" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
