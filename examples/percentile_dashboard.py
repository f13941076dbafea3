"""Grouped p95 latency dashboard with certified quantile intervals.

The operational question every latency dashboard answers: *which services
have the worst tail latency?*  This is ORDER BY PERCENTILE(latency, 0.95)
DESC LIMIT 3 over a per-service GROUP BY — and with DKW-certified
quantile intervals it stops early twice over:

* the scan terminates once the three worst services' p95 intervals are
  certifiably above everyone else's (condition Î's dominance test), and
* a healthy service whose p95 *upper* bound already sits below three p95
  *lower* bounds retires immediately — no more samples are spent on it
  even while the leaders are still separating among themselves.

Run:  python examples/percentile_dashboard.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import connect
from repro.fastframe import ExactExecutor
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "400000"))

#: Per-service lognormal latency profiles (median ms, tail spread).  Three
#: services are genuinely slow in the tail; the rest are healthy and
#: should retire early.
SERVICES = {
    "checkout": (120.0, 0.9),
    "search": (95.0, 0.8),
    "recommend": (80.0, 0.85),
    "auth": (20.0, 0.3),
    "catalog": (35.0, 0.4),
    "cart": (30.0, 0.35),
    "profile": (25.0, 0.3),
    "static": (8.0, 0.2),
}

SQL = (
    "SELECT service, PERCENTILE(latency_ms, 0.95) FROM requests "
    "GROUP BY service ORDER BY PERCENTILE(latency_ms, 0.95) DESC LIMIT 3"
)


def build_requests(rows: int, seed: int) -> Scramble:
    rng = np.random.default_rng(seed)
    names = list(SERVICES)
    codes = rng.integers(0, len(names), rows)
    medians = np.array([SERVICES[name][0] for name in names])
    spreads = np.array([SERVICES[name][1] for name in names])
    latency = medians[codes] * rng.lognormal(0.0, spreads[codes], rows)
    table = Table(
        continuous={"latency_ms": latency},
        categorical={"service": np.array(names, dtype=object)[codes]},
        range_pad=0.05,
    )
    return Scramble(table, rng=np.random.default_rng(seed + 1))


def main() -> None:
    print(f"building a {ROWS:,}-row request log ...")
    scramble = build_requests(ROWS, seed=3)

    print(f"\n{SQL}\n")
    conn = connect(
        scramble,
        bounder="bernstein+rt",  # quantile queries swap in DKW bounds
        strategy="activesync",
        delta=1e-6,
        max_queries=1,
        rng=np.random.default_rng(11),
    )
    handle = conn.sql(SQL)
    query = handle.query
    result = handle.result()

    print("certified worst-p95 services (early-stopped):")
    for key in result.top_k(3):
        group = result.groups[key]
        print(
            f"  {key[0]:10s} p95 ≈ {group.estimate:8.1f} ms   "
            f"CI [{group.interval.lo:8.1f}, {group.interval.hi:8.1f}]   "
            f"samples={group.samples:,}"
        )

    print(f"\nrows read: {result.metrics.rows_read:,} of {ROWS:,}")

    # The dominance certificate that retired the healthy services: their
    # p95 *upper* bounds sit below the 3rd-largest p95 *lower* bound.
    bar = sorted(
        (g.interval.lo for g in result.groups.values()), reverse=True
    )[2]
    print(f"retirement bar (3rd-largest p95 lower bound): {bar:.1f} ms")
    print("services certifiably outside the worst three:")
    for key in result.ordering()[3:]:
        group = result.groups[key]
        print(
            f"  {key[0]:10s} p95 ≤ {group.interval.hi:6.1f} ms "
            f"< {bar:.1f}  (retired, samples={group.samples:,})"
        )

    exact = ExactExecutor(scramble).execute(query)
    exact_top = [key[0] for key in exact.top_k(3)]
    approx_top = [key[0] for key in result.top_k(3)]
    print(f"\nexact worst three: {exact_top}")
    assert set(approx_top) == set(exact_top), "certified top-3 must match exact"
    print("certified selection matches the exact answer.")


if __name__ == "__main__":
    main()
