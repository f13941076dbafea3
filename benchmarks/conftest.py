"""Shared fixtures for the benchmark harness.

The bench scramble defaults to 2M rows (override with the
``REPRO_BENCH_ROWS`` environment variable; the paper-shape results sharpen
with scale, see README.md).  Bitmap indexes and group domains are
prewarmed so benchmark timings measure query execution, not load-time
metadata construction.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import make_flights_scramble
from repro.experiments import ALL_QUERIES, build_query, warm_metadata

BENCH_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "2000000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: Moderate error probability for benches.  The paper uses δ=1e-15; at the
#: reproduction's 2M-row scale the extra log-factor would push several
#: queries into full scans that are early-stoppable at 606M rows, washing
#: out exactly the between-bounder contrasts the tables exist to show.
#: δ=1e-9 preserves "effectively deterministic" correctness while keeping
#: sample complexities in the regime the paper's tables exhibit.  Set
#: REPRO_BENCH_DELTA=1e-15 to run at the paper's value.
BENCH_DELTA = float(os.environ.get("REPRO_BENCH_DELTA", "1e-9"))


@pytest.fixture(scope="session")
def bench_scramble():
    scramble = make_flights_scramble(rows=BENCH_ROWS, seed=BENCH_SEED)
    for name in ALL_QUERIES:
        warm_metadata(scramble, build_query(name))
    return scramble
