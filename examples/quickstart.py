"""Quickstart: approximate AVG with a guaranteed confidence interval.

Builds a synthetic flights scramble, asks for the average departure delay
of flights out of ORD with a relative-accuracy contract, and compares the
approximate answer (and its certified interval) against exact evaluation.

One query on one connection; see ``examples/multiquery_session.py`` for
many queries sharing a scan and a joint δ budget.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.datasets import make_flights_scramble
from repro.stopping import RelativeAccuracy

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "500000"))


def main() -> None:
    print(f"building a {ROWS:,}-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=0)

    conn = repro.connect(
        scramble,
        bounder="bernstein+rt",  # the paper's best: no PMA, no PHOS
        delta=1e-9,              # failure probability of the interval
        max_queries=1,           # ... all of it for this one query
        rng=np.random.default_rng(42),
    )
    # Stop once the relative error is certifiably below 30%.
    handle = conn.sql(
        "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'",
        stopping=RelativeAccuracy(0.3),
        name="quickstart",
    )
    approx = handle.result()
    group = approx.scalar()

    exact = repro.ExactExecutor(scramble).execute(handle.query).scalar()

    print(f"\napproximate AVG(DepDelay | ORD) = {group.estimate:.3f}")
    print(f"certified 1-1e-9 interval       = [{group.interval.lo:.3f}, {group.interval.hi:.3f}]")
    print(f"exact answer                    = {exact.estimate:.3f}")
    print(f"interval encloses exact answer  = {exact.estimate in group.interval}")
    print(
        f"\nrows read: {approx.metrics.rows_read:,} of {scramble.num_rows:,} "
        f"({approx.metrics.rows_read / scramble.num_rows:.1%}), "
        f"stopped early: {approx.metrics.stopped_early}"
    )


if __name__ == "__main__":
    main()
