"""Appendix B scenario: CIs for aggregates over derived expressions.

The catalog stores range bounds per *column*, but analysts aggregate
*expressions* — e.g. a squared deviation or a unit conversion.  Appendix B
derives range bounds for the expression from the per-column bounds
(monotone corners, convex corner-max + box-constrained minimum, or
interval arithmetic), and the executor feeds those derived bounds to any
range-based error bounder.

This script reproduces the appendix's Example 1 and then runs a live
aggregate over a derived expression with a certified interval.

Run:  python examples/expression_aggregates.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import connect
from repro.datasets import make_flights_scramble
from repro.expressions import col, derive_range_bounds
from repro.fastframe import (
    AggregateFunction,
    ExactExecutor,
    Query,
    RangeBounds,
)
from repro.stopping import SamplesTaken

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "300000"))


def example_1() -> None:
    """Appendix B, Example 1: AVG((2·c1 + 3·c2 − 1)²)."""
    expr = (2 * col("c1") + 3 * col("c2") - 1) ** 2
    bounds = {"c1": RangeBounds(-3, 1), "c2": RangeBounds(-1, 3)}
    derived = derive_range_bounds(expr, bounds)
    print(f"Example 1: derived range bounds for {expr!r}")
    print(f"  c1 in [-3, 1], c2 in [-1, 3]  ->  [{derived.a:.0f}, {derived.b:.0f}]")
    print("  (paper's answer: [0, 100])\n")


def live_aggregate() -> None:
    """AVG of squared delay deviation — a dispersion-style dashboard stat."""
    print("building a 300k-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=3)

    # AVG((DepDelay - 10)^2): convex in DepDelay; derived bounds come from
    # the corner maximum and the box-constrained minimum.
    expr = (col("DepDelay") - 10.0) ** 2
    delay_bounds = scramble.table.catalog.bounds("DepDelay")
    derived = derive_range_bounds(expr, {"DepDelay": delay_bounds})
    print(
        f"DepDelay catalog bounds [{delay_bounds.a:.0f}, {delay_bounds.b:.0f}] "
        f"-> derived bounds for (DepDelay-10)^2: [{derived.a:.1f}, {derived.b:.1f}]"
    )

    query = Query(AggregateFunction.AVG, expr, SamplesTaken(60_000), name="dispersion")
    conn = connect(
        scramble, delta=1e-9, max_queries=1, rng=np.random.default_rng(5)
    )
    approx = conn.query(query).result().scalar()
    exact = ExactExecutor(scramble).execute(query).scalar()

    print(f"\napproximate AVG((DepDelay-10)^2) = {approx.estimate:10.2f}")
    print(f"certified interval               = [{approx.interval.lo:.2f}, {approx.interval.hi:.2f}]")
    print(f"exact answer                     = {exact.estimate:10.2f}")
    print(f"interval encloses exact          = {exact.estimate in approx.interval}")


def main() -> None:
    example_1()
    live_aggregate()


if __name__ == "__main__":
    main()
