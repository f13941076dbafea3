"""Quickstart: approximate AVG with a guaranteed confidence interval.

Builds a synthetic flights scramble, asks for the average departure delay
of flights out of ORD with a relative-accuracy contract, and compares the
approximate answer (and its certified interval) against exact evaluation.

Then runs two of the paper's Figure 5 queries straight from SQL text, with
the stopping condition inferred from the SQL itself: HAVING thresholds
become threshold-side tests (condition Í) and ORDER BY … LIMIT K becomes
top-K separation (condition Î).

See ``examples/dashboard_having.py`` for many queries sharing one scan
and a joint δ budget.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.datasets import make_flights_scramble
from repro.stopping import RelativeAccuracy

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "500000"))

#: Statements whose stopping condition the SQL front end infers.
INFERRED = {
    "airlines with positive average delay (HAVING)": (
        "SELECT Airline FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 0"
    ),
    "two most punctual late-night airlines (ORDER BY ... LIMIT)": (
        "SELECT Airline FROM flights WHERE DepTime > 10:50pm "
        "GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2"
    ),
}


def main() -> None:
    print(f"building a {ROWS:,}-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=0)

    conn = repro.connect(
        scramble,
        bounder="bernstein+rt",  # the paper's best: no PMA, no PHOS
        delta=1e-9,              # failure probability of every interval
        max_queries=3,           # ... split evenly over this script's queries
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

    for title, sql in INFERRED.items():
        handle = conn.sql(sql, name=title)
        result = handle.result()
        print(f"\n=== {title}")
        print(f"    SQL: {sql}")
        print(f"    stopping condition: {handle.query.stopping!r}")
        print(
            f"    rows read: {result.metrics.rows_read:,} "
            f"({result.metrics.rows_read / scramble.num_rows:.1%} of the data)"
        )
        ranked = sorted(result.groups.items(), key=lambda kv: kv[1].estimate)
        for key, group in ranked[:5]:
            print(
                f"      {', '.join(map(str, key)):<12} avg={group.estimate:>7.2f}  "
                f"CI=[{group.interval.lo:.2f}, {group.interval.hi:.2f}]"
            )
        if len(ranked) > 5:
            print(f"      ... ({len(ranked) - 5} more groups)")


if __name__ == "__main__":
    main()
