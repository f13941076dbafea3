"""Run the paper's Figure 5 queries straight from SQL text.

The SQL front-end compiles the paper's query language to executable
FastFrame queries, inferring each stopping condition from the SQL itself:
HAVING thresholds become threshold-side tests (condition Í), ORDER BY …
LIMIT K becomes top-K separation (condition Î), and a plain ORDER BY on the
aggregate becomes full-ordering determination (condition Ï).

Run:  python examples/sql_interface.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import connect
from repro.datasets import make_flights_scramble
from repro.stopping import RelativeAccuracy

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "500000"))

QUERIES = {
    "avg delay out of ORD (accuracy contract)": (
        "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'",
        RelativeAccuracy(0.3),
    ),
    "airlines with positive average delay (HAVING)": (
        "SELECT Airline FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 0",
        None,
    ),
    "two most punctual late-night airlines (ORDER BY ... LIMIT)": (
        "SELECT Airline FROM flights WHERE DepTime > 10:50pm "
        "GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2",
        None,
    ),
}


def main() -> None:
    print("building a 500k-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=0)

    for title, (sql, stopping) in QUERIES.items():
        conn = connect(
            scramble, delta=1e-9, max_queries=1, rng=np.random.default_rng(1)
        )
        handle = conn.sql(sql, stopping=stopping, name=title)
        query = handle.query
        result = handle.result()
        print(f"\n=== {title}")
        print(f"    SQL: {sql}")
        print(f"    stopping condition: {query.stopping!r}")
        print(
            f"    rows read: {result.metrics.rows_read:,} "
            f"({result.metrics.rows_read / scramble.num_rows:.1%} of the data)"
        )
        if query.group_by:
            shown = 0
            for key, group in sorted(
                result.groups.items(), key=lambda kv: kv[1].estimate
            ):
                label = ", ".join(map(str, key))
                print(
                    f"      {label:<12} avg={group.estimate:>7.2f}  "
                    f"CI=[{group.interval.lo:.2f}, {group.interval.hi:.2f}]"
                )
                shown += 1
                if shown >= 5:
                    print(f"      ... ({len(result.groups) - shown} more groups)")
                    break
        else:
            group = result.scalar()
            print(
                f"      estimate={group.estimate:.3f}  "
                f"CI=[{group.interval.lo:.3f}, {group.interval.hi:.3f}]"
            )


if __name__ == "__main__":
    main()
