"""Dashboard scenario: which airlines exceed a delay threshold?

Reproduces the paper's motivating query shape (Figure 1 / F-q2): a
GROUP BY ... HAVING AVG(...) > t query whose aggregates drive both the
display (per-airline CIs shown to the analyst) and an automated filter
(the HAVING clause).  Early stopping via the threshold-side condition
certifies each airline's side of the threshold — subset/superset errors
are impossible up to the δ = 1e-9 failure probability, unlike CLT or
bootstrap intervals (§1).

The script uses the connection front-end end to end: the fluent builder
compiles the query lazily, ``handle.rounds()`` streams the progressive
per-round intervals a live dashboard would render, and a bounder
mini-ablation (a miniature of the paper's Table 5) runs each contender on
its own single-query connection.

It ends with a whole dashboard on one connection.  "The up-front
shuffling cost need only be paid once in order to facilitate many
queries, although care must be taken to set the error probability delta
small enough when running multiple queries" (§4.1):

* every query resolved on the connection is charged a slice of one joint
  δ budget (here an open-ended 1/k² decay), so *every* interval the
  dashboard shows is simultaneously valid with probability ≥ 1 − δ, and
  ``conn.audit()`` prints that ledger;
* ``conn.gather([...])`` resolves the whole dashboard off **one** shared
  scan cursor: a block wanted by k queries is fetched once, not k times.

Run:  python examples/dashboard_having.py
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.bounders import EVALUATED_BOUNDERS, get_bounder
from repro.datasets import make_flights_scramble
from repro.fastframe import ExactExecutor
from repro.stopping import RelativeAccuracy

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "500000"))
THRESHOLD = 8.0  # minutes of average departure delay

DASHBOARD = [
    ("late airlines", "SELECT Airline FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 9", None),
    ("early airports", "SELECT Origin FROM flights GROUP BY Origin HAVING AVG(DepDelay) < 0", None),
    ("ORD delay", "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD'", RelativeAccuracy(0.3)),
    ("worst airline", "SELECT Airline FROM flights GROUP BY Airline ORDER BY AVG(DepDelay) DESC LIMIT 1", None),
]


def _handle(conn):
    """SELECT Airline FROM flights GROUP BY Airline
       HAVING AVG(DepDelay) > 8 — as a lazy builder handle."""
    return (
        conn.table()
        .group_by("Airline")
        .named("dashboard")
        .avg("DepDelay", above=THRESHOLD)
    )


def main() -> None:
    print(f"building a {ROWS:,}-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=1)

    conn = repro.connect(
        scramble,
        strategy="activepeek",
        delta=1e-9,
        max_queries=1,
        rng=np.random.default_rng(7),
    )
    handle = _handle(conn)

    exact = ExactExecutor(scramble).execute(handle.query)
    truth = {key for key, group in exact.groups.items() if group.estimate > THRESHOLD}

    # Progressive resolution: what a live dashboard repaints every round.
    print("\nstreaming rounds (undecided airlines shrink each round):")
    final = None
    for update in handle.rounds():
        undecided = sum(
            1
            for snap in update.groups.values()
            if snap.interval.lo <= THRESHOLD <= snap.interval.hi
        )
        print(
            f"  round {update.round_index:>2}: {update.rows_read:>9,} rows read, "
            f"{undecided:>2} airlines still straddle the threshold"
        )
        final = update
    assert final is not None

    result = handle.result()  # sealed by the rounds() iteration
    correct = result.keys_above(THRESHOLD) == truth
    print(f"\ncertified HAVING set matches exact evaluation: {correct}")
    print(f"airlines with AVG(DepDelay) > {THRESHOLD} (certified):")
    for key in sorted(result.keys_above(THRESHOLD)):
        group = result.groups[key]
        print(
            f"  {key[0]}: estimate {group.estimate:6.2f}  "
            f"CI [{group.interval.lo:6.2f}, {group.interval.hi:6.2f}]  "
            f"({group.samples:,} samples)"
        )

    # Bounder mini-ablation (a miniature of Table 5), one connection each.
    print(f"\n{'bounder':14s} {'rows read':>10s} {'blocks':>8s} {'correct':>8s}")
    for name in EVALUATED_BOUNDERS:
        contender = repro.connect(
            scramble,
            bounder=name,
            strategy="activepeek",
            delta=1e-9,
            max_queries=1,
            rng=np.random.default_rng(7),
        )
        outcome = _handle(contender).result()
        ok = outcome.keys_above(THRESHOLD) == truth
        print(
            f"{get_bounder(name).name:14s} {outcome.metrics.rows_read:10,d} "
            f"{outcome.metrics.blocks_fetched:8,d} {str(ok):>8s}"
        )

    # A whole dashboard: one connection, one shared scan, one joint δ.
    session = repro.connect(
        scramble, delta=1e-9, policy="harmonic", rng=np.random.default_rng(1)
    )
    handles = [
        session.sql(sql, stopping=stopping, name=title)
        for title, sql, stopping in DASHBOARD
    ]
    batch = session.gather(handles)
    print(
        f"\nshared scan: {batch.rows_read_shared:,} rows fetched vs "
        f"{batch.rows_read_sequential:,} if run one at a time "
        f"({batch.savings:.1%} saved by the shared cursor)"
    )
    print(f"{'#':>3} {'query':<16} {'delta allocated':>16} {'rows read':>12} {'early stop':>11}")
    for entry in session.audit():
        print(
            f"{entry.index:>3} {entry.name:<16} {entry.delta:>16.3e} "
            f"{entry.rows_read:>12,} {str(entry.stopped_early):>11}"
        )
    print(
        f"spent {session.spent_delta:.3e} of the {session.session_delta:.0e} "
        "session budget; every interval above holds simultaneously w.h.p."
    )


if __name__ == "__main__":
    main()
