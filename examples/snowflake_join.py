"""Approximate aggregation over a snowflake-schema join view.

The paper's extensibility claim (§1): the guarantees carry over to "queries
over views formed from joins in a snowflake schema" because the joined view
is materialized offline and scrambled once, after which every filtered or
grouped subset is again an aggregate view amenable to scan-based
without-replacement sampling.

This example builds a two-level snowflake —

    flights(DepDelay, Origin) --> airports(code, state) --> regions(state, name)

— denormalizes it, scrambles the joined view, and answers "average delay by
*region*" (a column that exists on no single base table) with certified
intervals, comparing against exact evaluation.

Run:  python examples/snowflake_join.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import connect
from repro.fastframe import (
    AggregateFunction,
    Dimension,
    ExactExecutor,
    ForeignKey,
    Query,
    Scramble,
    Table,
)
from repro.stopping import GroupsOrdered

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "400000"))

AIRPORTS = ["ORD", "MDW", "SFO", "LAX", "JFK", "LGA", "AUS", "DFW"]
STATES = ["IL", "IL", "CA", "CA", "NY", "NY", "TX", "TX"]
REGIONS = {"IL": "midwest", "CA": "west", "NY": "east", "TX": "south"}


def build_schema(rows: int, seed: int):
    rng = np.random.default_rng(seed)
    origins = rng.choice(AIRPORTS, size=rows)
    # Regional signal: western airports run late, eastern ones early.
    base = {"midwest": 12.0, "west": 18.0, "east": 6.0, "south": 9.0}
    state_of = dict(zip(AIRPORTS, STATES))
    means = np.array([base[REGIONS[state_of[o]]] for o in origins])
    delays = rng.normal(means, 25.0)

    fact = Table(
        continuous={"DepDelay": delays},
        categorical={"Origin": origins},
    )
    regions = Dimension(
        name="region",
        table=Table(
            categorical={
                "state_code": sorted(set(STATES)),
                "name": [REGIONS[s] for s in sorted(set(STATES))],
            }
        ),
        key="state_code",
    )
    airports = Dimension(
        name="airport",
        table=Table(categorical={"code": AIRPORTS, "state": STATES}),
        key="code",
        foreign_keys=(ForeignKey("state", regions),),
    )
    return fact, ForeignKey("Origin", airports)


def main() -> None:
    from repro.fastframe.snowflake import denormalize

    print("building a 400k-row flights fact table + snowflake dimensions ...")
    fact, fk = build_schema(rows=ROWS, seed=0)

    view = denormalize(fact, [fk])
    print(f"joined view columns: {', '.join(view.columns())}")

    scramble = Scramble(view, rng=np.random.default_rng(1))
    query = Query(
        AggregateFunction.AVG,
        "DepDelay",
        GroupsOrdered(),          # stop once the region ordering is certain
        group_by=("airport.name",),
        name="delay-by-region",
    )
    conn = connect(
        scramble, delta=1e-9, max_queries=1, rng=np.random.default_rng(2)
    )
    approx = conn.query(query).result()
    exact = ExactExecutor(scramble).execute(query)

    print(
        f"\nrows read: {approx.metrics.rows_read:,} of {scramble.num_rows:,} "
        f"({approx.metrics.rows_read / scramble.num_rows:.1%})"
    )
    print(f"{'region':<10} {'approx avg':>10} {'interval':>20} {'exact':>8}")
    for key in approx.ordering():
        group = approx.groups[key]
        truth = exact.groups[key].estimate
        print(
            f"{key[0]:<10} {group.estimate:>10.2f} "
            f"[{group.interval.lo:>8.2f}, {group.interval.hi:>7.2f}] {truth:>8.2f}"
        )
    print(
        f"\nordering matches exact: {approx.ordering() == exact.ordering()}"
    )


if __name__ == "__main__":
    main()
