"""Top-K scenario: find the worst airline with certified ordering.

Reproduces F-q9's shape — ORDER BY AVG(DepDelay) DESC LIMIT 1 — with the
top-1-separated stopping condition (Î): the scan terminates as soon as
the leader's confidence interval clears every rival's, so the returned
airline is the true maximizer w.h.p. even though only a fraction of the
data was read.  Active scanning focuses I/O on the airlines whose
intervals still straddle the separation boundary (§4.3).  ActiveSync and
ActivePeek fetch the same blocks; ActiveSync's "sync probes" figure is the
per-block probe count of §5.2's synchronous strategy, modelled rather than
issued one by one.

Run:  python examples/topk_airlines.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import connect
from repro.datasets import make_flights_scramble
from repro.fastframe import AggregateFunction, ExactExecutor, Query
from repro.stopping import TopKSeparated

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "500000"))


def main() -> None:
    print("building a 500k-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=2)

    # SELECT Airline FROM flights GROUP BY Airline
    #   ORDER BY AVG(DepDelay) DESC LIMIT 1
    query = Query(
        AggregateFunction.AVG,
        "DepDelay",
        TopKSeparated(1, largest=True),
        group_by=("Airline",),
        name="top-airline",
    )

    for strategy_name in ("scan", "activesync", "activepeek"):
        conn = connect(
            scramble,
            strategy=strategy_name,
            delta=1e-9,
            max_queries=1,
            rng=np.random.default_rng(11),
        )
        result = conn.query(query).result()
        winner = result.top_k(1)[0]
        print(
            f"{strategy_name:11s}: worst airline = {winner[0]}  "
            f"rows={result.metrics.rows_read:,}  "
            f"blocks fetched={result.metrics.blocks_fetched:,}  "
            f"skipped={result.metrics.blocks_skipped:,}  "
            f"sync probes (modelled)={result.metrics.index_probes:,}  "
            f"batch probes={result.metrics.batch_probes:,}"
        )

    exact = ExactExecutor(scramble).execute(query)
    print(f"\nexact worst airline: {exact.top_k(1)[0][0]}")
    print("per-airline exact means:")
    for key in exact.ordering():
        print(f"  {key[0]}: {exact.groups[key].estimate:6.2f}")


if __name__ == "__main__":
    main()
