"""repro: reproduction of "Rapid Approximate Aggregation with
Distribution-Sensitive Interval Guarantees" (Macke et al., ICDE 2021).

The package implements the paper's confidence-interval techniques for
approximate query processing with sample-size-independent (SSI) guarantees:

* :mod:`repro.api` — the connection/handle front door: :func:`connect`,
  lazy query handles, and shared-scan multi-query ``gather()``.
* :mod:`repro.bounders` — Hoeffding-Serfling, empirical Bernstein-Serfling,
  and Anderson/DKW error bounders, all SSI; the **RangeTrim** meta-bounder
  (§3) that eliminates phantom outlier sensitivity.
* :mod:`repro.stopping` — stopping conditions Ê-Ï (§4.2); the executor
  runs OptStop (Algorithm 5) over them.
* :mod:`repro.fastframe` — the FastFrame sampling-optimized column store:
  scrambles, block bitmap indexes, Scan/ActiveSync/ActivePeek strategies,
  COUNT/SUM interval composition, and the approximate query executor.
* :mod:`repro.expressions` — derived range bounds for aggregates over
  arbitrary expressions (Appendix B).
* :mod:`repro.datasets` — the synthetic Flights substitute, the paper's
  nine Flights queries F-q1..F-q9 as SQL (:mod:`repro.datasets.queries`),
  and microbenchmark distributions.  ``benchmarks/paper.py`` regenerates
  every table and figure of the paper's evaluation through :func:`connect`.

Quickstart — open a connection, ask lazily, resolve with guarantees::

    import repro
    from repro.datasets import make_flights_scramble

    scramble = make_flights_scramble(rows=500_000, seed=0)
    conn = repro.connect(scramble, delta=1e-9, policy="harmonic")

    # One query: SQL or the fluent builder, resolved on demand.
    ord_delay = conn.table().where("Origin", "ORD").avg("DepDelay", rel=0.3)
    print(ord_delay.result().scalar().interval)

    # A dashboard: many queries off ONE shared scan of the scramble.
    late = conn.sql(
        "SELECT Airline FROM flights GROUP BY Airline "
        "HAVING AVG(DepDelay) > 9"
    )
    worst = conn.sql(
        "SELECT Airline FROM flights GROUP BY Airline "
        "ORDER BY AVG(DepDelay) DESC LIMIT 1"
    )
    batch = conn.gather([late, worst])
    print(f"shared scan saved {batch.savings:.0%} of sequential row fetches")
    print(late.result().keys_above(9), worst.result().top_k(1))

Every interval issued on the connection is simultaneously valid with
probability at least ``1 − delta`` (the §4.1 union bound, audited by
``conn.audit()``).
"""

from repro.api import (
    Connection,
    GatherResult,
    QueryBuilder,
    QueryHandle,
    RoundUpdate,
    connect,
)
from repro.bounders import ErrorBounder, Interval, RangeTrimBounder, get_bounder
from repro.fastframe import (
    AggregateFunction,
    BlockStoreError,
    ExactExecutor,
    MmapBlockStore,
    Query,
    QueryResult,
    Scramble,
    StorageCounters,
    Table,
    attach_block_storage,
    open_block_scramble,
    write_block_store,
)
from repro.sql import parse_query, parse_statements
from repro.stats import DEFAULT_DELTA, DeltaBudget

__version__ = "5.0.0"

__all__ = [
    "AggregateFunction",
    "BlockStoreError",
    "Connection",
    "DEFAULT_DELTA",
    "DeltaBudget",
    "ErrorBounder",
    "ExactExecutor",
    "GatherResult",
    "Interval",
    "MmapBlockStore",
    "Query",
    "QueryBuilder",
    "QueryHandle",
    "QueryResult",
    "RangeTrimBounder",
    "RoundUpdate",
    "Scramble",
    "StorageCounters",
    "Table",
    "__version__",
    "attach_block_storage",
    "connect",
    "get_bounder",
    "open_block_scramble",
    "parse_query",
    "parse_statements",
    "write_block_store",
]

