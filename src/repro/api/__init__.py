"""Connection/handle front-end with shared-scan multi-query execution.

The canonical way in::

    import repro

    conn = repro.connect(scramble, delta=1e-9, policy="harmonic")
    late = conn.sql(
        "SELECT Airline FROM flights GROUP BY Airline "
        "HAVING AVG(DepDelay) > 9"
    )
    ord_delay = (
        conn.table().where("Origin", "ORD").avg("DepDelay", rel=0.3)
    )
    batch = conn.gather([late, ord_delay])   # ONE scan feeds both queries
    print(batch.savings, late.result().keys_above(9))

See :mod:`repro.api.connection` for the execution model,
:mod:`repro.api.builder` for the fluent builder grammar and
:mod:`repro.api.ledger` for the joint δ budget.
"""

from repro.api.builder import QueryBuilder
from repro.api.connection import (
    DEFAULT_BOUNDER,
    Connection,
    GatherResult,
    QueryHandle,
    RoundUpdate,
    connect,
)
from repro.api.ledger import LEDGER_POLICIES, DeltaLedger, QueryLedgerEntry

__all__ = [
    "Connection",
    "DEFAULT_BOUNDER",
    "DeltaLedger",
    "GatherResult",
    "LEDGER_POLICIES",
    "QueryBuilder",
    "QueryHandle",
    "QueryLedgerEntry",
    "RoundUpdate",
    "connect",
]
