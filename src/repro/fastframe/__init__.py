"""FastFrame: the sampling-optimized in-memory column store.

Tables and scrambles (with insertion maintenance), block bitmap indexes,
the Scan / ActiveSync / ActivePeek strategies, the approximate executor
(``QueryRun`` engines, ``ScanDriver`` window loop, threaded parallel
ingest), COUNT/SUM interval composition, the exact reference executor,
the out-of-core mmap block store, and snowflake join views; the
multi-query δ ledger lives with the connection in :mod:`repro.api`.

The package exports what :mod:`repro.api`, the CLI and the workloads
import; everything else is reached through its submodule.
"""

from repro.fastframe.catalog import RangeBounds
from repro.fastframe.exact import ExactExecutor
from repro.fastframe.predicate import And, Compare, Eq, In, Not
from repro.fastframe.query import AggregateFunction, Query, QueryResult, StorageCounters
from repro.fastframe.scan import ScanStrategy, get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.snowflake import Dimension, ForeignKey
from repro.fastframe.storage import (
    BlockStoreError,
    MmapBlockStore,
    attach_block_storage,
    open_block_scramble,
    write_block_store,
)
from repro.fastframe.table import Table

__all__ = [
    "AggregateFunction",
    "And",
    "BlockStoreError",
    "Compare",
    "Dimension",
    "Eq",
    "ExactExecutor",
    "ForeignKey",
    "In",
    "MmapBlockStore",
    "Not",
    "Query",
    "QueryResult",
    "RangeBounds",
    "ScanStrategy",
    "Scramble",
    "StorageCounters",
    "Table",
    "attach_block_storage",
    "get_strategy",
    "open_block_scramble",
    "write_block_store",
]
