"""FastFrame: the sampling-optimized in-memory column store.

Tables and scrambles (with insertion maintenance), block bitmap indexes,
the Scan / ActiveSync / ActivePeek strategies, the approximate executor
(``QueryRun`` engines, ``ScanDriver`` window loop, threaded parallel
ingest), COUNT/SUM interval composition, the exact reference executor,
the out-of-core mmap block store, and snowflake join views; the
multi-query δ ledger lives with the connection in :mod:`repro.api`.
"""

from repro.fastframe.bitmap import LOOKAHEAD_BATCH_BLOCKS, BlockBitmapIndex
from repro.fastframe.catalog import Catalog, ColumnKind, RangeBounds
from repro.fastframe.config import ExecConfig
from repro.fastframe.count import (
    SelectivityState,
    count_interval,
    count_interval_batch,
    selectivity_interval,
    sum_interval,
    sum_interval_batch,
    upper_bound_population,
    upper_bound_population_batch,
)
from repro.fastframe.exact import ExactExecutor
from repro.fastframe.executor import (
    AUTO_POOL_THRESHOLD,
    DEFAULT_ROUND_ROWS,
    ENGINES,
    ApproximateExecutor,
    QueryRun,
    run_shared_scan,
)
from repro.fastframe.viewpool import ViewPool
from repro.fastframe.window import WindowFrame
from repro.fastframe.predicate import And, Compare, Eq, In, Not, Or, Predicate, TruePredicate
from repro.fastframe.query import (
    AggregateFunction,
    ExecutionMetrics,
    GroupResult,
    Query,
    QueryResult,
    StorageCounters,
)
from repro.fastframe.scan import (
    EVALUATED_STRATEGIES,
    ActivePeekStrategy,
    ActiveSyncStrategy,
    SamplingStrategy,
    ScanCursor,
    ScanStrategy,
    get_strategy,
)
from repro.fastframe.scramble import DEFAULT_BLOCK_SIZE, Scramble
from repro.fastframe.snowflake import Dimension, ForeignKey, denormalize
from repro.fastframe.storage import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_STORE_BLOCK_ROWS,
    BlockCache,
    BlockStoreError,
    MmapBlockStore,
    attach_block_storage,
    open_block_scramble,
    open_block_store,
    write_block_store,
)
from repro.fastframe.table import CategoricalColumn, Table

__all__ = [
    "AUTO_POOL_THRESHOLD",
    "AggregateFunction",
    "And",
    "ApproximateExecutor",
    "BlockBitmapIndex",
    "BlockCache",
    "BlockStoreError",
    "Catalog",
    "CategoricalColumn",
    "ColumnKind",
    "Compare",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_ROUND_ROWS",
    "DEFAULT_STORE_BLOCK_ROWS",
    "ENGINES",
    "Dimension",
    "EVALUATED_STRATEGIES",
    "ExecConfig",
    "Eq",
    "ForeignKey",
    "ExactExecutor",
    "ExecutionMetrics",
    "GroupResult",
    "In",
    "LOOKAHEAD_BATCH_BLOCKS",
    "MmapBlockStore",
    "Not",
    "Or",
    "Predicate",
    "Query",
    "QueryResult",
    "QueryRun",
    "RangeBounds",
    "SamplingStrategy",
    "ScanCursor",
    "ScanStrategy",
    "ActivePeekStrategy",
    "ActiveSyncStrategy",
    "Scramble",
    "SelectivityState",
    "StorageCounters",
    "Table",
    "TruePredicate",
    "ViewPool",
    "WindowFrame",
    "attach_block_storage",
    "count_interval",
    "count_interval_batch",
    "denormalize",
    "get_strategy",
    "open_block_scramble",
    "open_block_store",
    "run_shared_scan",
    "selectivity_interval",
    "sum_interval",
    "sum_interval_batch",
    "upper_bound_population",
    "upper_bound_population_batch",
    "write_block_store",
]
