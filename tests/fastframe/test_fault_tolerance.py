"""Failure behaviour of the threaded parallel driver, through the public API.

Ingest threads run only pure, deterministic kernels, so there is nothing
to recover from: a kernel error is a bug and must surface unchanged from
``gather()``, leaving the process-wide thread pool and the scramble's
shared probe counters fit for the next query — and a healthy gather at
parallelism 2 must spend exactly the δ of the serial one.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.fastframe.predicate import In
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import AbsoluteAccuracy, RelativeAccuracy

START_BLOCK = 2


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(11)
    n = 40_000
    table = Table(
        continuous={"x": rng.normal(40.0, 12.0, n)},
        categorical={"g": rng.integers(0, 20, n).astype(str)},
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(12))


def _queries():
    return [
        Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.5), group_by=("g",)),
        Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2)),
    ]


class TestConnectionLevelRecovery:
    """Results AND δ spend through the public API."""

    def _gather(self, scramble, parallelism, queries=None):
        from repro.api import connect

        strategy = get_strategy("scan")
        strategy.window_blocks = 256
        conn = connect(
            scramble,
            delta=1e-6,
            round_rows=5_000,
            engine="pool",
            strategy=strategy,
            rng=np.random.default_rng(3),
            parallelism=parallelism,
        )
        handles = [conn.query(query) for query in queries or _queries()]
        batch = conn.gather(handles, start_block=START_BLOCK)
        return conn, batch

    def test_gather_delta_spend_identical_under_faults(self, scramble):
        serial_conn, serial_batch = self._gather(scramble, parallelism=1)
        parallel_conn, parallel_batch = self._gather(scramble, parallelism=2)
        # δ accounting is bit-identical: same allocations, same spend.
        assert parallel_conn.spent_delta == serial_conn.spent_delta
        assert [entry.delta for entry in parallel_conn.audit()] == [
            entry.delta for entry in serial_conn.audit()
        ]
        for left, right in zip(serial_batch, parallel_batch):
            assert left.delta == right.delta
            for key, group in left.groups.items():
                other = right.groups[key]
                assert group.interval == other.interval
                assert group.estimate == other.estimate
                assert group.samples == other.samples

    def test_kernel_error_propagates_and_pool_survives(self, scramble, monkeypatch):
        """The second partition task raises mid-window, after the next
        window's blocks were prefetched: the error surfaces as is, and
        a fresh gather afterwards still matches serial byte for byte —
        prefetched probes reconciled, no counter stranded on the
        scramble's indexes, the shared thread pool not poisoned."""
        import repro.fastframe.parallel as parallel

        # The predicate makes block selection probe the bitmap index, so
        # batch_probes below is not trivially zero.
        queries = _queries() + [
            Query(
                AggregateFunction.AVG,
                "x",
                RelativeAccuracy(0.2),
                predicate=In("g", ("1", "2", "3")),
            )
        ]
        serial_conn, serial_batch = self._gather(scramble, 1, queries)
        assert serial_batch.metrics.batch_probes > 0

        calls = itertools.count()
        kernel = parallel.partition_ingest

        def failing(*args, **kwargs):
            if next(calls) == 1:
                raise KeyError("injected kernel error")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(parallel, "partition_ingest", failing)
        with pytest.raises(KeyError, match="injected kernel error"):
            self._gather(scramble, 2, queries)
        monkeypatch.undo()
        assert next(calls) >= 2

        parallel_conn, parallel_batch = self._gather(scramble, 2, queries)
        assert parallel_conn.spent_delta == serial_conn.spent_delta
        assert parallel_batch.metrics.batch_probes == serial_batch.metrics.batch_probes
        assert parallel_batch.metrics.index_probes == serial_batch.metrics.index_probes
        assert parallel_batch.metrics.delta_bytes_returned > 0
        for left, right in zip(serial_batch, parallel_batch):
            assert left.metrics.batch_probes == right.metrics.batch_probes
            assert set(left.groups) == set(right.groups)
            for key, group in left.groups.items():
                other = right.groups[key]
                assert group.interval == other.interval
                assert group.count_interval == other.count_interval
                assert group.estimate == other.estimate
                assert group.samples == other.samples
