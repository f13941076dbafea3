"""δ-ledger policy through connect(): allocation, capacity, audit (§4.1).

Construction-time rejection (bad policy / δ / capacity, non-SSI bounder)
and capacity enforcement are pinned in ``test_connection.py``; exact
per-query allocations under batching in ``test_delta_accounting.py``.
"""

import numpy as np
import pytest

from repro.api import DeltaLedger, connect
from repro.datasets import make_flights_scramble
from repro.experiments import build_query
from repro.fastframe import AggregateFunction, Eq, ExactExecutor, Query
from repro.stopping import RelativeAccuracy


@pytest.fixture(scope="module")
def scramble():
    return make_flights_scramble(rows=30_000, seed=0)


def _connect(scramble, **kwargs):
    defaults = dict(delta=1e-6, rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return connect(scramble, **defaults)


def _run(conn, query):
    return conn.query(query).result()


class TestEvenPolicy:
    def test_each_query_gets_equal_share(self, scramble):
        conn = _connect(scramble, policy="even", max_queries=10)
        assert conn.next_query_delta() == pytest.approx(1e-7)
        _run(conn, build_query("F-q1", epsilon=0.5))
        assert conn.next_query_delta() == pytest.approx(1e-7)

    def test_spent_never_exceeds_budget(self, scramble):
        conn = _connect(scramble, policy="even", max_queries=3)
        for name in ("F-q1", "F-q4", "F-q2"):
            _run(conn, build_query(name))
        assert conn.spent_delta <= conn.session_delta + 1e-18


class TestHarmonicPolicy:
    def test_decaying_allocations(self, scramble):
        conn = _connect(scramble, policy="harmonic")
        first = conn.next_query_delta()
        _run(conn, build_query("F-q1", epsilon=0.5))
        second = conn.next_query_delta()
        assert second == pytest.approx(first / 4.0)  # 1/k² decay

    def test_open_ended_sum_bounded(self):
        """Σ (6/π²)·δ/k² over any number of queries stays below δ."""
        ledger = DeltaLedger(1e-6, policy="harmonic")
        for k in range(10_000):
            ledger.charge(f"q{k}")
        assert ledger.spent_delta < ledger.session_delta

    def test_many_queries_allowed(self, scramble):
        conn = _connect(scramble, policy="harmonic")
        for _ in range(3):
            _run(conn, build_query("F-q1", epsilon=0.5))
        assert conn.queries_run == 3
        assert conn.spent_delta < conn.session_delta


class TestLedger:
    def test_ledger_records_each_query(self, scramble):
        conn = _connect(scramble, policy="even", max_queries=5)
        _run(conn, build_query("F-q1", epsilon=0.5))
        _run(conn, build_query("F-q4"))
        ledger = conn.audit()
        assert [entry.index for entry in ledger] == [1, 2]
        assert ledger[0].name == "F-q1"
        assert all(entry.rows_read > 0 for entry in ledger)

    def test_results_remain_correct(self, scramble):
        """Intervals issued under the per-query allocation still enclose
        the exact answers (they use a smaller δ, hence are only wider)."""
        conn = _connect(scramble, policy="even", max_queries=4)
        exact = ExactExecutor(scramble)
        for name in ("F-q1", "F-q4"):
            query = build_query(name)
            approx = _run(conn, query)
            truth = exact.execute(query).scalar().estimate
            interval = approx.scalar().interval
            slack = 1e-9 * max(1.0, abs(truth))
            assert interval.lo - slack <= truth <= interval.hi + slack

    def test_custom_predicate_query(self, scramble):
        conn = _connect(scramble, policy="harmonic")
        query = Query(
            AggregateFunction.AVG,
            "DepDelay",
            RelativeAccuracy(0.5),
            predicate=Eq("Origin", "ORD"),
            name="custom",
        )
        result = _run(conn, query)
        assert result.scalar().samples > 0
        assert conn.audit()[0].name == "custom"
