"""δ accounting under batching: gather() must spend exactly what the same
queries would spend resolved sequentially, under both ledger policies.

The §4.1 union bound only cares about the *sum* of allocated error
probabilities, but the contract here is stronger and exact: allocation
happens at charge time in resolution order, so the k-th query of a batch
receives bit-for-bit the δ the k-th query of a sequential session would.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import connect
from repro.fastframe import Scramble, Table

POLICIES = ("even", "harmonic")
SESSION_DELTA = 1e-6


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(2)
    n = 20_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={"g": rng.integers(0, 8, n).astype(str)},
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(3))


def _connection(scramble, policy):
    return connect(
        scramble,
        delta=SESSION_DELTA,
        policy=policy,
        max_queries=10,
        rng=np.random.default_rng(5),
    )


def _dashboard(conn):
    return [
        conn.sql("SELECT g FROM t GROUP BY g HAVING AVG(x) > 20"),
        conn.table().where("g", "3").avg("x", rel=0.3),
        conn.table().group_by("g").count(abs=2_000.0),
        conn.table().group_by("g").avg("x", top=2),
    ]


def _expected_deltas(policy, count):
    if policy == "even":
        return [SESSION_DELTA / 10] * count
    return [
        (6.0 / math.pi**2) * SESSION_DELTA / k**2 for k in range(1, count + 1)
    ]


@pytest.mark.parametrize("policy", POLICIES)
def test_gather_spends_exactly_sequential_deltas(scramble, policy):
    batched = _connection(scramble, policy)
    batch = batched.gather(_dashboard(batched), start_block=7)

    sequential = _connection(scramble, policy)
    results = [
        handle.result(start_block=7) for handle in _dashboard(sequential)
    ]

    batched_deltas = [entry.delta for entry in batched.audit()]
    sequential_deltas = [entry.delta for entry in sequential.audit()]
    assert batched_deltas == sequential_deltas  # exact, not approx
    assert batched_deltas == _expected_deltas(policy, len(results))
    assert batched.spent_delta == sequential.spent_delta
    assert batch.results[0].delta == batched_deltas[0]


@pytest.mark.parametrize("policy", POLICIES)
def test_batched_intervals_match_sequential(scramble, policy):
    """The acceptance contract: batching changes the physical scan, never
    the statistics — every interval matches sequential to <= 1e-9."""
    batched = _connection(scramble, policy)
    batch = batched.gather(_dashboard(batched), start_block=7)

    sequential = _connection(scramble, policy)
    results = [
        handle.result(start_block=7) for handle in _dashboard(sequential)
    ]

    for gathered, solo in zip(batch.results, results):
        assert set(gathered.groups) == set(solo.groups)
        assert gathered.metrics.rows_read == solo.metrics.rows_read
        for key, expected in solo.groups.items():
            got = gathered.groups[key]
            for left, right in (
                (got.interval.lo, expected.interval.lo),
                (got.interval.hi, expected.interval.hi),
                (got.count_interval.lo, expected.count_interval.lo),
                (got.count_interval.hi, expected.count_interval.hi),
                (got.estimate, expected.estimate),
            ):
                if np.isfinite(left) or np.isfinite(right):
                    assert left == pytest.approx(right, rel=1e-9, abs=1e-9)
            assert got.samples == expected.samples


def test_even_policy_capacity_counts_batched_queries(scramble):
    conn = connect(
        scramble,
        delta=SESSION_DELTA,
        policy="even",
        max_queries=2,
        rng=np.random.default_rng(5),
    )
    conn.gather(
        [
            conn.table().avg("x", rel=0.5),
            conn.table().group_by("g").avg("x", abs=5.0),
        ],
        start_block=0,
    )
    with pytest.raises(RuntimeError, match="run all of them"):
        conn.table().avg("x", rel=0.5).result(start_block=0)
