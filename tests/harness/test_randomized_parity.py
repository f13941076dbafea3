"""Randomized cross-engine parity: scalar vs pool vs parallel.

Extends ``tests/fastframe/test_engine_parity.py`` from hand-written cases
to generated ones: every seed expands (via :mod:`tests.harness.generator`)
into a random schema, data distribution, query, stopping condition, δ,
bounder, sampling strategy, lookahead geometry, and start block, and is
replayed through all three engines off the same scramble.  The contract:

* identical group keys, and every interval endpoint (value and COUNT),
  estimate, and sample count within 1e-9 relative tolerance — exact
  (``==``) for the value intervals and estimates of MEDIAN/PERCENTILE
  cases, whose engines pick the same order statistic of the same multiset;
* identical exhaustion flags and rows-read / rounds cost metrics;
* bit-identical δ spend — each engine's connection must charge exactly
  the same error probability to the ledger (``==``, not approx).

Cases are deterministic per seed, so a pass is reproducible, and targets
are derived from each dataset's own scale (see the generator) so stopping
decisions never sit on 1e-9 knife edges.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import connect
from tests.support import forced_engine

from .generator import random_case

#: Generated cases replayed per engine (the CI contract is >= 200).
NUM_CASES = 200

RTOL = 1e-9
ATOL = 1e-9

#: Engine configurations: label -> (forced engine, connect() overrides).
#: "parallel" is the pool engine driven by the threaded ingest driver.
ENGINES = {
    "scalar": ("scalar", {}),
    "pool": ("pool", {}),
    "parallel": ("pool", {"parallelism": 2}),
}


def _run_engine(case, engine, overrides):
    conn = connect(
        case.scramble,
        bounder=case.bounder,
        delta=case.delta,
        policy="even",
        max_queries=1,
        strategy=case.strategy(),
        round_rows=case.round_rows,
        rng=np.random.default_rng(7),
        **overrides,
    )
    handle = conn.query(case.query)
    with forced_engine(engine):
        result = handle.result(start_block=case.start_block)
    return handle, result


def _close(x: float, y: float, context, exact: bool = False) -> None:
    if exact:
        assert x == y or (np.isnan(x) and np.isnan(y)), context
    elif np.isfinite(x) or np.isfinite(y):
        assert x == pytest.approx(y, rel=RTOL, abs=ATOL), context
    else:
        assert x == y or (np.isnan(x) and np.isnan(y)), context


def _assert_result_parity(case, label, left, right) -> None:
    context = (case.describe(), label)
    exact = case.query.aggregate.is_quantile
    assert left.metrics.rows_read == right.metrics.rows_read, context
    assert left.metrics.rounds == right.metrics.rounds, context
    assert left.metrics.blocks_fetched == right.metrics.blocks_fetched, context
    assert left.metrics.stopped_early == right.metrics.stopped_early, context
    assert set(left.groups) == set(right.groups), context
    for key, a in left.groups.items():
        b = right.groups[key]
        _close(a.interval.lo, b.interval.lo, (*context, key, "interval.lo"), exact)
        _close(a.interval.hi, b.interval.hi, (*context, key, "interval.hi"), exact)
        _close(
            a.count_interval.lo, b.count_interval.lo, (*context, key, "civ.lo")
        )
        _close(
            a.count_interval.hi, b.count_interval.hi, (*context, key, "civ.hi")
        )
        _close(a.estimate, b.estimate, (*context, key, "estimate"), exact)
        assert a.samples == b.samples, (*context, key, "samples")
        assert a.exhausted == b.exhausted, (*context, key, "exhausted")


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_generated_case_parity(seed):
    case = random_case(seed)
    results = {
        label: _run_engine(case, engine, overrides)
        for label, (engine, overrides) in ENGINES.items()
    }
    _, reference = results["scalar"]
    for label in ("pool", "parallel"):
        _, result = results[label]
        _assert_result_parity(case, f"scalar-vs-{label}", reference, result)

    # δ accounting must be bit-identical across engines: same ledger
    # charge and same recorded spend, compared with exact float equality.
    deltas = {label: handle.delta for label, (handle, _) in results.items()}
    assert deltas["scalar"] == deltas["pool"] == deltas["parallel"], (
        case.describe(), deltas,
    )
    spends = {label: result.delta for label, (_, result) in results.items()}
    assert spends["scalar"] == spends["pool"] == spends["parallel"], (
        case.describe(), spends,
    )


def test_harness_bounder_override(monkeypatch):
    """REPRO_HARNESS_BOUNDER pins every case to one family without
    perturbing any other draw (the rng stream is consumed either way)."""
    baseline = random_case(5)
    monkeypatch.setenv("REPRO_HARNESS_BOUNDER", "anderson+rt")
    forced = random_case(5)
    assert forced.bounder == "anderson+rt"
    assert forced.query.describe() == baseline.query.describe()
    assert forced.strategy_name == baseline.strategy_name
    assert forced.window_blocks == baseline.window_blocks
    assert forced.start_block == baseline.start_block


def test_generator_is_deterministic():
    """The same seed must expand to the same case (reproducible failures)."""
    a, b = random_case(3), random_case(3)
    assert a.describe() == b.describe()
    assert np.array_equal(a.table.continuous("x"), b.table.continuous("x"))
    assert np.array_equal(
        a.scramble.table.continuous("x"), b.scramble.table.continuous("x")
    )


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_HARNESS_BOUNDER", "").strip()),
    reason="REPRO_HARNESS_BOUNDER pins every case to one family by design",
)
def test_generator_covers_the_query_space():
    """The first NUM_CASES seeds must exercise every aggregate, strategy,
    grouped and scalar shapes, predicates, and both engines' dispatch
    regimes — the harness is only as strong as its spread."""
    cases = [random_case(seed) for seed in range(NUM_CASES)]
    aggregates = {case.query.aggregate for case in cases}
    strategies = {case.strategy_name for case in cases}
    bounders = {case.bounder for case in cases}
    assert len(aggregates) == 5
    # The order-statistics family must be drawn in both flavours, at
    # several quantile levels (each gets its own per-query bounder).
    from repro.fastframe.query import AggregateFunction

    assert AggregateFunction.MEDIAN in aggregates
    assert AggregateFunction.PERCENTILE in aggregates
    levels = {
        case.query.percentile
        for case in cases
        if case.query.aggregate is AggregateFunction.PERCENTILE
    }
    assert len(levels) >= 3
    assert len(strategies) == 3
    assert len(bounders) >= 4
    # Both O(m) pool shapes must be drawn: the CSR sample pool and the
    # CSR-under-RangeTrim composite (the new delta merges are only as
    # tested as the harness's spread).
    assert "anderson" in bounders
    assert "anderson+rt" in bounders
    assert any(case.query.group_by == () for case in cases)
    assert any(len(case.query.group_by) == 2 for case in cases)
    assert any(
        type(case.query.predicate).__name__ == "Eq" for case in cases
    )
    assert any(case.window_blocks < 1024 for case in cases)
