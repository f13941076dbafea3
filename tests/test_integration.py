"""End-to-end integration: the full paper pipeline on one small scramble.

These tests exercise the complete stack — generator → scramble → bitmap
indexes → executor (every bounder × strategy) → stopping conditions →
correctness against Exact — the workflow a downstream user runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bounders import EVALUATED_BOUNDERS, get_bounder
from repro.experiments import ALL_QUERIES, build_query, check_correctness
from repro.fastframe import ApproximateExecutor, ExactExecutor, get_strategy

DELTA = 1e-6


def test_package_exports_quickstart_symbols():
    assert repro.__version__
    for name in ("connect", "ExactExecutor", "Query", "get_bounder"):
        assert hasattr(repro, name)
    # 2.0 removed the eager top-level constructors; connect() is the door.
    for name in ("ApproximateExecutor", "Session"):
        assert not hasattr(repro, name)
    # The out-of-core storage surface must survive packaging: everything
    # the examples and benches import off the top-level package.
    for name in (
        "BlockStoreError",
        "MmapBlockStore",
        "StorageCounters",
        "attach_block_storage",
        "open_block_scramble",
        "write_block_store",
    ):
        assert hasattr(repro, name)
    import repro.fastframe as fastframe

    for name in fastframe.__all__:
        assert hasattr(fastframe, name), name


@pytest.mark.parametrize("query_name", sorted(ALL_QUERIES))
def test_every_flights_query_correct_with_best_bounder(small_scramble, query_name):
    """All nine paper queries give answers matching Exact under
    Bernstein+RT with ActivePeek — §5.4's headline correctness claim."""
    query = build_query(query_name)
    exact = ExactExecutor(small_scramble).execute(query)
    executor = ApproximateExecutor(
        small_scramble,
        get_bounder("bernstein+rt"),
        strategy=get_strategy("activepeek"),
        delta=DELTA,
        rng=np.random.default_rng(1),
    )
    result = executor.execute(query)
    assert check_correctness(query, result, exact, epsilon_slack=1e-9), query_name


@pytest.mark.parametrize("bounder_name", EVALUATED_BOUNDERS)
def test_every_bounder_correct_on_threshold_query(small_scramble, bounder_name):
    query = build_query("F-q2")
    exact = ExactExecutor(small_scramble).execute(query)
    executor = ApproximateExecutor(
        small_scramble,
        get_bounder(bounder_name),
        delta=DELTA,
        rng=np.random.default_rng(2),
    )
    result = executor.execute(query)
    assert check_correctness(query, result, exact), bounder_name


def test_bernstein_reads_less_than_hoeffding_on_easy_query(small_scramble):
    """The paper's core quantitative claim at small scale: the PMA-free
    bounder terminates with fewer rows on a comfortably-separated
    threshold query."""
    query = build_query("F-q2")

    def rows_for(name):
        executor = ApproximateExecutor(
            small_scramble,
            get_bounder(name),
            delta=DELTA,
            rng=np.random.default_rng(3),
        )
        return executor.execute(query).metrics.rows_read

    assert rows_for("bernstein+rt") <= rows_for("hoeffding")


def test_repeated_runs_always_sound(small_scramble):
    """Mini coverage test of the full executor: across seeds, intervals
    always enclose the exact aggregate (δ=1e-6 makes failures
    effectively impossible)."""
    query = build_query("F-q1", epsilon=1.0)
    exact = ExactExecutor(small_scramble).execute(query).scalar().estimate
    for seed in range(8):
        executor = ApproximateExecutor(
            small_scramble,
            get_bounder("bernstein+rt"),
            delta=DELTA,
            rng=np.random.default_rng(seed),
        )
        group = executor.execute(query).scalar()
        assert group.interval.lo - 1e-9 <= exact <= group.interval.hi + 1e-9
