"""Table 5: per-query speedup of each error bounder over Exact.

Regenerates the paper's central ablation — Exact vs Hoeffding(-Serfling)
vs Hoeffding+RT vs (empirical) Bernstein(-Serfling) vs Bernstein+RT on all
nine flights queries, reporting wall time and the CPU-independent
blocks-fetched metric (§5.3).  README.md lists the commands that
regenerate it; at this substrate's scale, absolute speedups compress but
the ordering (Bernstein+RT ≥ Bernstein ≫ Hoeffding ≥ Exact, with RT's
edge largest on sparse-group queries) is the reproduction target.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_DELTA
from repro.bounders import EVALUATED_BOUNDERS
from repro.experiments import build_query, check_correctness, run_query_once
from repro.fastframe import ExactExecutor

QUERIES = tuple(f"F-q{i}" for i in range(1, 10))

_exact_cache: dict = {}


def _exact(scramble, query_name):
    if query_name not in _exact_cache:
        query = build_query(query_name)
        _exact_cache[query_name] = ExactExecutor(scramble).execute(query)
    return _exact_cache[query_name]


@pytest.mark.parametrize("query_name", QUERIES)
def test_exact_baseline(benchmark, bench_scramble, query_name):
    query = build_query(query_name)
    result = benchmark.pedantic(
        lambda: ExactExecutor(bench_scramble).execute(query), rounds=3, iterations=1
    )
    benchmark.extra_info["rows_read"] = result.metrics.rows_read
    benchmark.extra_info["blocks_fetched"] = result.metrics.blocks_fetched


@pytest.mark.parametrize("bounder_name", EVALUATED_BOUNDERS)
@pytest.mark.parametrize("query_name", QUERIES)
def test_bounder(benchmark, bench_scramble, query_name, bounder_name):
    query = build_query(query_name)
    exact = _exact(bench_scramble, query_name)
    runs = []

    def run():
        result = run_query_once(
            bench_scramble, query, bounder_name, delta=BENCH_DELTA, seed=len(runs)
        )
        runs.append(result)
        return result

    benchmark.pedantic(run, rounds=3, iterations=1)
    last = runs[-1]
    benchmark.extra_info["rows_read"] = last.metrics.rows_read
    benchmark.extra_info["blocks_fetched"] = last.metrics.blocks_fetched
    benchmark.extra_info["blocks_speedup_vs_exact"] = round(
        exact.metrics.blocks_fetched / max(last.metrics.blocks_fetched, 1), 2
    )
    benchmark.extra_info["stopped_early"] = last.metrics.stopped_early
    # The paper's primary metric: results must be correct, always.
    for result in runs:
        assert check_correctness(query, result, exact, epsilon_slack=1e-9), (
            query_name,
            bounder_name,
        )
