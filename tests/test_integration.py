"""End-to-end integration: the full paper pipeline on one small scramble.

These tests exercise the complete stack — generator → scramble → bitmap
indexes → executor (every bounder × strategy) → stopping conditions →
correctness against Exact — the workflow a downstream user runs.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

import repro
from repro.bounders import EVALUATED_BOUNDERS, get_bounder
from repro.datasets.queries import FIGURE5_SQL, build_query
from repro.fastframe import ApproximateExecutor, ExactExecutor, get_strategy
from tests.support import paper_harness

check_correctness = paper_harness().check_correctness

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
    # 3.0 removed the related-work baselines and the advisory planner,
    # which nothing connect() serves reached.
    assert not hasattr(repro, "QueryPlanner")
    assert "QueryPlanner" not in repro.__all__
    for name in (
        "OutlierAvgResult",
        "OutlierIndexedStore",
        "compose_outlier_avg",
        "PlanEstimate",
        "QueryPlanner",
        "PrioritySampleIndex",
        "StratifiedSampleStore",
        "StratumResult",
        "UnsupportedQueryError",
    ):
        assert not hasattr(fastframe, name), name
        assert name not in fastframe.__all__, name
    for module in ("stratified", "outlier_index", "priority", "planner"):
        assert importlib.util.find_spec(f"repro.fastframe.{module}") is None, module
    # 5.0 removed the asymptotic (non-SSI) bounders and the coverage
    # experiment that ran them (pinned with the rest of the old harness in
    # test_paper_harness_is_outside_the_package): every registered bounder
    # issues certificates.
    import repro.bounders as bounders

    for name in ("CLTBounder", "StudentTBounder", "BootstrapBounder"):
        assert not hasattr(bounders, name), name
        assert name not in bounders.__all__, name
    assert "native_delta_bounders" not in bounders.__all__
    assert not {"clt", "student-t", "bootstrap"} & set(bounders.available_bounders())
    assert importlib.util.find_spec("repro.bounders.asymptotic") is None
    # The mergeable bounder-delta protocol went with the process workers:
    # every pool is fed through update_pool, serial and threaded alike.
    import repro.bounders.anderson as anderson
    import repro.bounders.base as base
    import repro.bounders.range_trim as range_trim

    for name in ("BounderDelta", "MomentDelta", "RangeTrimDelta", "AndersonDelta"):
        assert name not in bounders.__all__, name
        for module in (base, anderson, range_trim):
            assert not hasattr(module, name), (module.__name__, name)
    for method in ("partition_delta", "merge_delta", "delta_context", "supports_delta"):
        assert not hasattr(bounders.ErrorBounder, method), method


def test_one_count_bound(small_scramble):
    """The exact hypergeometric COUNT method and the no-FPC Hoeffding
    bounder are gone: Lemma 5 is the only COUNT/N⁺ bound, and Hoeffding
    always applies the Serfling correction."""
    import repro.bounders as bounders
    import repro.fastframe as fastframe

    assert importlib.util.find_spec("repro.fastframe.hypergeometric") is None
    assert "COUNT_METHODS" not in fastframe.__all__
    assert not [name for name in fastframe.__all__ if "hypergeometric" in name]
    assert "HoeffdingBounder" not in bounders.__all__
    with pytest.raises(KeyError, match="hoeffding-no-fpc"):
        get_bounder("hoeffding-no-fpc")
    with pytest.raises(TypeError, match="count_method"):
        repro.connect(small_scramble, count_method="serfling")



#: Names ``repro.fastframe`` exported while nothing imported them through
#: the package; each is still reachable through its submodule.
_UNEXPORTED_FASTFRAME = (
    "AUTO_POOL_THRESHOLD", "ActivePeekStrategy", "ActiveSyncStrategy",
    "BlockBitmapIndex", "BlockCache", "Catalog", "CategoricalColumn",
    "ColumnKind", "DEFAULT_BLOCK_SIZE", "DEFAULT_CACHE_BYTES",
    "DEFAULT_ROUND_ROWS", "DEFAULT_STORE_BLOCK_ROWS", "ENGINES",
    "EVALUATED_STRATEGIES", "ExecConfig", "ExecutionMetrics", "GroupResult",
    "LOOKAHEAD_BATCH_BLOCKS", "Or", "Predicate", "QueryRun",
    "SamplingStrategy", "ScanCursor", "SelectivityState", "TruePredicate",
    "ViewPool", "WindowFrame", "count_interval", "count_interval_batch",
    "denormalize", "open_block_store", "run_shared_scan",
    "selectivity_interval", "sum_interval", "sum_interval_batch",
    "upper_bound_population", "upper_bound_population_batch",
)


def test_src_holds_only_the_served_path():
    """The in-memory OptStop driver and the PMA/PHOS detectors are test
    oracles, not package modules: the executor runs Algorithm 5 and
    RangeTrim removes PHOS on the served path."""
    import repro.bounders as bounders
    import repro.fastframe as fastframe
    import repro.stats as stats
    import repro.stopping as stopping

    for module in ("repro.stopping.optstop", "repro.bounders.pathology"):
        assert importlib.util.find_spec(module) is None, module
    for name in (
        "optional_stopping", "fixed_size_interval", "OptStopResult",
        "RunningIntersection", "DEFAULT_BATCH_SIZE",
    ):
        assert not hasattr(stopping, name), name
        assert name not in stopping.__all__, name
    for name in ("exhibits_phos", "exhibits_pma", "pathology_profile"):
        assert not hasattr(bounders, name), name
        assert name not in bounders.__all__, name
    assert "geometric_round_delta" not in stats.__all__
    assert len(_UNEXPORTED_FASTFRAME) == 37
    for name in _UNEXPORTED_FASTFRAME:
        assert name not in fastframe.__all__, name
    assert len(fastframe.__all__) == 23


def test_paper_harness_is_outside_the_package():
    """The Table 5/6 and Figure 6-8 harness is ``benchmarks/paper.py`` and
    the query builders are SQL in ``repro.datasets.queries``; only the
    re-export the frozen ``benchmarks/e2e/run.py`` imports is left."""
    import repro.experiments as experiments
    import repro.experiments.sweeps as sweeps

    for module in ("runner", "format", "queries", "coverage"):
        assert importlib.util.find_spec(f"repro.experiments.{module}") is None, module
    assert [name for name in vars(experiments) if not name.startswith("__")] == [
        "sweeps"
    ]
    assert sweeps.__all__ == ["airports_by_selectivity"]
    assert [name for name in vars(sweeps) if not name.startswith("__")] == [
        "airports_by_selectivity"
    ]


def test_one_bound_program_per_pool_kernel():
    """The small-set Python-float forks of the RangeTrim, COUNT and N⁺
    batch kernels are gone: each pool kernel is one numpy program."""
    import repro.bounders.bernstein as bernstein
    import repro.bounders.range_trim as range_trim
    import repro.fastframe.count as count
    from repro.bounders.base import MomentPoolBounderMixin

    assert "empirical_bernstein_serfling_epsilon_one" not in bernstein.__all__
    assert not hasattr(bernstein, "empirical_bernstein_serfling_epsilon_one")
    for name in ("_epsilon_one", "supports_scalar_bounds", "lbound_one", "rbound_one"):
        assert not hasattr(MomentPoolBounderMixin, name), name
    for module in (range_trim, count):
        assert not hasattr(module, "_SCALAR_DISPATCH_MAX"), module.__name__
    assert not hasattr(range_trim.RangeTrimBounder, "_confidence_interval_small")


@pytest.mark.parametrize("query_name", sorted(FIGURE5_SQL))
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
