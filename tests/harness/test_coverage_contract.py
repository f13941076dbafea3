"""End-to-end statistical validation of the 1−δ coverage contract.

The paper's headline guarantee: every interval the engine returns covers
the true aggregate with probability ≥ 1−δ, *jointly over all of a
query's groups*, while the engine stops as early as its bounds allow.
The unit suites pin engine-vs-engine parity; this suite pins the
statistics themselves: over repeated synthetic-data seeds, the fraction
of runs whose final intervals all contain the exactly-computed truth
must be at least 1−δ minus a binomial sampling tolerance.

δ is set far looser than production (0.1 instead of 1e-15) so a failure
probability of that order would actually be observable at harness scale;
the bounds are conservative, so the empirical coverage should sit near
1.0 — well clear of the threshold — and a regression that breaks the
accounting (a lost union-bound factor, a mis-split budget, a biased
sampler) shows up as mass coverage loss, not a flaky borderline.

Each configuration also asserts that a healthy fraction of runs stopped
*early* — otherwise every interval would be the degenerate exact answer
and the test would be vacuous.

One case holds the contrast the contract exists for (§1): an asymptotic
z-interval, computed in the test, undercovers on skewed data where the
SSI bounder does not.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import AbsoluteAccuracy, RelativeAccuracy

from tests.support import execute

from .generator import GeneratedCase

DELTA = 0.1
TRIALS = 150

#: One-sided binomial slack: 4 standard errors below 1−δ.
THRESHOLD = 1.0 - DELTA - 4.0 * np.sqrt(DELTA * (1.0 - DELTA) / TRIALS)


#: Relative float slack for interval containment: a view read to
#: exhaustion reports the degenerate exact interval, which can differ
#: from the numpy-computed oracle in the last ulp (different summation
#: order).  This is float rounding, not a coverage miss.
FLOAT_SLACK = 1e-9


def _trial_case(seed: int, aggregate: AggregateFunction) -> GeneratedCase:
    rng = np.random.default_rng(700_000 + seed)
    n = 24_000
    table = Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={"g": rng.integers(0, 6, n).astype(str)},
        range_pad=0.1,
    )
    scramble = Scramble(table, rng=np.random.default_rng(800_000 + seed))
    if aggregate is AggregateFunction.AVG:
        stopping = RelativeAccuracy(0.3)
    elif aggregate is AggregateFunction.SUM:
        # Half a typical group total (mean 20 × n/6 rows): loose enough
        # to stop mid-scan, tight enough to need a certified interval.
        stopping = AbsoluteAccuracy(20.0 * n / 6 * 0.5)
    elif aggregate.is_quantile:
        # DKW-inverted widths shrink with 1/sqrt(m) times the local
        # density; ~8 value units is reachable after a few rounds on
        # gamma(2, 10) groups of ~4k rows without scanning to exhaustion.
        stopping = AbsoluteAccuracy(8.0)
    else:
        stopping = AbsoluteAccuracy(n / 6 * 0.4)
    query = Query(
        aggregate,
        None if aggregate is AggregateFunction.COUNT else "x",
        stopping,
        group_by=("g",),
        percentile=0.9 if aggregate is AggregateFunction.PERCENTILE else None,
    )
    return GeneratedCase(
        seed=seed,
        table=table,
        scramble=scramble,
        query=query,
        bounder="bernstein+rt",
        strategy_name="scan",
        window_blocks=32,
        delta=DELTA,
        round_rows=800,
        start_block=int(rng.integers(scramble.num_blocks)),
    )


def _run_trials(aggregate: AggregateFunction, engine: str, parallelism: int):
    covered = 0
    stopped_early = 0
    for seed in range(TRIALS):
        case = _trial_case(seed, aggregate)
        result = execute(
            case.scramble,
            get_bounder(case.bounder),
            case.query,
            engine=engine,
            start_block=case.start_block,
            config=ExecConfig.resolve(parallelism=parallelism),
            strategy=case.strategy(),
            delta=case.delta,
            round_rows=case.round_rows,
        )
        stopped_early += int(result.metrics.stopped_early)
        truths = case.true_aggregates()
        trial_ok = True
        for key, truth in truths.items():
            group = result.groups.get(key)
            if group is None:
                # A group with real rows was certified empty — a bounds
                # failure, not a legal drop.
                trial_ok = False
                break
            slack = FLOAT_SLACK * max(1.0, abs(truth))
            if not (
                group.interval.lo - slack <= truth <= group.interval.hi + slack
            ):
                trial_ok = False
                break
        covered += int(trial_ok)
    return covered / TRIALS, stopped_early / TRIALS


@pytest.mark.parametrize(
    "aggregate,engine,parallelism",
    [
        (AggregateFunction.AVG, "pool", 1),
        (AggregateFunction.SUM, "scalar", 1),
        (AggregateFunction.COUNT, "pool", 2),
        (AggregateFunction.MEDIAN, "pool", 2),
        (AggregateFunction.PERCENTILE, "scalar", 1),
    ],
    ids=[
        "avg-pool",
        "sum-scalar",
        "count-parallel",
        "median-parallel",
        "percentile-scalar",
    ],
)
def test_intervals_cover_truth_at_least_one_minus_delta(
    aggregate, engine, parallelism
):
    coverage, early = _run_trials(aggregate, engine, parallelism)
    assert coverage >= THRESHOLD, (
        f"empirical coverage {coverage:.3f} under 1-delta-tolerance "
        f"{THRESHOLD:.3f} over {TRIALS} trials (delta={DELTA})"
    )
    # Non-vacuity: the guarantee must be tested on genuinely certified
    # (not exhausted-exact) intervals for a solid share of trials.
    assert early >= 0.3, f"only {early:.1%} of trials stopped early"


def test_asymptotic_interval_undercovers_where_ssi_holds():
    """§1's motivating claim: a CLT interval is "compact without
    correctness".  On a heavy right-skew column (an Exponential(1) body,
    0.5 % of rows at 1 000) at m = 30, the z-interval misses the true mean
    in more than 2δ of the samples, while ``bernstein+rt`` — SSI, so valid
    at every sample size — misses in at most δ of the same samples."""
    delta, m, trials = 0.05, 30, 300
    rng = np.random.default_rng(0)
    outliers = 10  # 0.5 % of 2 000 rows
    data = np.concatenate(
        [rng.exponential(1.0, 2_000 - outliers), np.full(outliers, 1_000.0)]
    )
    rng.shuffle(data)
    a, b, truth = float(data.min()), float(data.max()), float(data.mean())
    z = NormalDist().inv_cdf(1.0 - delta / 2)
    bounder = get_bounder("bernstein+rt")
    z_misses = ssi_misses = 0
    for _ in range(trials):
        sample = rng.choice(data, size=m, replace=False)
        half_width = z * sample.std(ddof=1) / np.sqrt(m)
        z_misses += not sample.mean() - half_width <= truth <= sample.mean() + half_width
        state = bounder.init_state()
        bounder.update_batch(state, sample)
        interval = bounder.confidence_interval(state, a, b, data.size, delta)
        ssi_misses += not interval.lo <= truth <= interval.hi
    assert z_misses / trials > 2 * delta, f"z-interval missed {z_misses}/{trials}"
    assert ssi_misses / trials <= delta, f"bernstein+rt missed {ssi_misses}/{trials}"


def test_true_aggregates_oracle_matches_numpy():
    """The oracle itself, cross-checked on one case by direct slicing."""
    case = _trial_case(0, AggregateFunction.AVG)
    truths = case.true_aggregates()
    x = case.table.continuous("x")
    column = case.table.categorical("g")
    for key, value in truths.items():
        member = column.codes == column.code_of(key[0])
        assert value == pytest.approx(float(x[member].mean()), rel=1e-12)
    assert set(len(key) for key in truths) == {1}
