"""Monte-Carlo coverage tests: every bounder is SSI (Definition 1).

A (1 − δ) error bounder must fail — return an interval missing the true
dataset mean — with probability below δ *at every sample size*.  These
tests run many independent without-replacement samples at a moderate δ and
check the empirical failure rate.  Since the bounders are conservative,
the observed failure rate is essentially always zero; the assertion allows
the full δ budget plus binomial slack so the test is not flaky.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import available_bounders, get_bounder
from repro.datasets.synthetic import DATASET_GENERATORS

TRIALS = 120
DELTA = 0.2
SLACK = 3 * np.sqrt(DELTA * (1 - DELTA) / TRIALS)  # ≈ 0.11 at 120 trials


def failure_rate(bounder_name: str, data, a, b, m: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    failures = 0
    truth = data.mean()
    bounder = get_bounder(bounder_name)
    for _ in range(TRIALS):
        sample = data[rng.permutation(data.size)[:m]]
        state = bounder.init_state()
        bounder.update_batch(state, sample)
        ci = bounder.confidence_interval(state, a, b, data.size, DELTA)
        if not ci.lo <= truth <= ci.hi:
            failures += 1
    return failures / TRIALS


@pytest.mark.parametrize("bounder_name", available_bounders())
@pytest.mark.parametrize("dataset_name", ["uniform", "clustered", "outlier"])
def test_coverage_moderate_sample(bounder_name, dataset_name):
    rng = np.random.default_rng(99)
    data, a, b = DATASET_GENERATORS[dataset_name](20_000, rng)
    rate = failure_rate(bounder_name, data, a, b, m=500, seed=1)
    assert rate <= DELTA + SLACK, f"{bounder_name} on {dataset_name}: {rate}"


@pytest.mark.parametrize("bounder_name", ["bernstein+rt", "hoeffding+rt", "anderson"])
@pytest.mark.parametrize("m", [2, 5, 20, 100])
def test_coverage_is_sample_size_independent(bounder_name, m):
    """SSI means validity at *tiny* sample sizes too — where asymptotic
    (CLT/bootstrap) intervals are known to fail."""
    rng = np.random.default_rng(7)
    data, a, b = DATASET_GENERATORS["lognormal"](5_000, rng)
    rate = failure_rate(bounder_name, data, a, b, m=m, seed=2)
    assert rate <= DELTA + SLACK


def test_two_point_worst_case_coverage():
    """Hoeffding's asymptotic-optimality regime must still be covered by
    every bounder, including the trimmed ones (Theorem 2 holds for any
    data in [a, b])."""
    rng = np.random.default_rng(3)
    data, a, b = DATASET_GENERATORS["two-point"](10_000, rng)
    for bounder_name in ("hoeffding", "bernstein+rt", "anderson"):
        rate = failure_rate(bounder_name, data, a, b, m=200, seed=4)
        assert rate <= DELTA + SLACK


def test_rangetrim_coverage_with_duplicates():
    """The Lemma 4 wrinkle: correctness must survive duplicate values
    (the paper's labelling argument)."""
    rng = np.random.default_rng(5)
    data = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=8_000)
    rate = failure_rate("bernstein+rt", data, 0.0, 1.0, m=300, seed=6)
    assert rate <= DELTA + SLACK


def test_nominal_delta_near_one_sided_budget():
    """With δ close to 1 the intervals may be very tight but must remain
    valid often enough; sanity check that nothing degenerates."""
    rng = np.random.default_rng(11)
    data, a, b = DATASET_GENERATORS["uniform"](5_000, rng)
    bounder = get_bounder("bernstein")
    state = bounder.init_state()
    bounder.update_batch(state, data[:500])
    ci = bounder.confidence_interval(state, a, b, data.size, 0.9)
    assert a <= ci.lo <= ci.hi <= b
