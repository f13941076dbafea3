"""Tests for the OptStop meta-algorithm (Algorithm 5, Theorem 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bounders.base import Interval
from repro.bounders.registry import get_bounder
from repro.fastframe.executor import RunningIntersection
from tests.stopping.reference import fixed_size_interval, optional_stopping


class TestRunningIntersection:
    def test_starts_trivial(self):
        running = RunningIntersection()
        assert running.lo == -np.inf
        assert running.hi == np.inf

    def test_fold_tightens_monotonically(self):
        running = RunningIntersection()
        running.fold(Interval(0.0, 10.0))
        running.fold(Interval(2.0, 12.0))
        assert running.interval == Interval(2.0, 10.0)
        running.fold(Interval(-5.0, 9.0))
        assert running.interval == Interval(2.0, 9.0)

    def test_fold_never_loosens(self):
        running = RunningIntersection()
        running.fold(Interval(3.0, 4.0))
        running.fold(Interval(0.0, 10.0))
        assert running.interval == Interval(3.0, 4.0)

    def test_disjoint_folds_collapse_to_midpoint(self):
        running = RunningIntersection()
        running.fold(Interval(0.0, 1.0))
        running.fold(Interval(2.0, 3.0))
        assert running.lo == running.hi == pytest.approx(1.5)


class TestOptionalStopping:
    def test_stops_when_predicate_fires(self, rng):
        data = rng.uniform(0, 1, 50_000)
        result = optional_stopping(
            data,
            get_bounder("bernstein"),
            0.0,
            1.0,
            delta=0.05,
            should_stop=lambda interval, est: interval.width < 0.2,
            batch_size=1_000,
            rng=rng,
        )
        assert result.stopped_early
        assert result.interval.width < 0.2
        assert result.samples < data.size
        assert result.rounds == result.samples // 1_000

    def test_exhausts_without_stopping(self, rng):
        data = rng.uniform(0, 1, 2_000)
        result = optional_stopping(
            data,
            get_bounder("hoeffding"),
            0.0,
            1.0,
            delta=1e-15,
            should_stop=lambda interval, est: interval.width < 1e-9,
            batch_size=500,
            rng=rng,
        )
        assert not result.stopped_early
        assert result.samples == data.size

    def test_interval_contains_truth(self, rng):
        data = rng.lognormal(0, 1, 30_000).clip(0, 40)
        result = optional_stopping(
            data,
            get_bounder("bernstein+rt"),
            0.0,
            40.0,
            delta=0.01,
            should_stop=lambda interval, est: interval.width < 1.0,
            batch_size=2_000,
            rng=rng,
        )
        assert result.interval.lo <= data.mean() <= result.interval.hi

    def test_monte_carlo_coverage_under_repeated_looks(self):
        """The whole point of the δ-decay: despite recomputing bounds
        every round and stopping adaptively, the failure rate stays
        below δ (Theorem 4) — unlike naive per-round (1−δ) intervals,
        the mistake the paper calls out in [20]."""
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 1, 5_000)
        truth = data.mean()
        delta = 0.2
        trials, failures = 80, 0
        for seed in range(trials):
            result = optional_stopping(
                data,
                get_bounder("bernstein"),
                0.0,
                1.0,
                delta=delta,
                should_stop=lambda interval, est: interval.width < 0.15,
                batch_size=250,
                rng=np.random.default_rng(seed),
            )
            if not result.interval.lo <= truth <= result.interval.hi:
                failures += 1
        assert failures / trials <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)

    def test_rejects_empty_data(self, rng):
        with pytest.raises(ValueError):
            optional_stopping(
                np.array([]), get_bounder("hoeffding"), 0, 1, 0.05,
                should_stop=lambda i, e: True, rng=rng,
            )

    def test_rejects_bad_batch_size(self, rng):
        with pytest.raises(ValueError):
            optional_stopping(
                np.array([1.0]), get_bounder("hoeffding"), 0, 2, 0.05,
                should_stop=lambda i, e: True, batch_size=0, rng=rng,
            )

    def test_n_upper_bound_allowed(self, rng):
        """§3.3 monotonicity: passing an upper bound on N stays valid."""
        data = rng.uniform(0, 1, 3_000)
        result = optional_stopping(
            data, get_bounder("bernstein"), 0, 1, 0.05,
            should_stop=lambda i, e: False, batch_size=1_000, rng=rng,
            n=1_000_000,
        )
        assert result.interval.lo <= data.mean() <= result.interval.hi

    def test_rejects_n_below_data_size(self, rng):
        with pytest.raises(ValueError, match="upper bound"):
            optional_stopping(
                np.arange(10.0), get_bounder("hoeffding"), 0, 10, 0.05,
                should_stop=lambda i, e: True, rng=rng, n=5,
            )


class TestFixedSizeInterval:
    def test_uses_exactly_m_samples(self, rng):
        data = rng.uniform(0, 1, 10_000)
        result = fixed_size_interval(data, get_bounder("bernstein"), 500, 0, 1, 0.05, rng=rng)
        assert result.samples == 500
        assert result.rounds == 1
        assert result.interval.lo <= result.estimate <= result.interval.hi

    def test_rejects_bad_m(self, rng):
        data = np.arange(10.0)
        with pytest.raises(ValueError):
            fixed_size_interval(data, get_bounder("hoeffding"), 0, 0, 10, 0.05, rng=rng)
        with pytest.raises(ValueError):
            fixed_size_interval(data, get_bounder("hoeffding"), 11, 0, 10, 0.05, rng=rng)

    def test_full_budget_beats_optstop_round_budget(self, rng):
        """Condition Ê skips the δ-decay: a single full-budget interval is
        tighter than the same sample under OptStop's round-1 δ′."""
        data = rng.uniform(0, 1, 20_000)
        fixed = fixed_size_interval(
            data, get_bounder("bernstein"), 5_000, 0, 1, 0.05,
            rng=np.random.default_rng(1),
        )
        stopped = optional_stopping(
            data, get_bounder("bernstein"), 0, 1, 0.05,
            should_stop=lambda i, e: True, batch_size=5_000,
            rng=np.random.default_rng(1),
        )
        assert fixed.interval.width < stopped.interval.width

    def test_anytime_guarantee_costs_at_most_twice_the_width(self):
        """The δ-decay's price at the stopped sample count: OptStop's interval
        is no narrower than the full-budget one-shot interval, and at most 2×
        wider — the k² decay costs a log factor, not rate (§4.2)."""
        data = np.minimum(np.random.default_rng(31).lognormal(0.0, 1.0, 400_000), 40.0)
        stopped = optional_stopping(
            data, get_bounder("bernstein+rt"), 0.0, 40.0, delta=1e-9,
            should_stop=lambda interval, est: interval.width < 0.6,
            batch_size=40_000, rng=np.random.default_rng(6),
        )
        one_shot = fixed_size_interval(
            data, get_bounder("bernstein+rt"), stopped.samples, 0.0, 40.0, 1e-9,
            rng=np.random.default_rng(6),
        )
        assert stopped.stopped_early and stopped.interval.width < 0.6
        ratio = stopped.interval.width / one_shot.interval.width
        assert 1.0 <= ratio <= 2.0

