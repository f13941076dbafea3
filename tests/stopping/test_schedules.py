"""Tests for OptStop round schedules: arithmetic (Algorithm 5) vs geometric."""

import math

import numpy as np
import pytest

from repro.bounders import get_bounder
from repro.stats.delta import optstop_round_delta
from tests.stopping.reference import geometric_round_delta, optional_stopping


class TestGeometricDecay:
    def test_telescopes_to_delta(self):
        delta = 0.01
        total = sum(geometric_round_delta(delta, k) for k in range(1, 200))
        assert total == pytest.approx(delta, rel=1e-12)

    def test_halving(self):
        assert geometric_round_delta(0.1, 2) == pytest.approx(
            geometric_round_delta(0.1, 1) / 2.0
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            geometric_round_delta(0.1, 0)
        with pytest.raises(ValueError):
            geometric_round_delta(1.5, 1)

    def test_binding_delta_larger_than_arithmetic_late(self):
        """At the round reached after m samples, the geometric schedule's
        δ is far larger (→ tighter width) than the arithmetic schedule's.

        After m = B·2^K samples the geometric schedule is at round K+1 with
        δ·2^{−(K+1)}, while the arithmetic schedule is at round 2^K with
        δ·(6/π²)/4^K — exponentially smaller in K.
        """
        delta, big_k = 1e-9, 10
        geometric = geometric_round_delta(delta, big_k + 1)
        arithmetic = optstop_round_delta(delta, 2**big_k)
        assert geometric > arithmetic * 100


class TestGeometricSchedule:
    def _run(self, schedule, seed=0, target=0.5, **kwargs):
        rng = np.random.default_rng(seed)
        data = rng.normal(10.0, 3.0, size=60_000)
        defaults = dict(
            bounder=get_bounder("bernstein+rt"),
            a=float(data.min()),
            b=float(data.max()),
            delta=1e-9,
            should_stop=lambda interval, estimate: interval.width < target,
            batch_size=1_000,
            rng=np.random.default_rng(seed + 1),
        )
        defaults.update(kwargs)
        return optional_stopping(data, schedule=schedule, **defaults), data

    def test_unknown_schedule_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="schedule"):
            optional_stopping(
                rng.normal(size=100),
                get_bounder("hoeffding"),
                a=-5.0, b=5.0, delta=0.1,
                should_stop=lambda interval, estimate: False,
                schedule="fibonacci",
            )

    def test_round_counts_logarithmic(self):
        arithmetic, _ = self._run("arithmetic", target=0.0)  # never stops
        geometric, _ = self._run("geometric", target=0.0)
        assert geometric.rounds <= math.ceil(math.log2(arithmetic.rounds)) + 2
        assert arithmetic.samples == geometric.samples == 60_000

    def test_both_schedules_cover_truth(self):
        for schedule in ("arithmetic", "geometric"):
            result, data = self._run(schedule, seed=3, target=0.4)
            truth = float(data.mean())
            assert result.interval.lo <= truth <= result.interval.hi

    def test_geometric_tighter_after_long_run(self):
        """Run both schedules to exhaustion with a tiny batch size (many
        arithmetic rounds): the geometric schedule's final interval is
        tighter because its binding δ decayed only logarithmically."""
        arithmetic, _ = self._run("arithmetic", seed=5, target=0.0, batch_size=250)
        geometric, _ = self._run("geometric", seed=5, target=0.0, batch_size=250)
        assert geometric.interval.width < arithmetic.interval.width

    def test_exhaustion_on_heavy_tailed_data(self):
        """200 000 lognormal rows in 500-row batches, run to exhaustion: the
        geometric schedule takes under a tenth of the arithmetic rounds and
        still ends strictly narrower; both cover the mean."""
        data = np.random.default_rng(0).lognormal(2.0, 1.0, size=200_000)
        arithmetic, geometric = (
            optional_stopping(
                data, get_bounder("bernstein+rt"),
                a=float(data.min()), b=float(data.max()), delta=1e-9,
                should_stop=lambda interval, estimate: False,
                batch_size=500, rng=np.random.default_rng(1), schedule=schedule,
            )
            for schedule in ("arithmetic", "geometric")
        )
        assert geometric.rounds < arithmetic.rounds / 10
        assert geometric.interval.width < arithmetic.interval.width
        for result in (arithmetic, geometric):
            assert result.samples == data.size
            assert result.interval.lo <= float(data.mean()) <= result.interval.hi

    def test_geometric_stops_with_more_samples_granularity(self):
        """The cost side: geometric rounds are coarse, so the sample count
        at stop is a power-of-two multiple of the batch size."""
        result, _ = self._run("geometric", seed=7, target=1.0)
        assert result.stopped_early
        # samples = B·(2^k − 1) for the k rounds ingested
        k = result.rounds
        assert result.samples == 1_000 * (2**k - 1)
