"""Tests for the SSI-vs-asymptotic coverage experiment (§1 motivation)."""

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.experiments.coverage import (
    CoverageCell,
    measure_coverage,
    run_coverage_experiment,
    skewed_dataset,
)


class TestSkewedDataset:
    def test_size_and_outliers(self):
        data = skewed_dataset(n=1_000, outlier_fraction=0.01, outlier_value=500.0)
        assert data.size == 1_000
        assert (data == 500.0).sum() == 10

    def test_at_least_one_outlier(self):
        data = skewed_dataset(n=100, outlier_fraction=1e-6, outlier_value=99.0)
        assert (data == 99.0).sum() == 1

    def test_shuffled(self):
        """Outliers must not all sit at the end of the array."""
        data = skewed_dataset(n=5_000, outlier_fraction=0.01, outlier_value=123.0)
        positions = np.flatnonzero(data == 123.0)
        assert positions.min() < 2_500 < positions.max()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            skewed_dataset(outlier_fraction=1.5)


class TestMeasureCoverage:
    def test_ssi_bounder_respects_delta(self):
        data = skewed_dataset(n=800, rng=np.random.default_rng(0))
        cell = measure_coverage(
            get_bounder("bernstein+rt"),
            data,
            sample_size=50,
            delta=0.05,
            trials=200,
            rng=np.random.default_rng(1),
        )
        assert cell.miss_rate <= 0.05
        assert cell.ssi is True

    def test_clt_undercovers_on_skewed_data(self):
        """The paper's motivating failure: both asymptotic bounders (CLT and
        bootstrap) miss far more than δ when the sample usually contains no
        outlier."""
        data = skewed_dataset(
            n=2_000, outlier_fraction=0.005, outlier_value=1_000.0,
            rng=np.random.default_rng(0),
        )
        for name in ("clt", "bootstrap"):
            cell = measure_coverage(
                get_bounder(name),
                data,
                sample_size=30,
                delta=0.05,
                trials=300,
                rng=np.random.default_rng(2),
            )
            assert cell.miss_rate > 0.10, name
            assert cell.ssi is False

    def test_narrower_means_the_tradeoff_exists(self):
        data = skewed_dataset(n=1_000, rng=np.random.default_rng(0))
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        clt = measure_coverage(get_bounder("clt"), data, 40, 0.05, 50, rng_a)
        hoef = measure_coverage(get_bounder("hoeffding"), data, 40, 0.05, 50, rng_b)
        assert clt.mean_width < hoef.mean_width

    def test_rejects_oversized_sample(self):
        data = skewed_dataset(n=100)
        with pytest.raises(ValueError):
            measure_coverage(
                get_bounder("clt"), data, 101, 0.05, 10, np.random.default_rng(0)
            )

    def test_explicit_bounds_override(self):
        data = np.array([0.0, 1.0, 2.0, 3.0] * 20)
        cell = measure_coverage(
            get_bounder("hoeffding"),
            data,
            sample_size=10,
            delta=0.1,
            trials=20,
            rng=np.random.default_rng(0),
            bounds=(-10.0, 10.0),
        )
        # Wider catalog bounds widen Hoeffding CIs but never break coverage.
        assert cell.misses == 0


class TestRunCoverageExperiment:
    def test_grid_shape(self):
        cells = run_coverage_experiment(
            bounder_names=("hoeffding", "clt"),
            sample_sizes=(20, 50),
            trials=30,
            seed=0,
        )
        assert len(cells) == 4
        assert {c.bounder for c in cells} == {"Hoeffding", "CLT"}

    def test_ssi_flag_partition(self):
        cells = run_coverage_experiment(
            bounder_names=("bernstein+rt", "bootstrap"),
            sample_sizes=(25,),
            trials=20,
            seed=1,
        )
        flags = {c.bounder: c.ssi for c in cells}
        assert flags["Bernstein+RT"] is True
        assert flags["Bootstrap"] is False

    def test_reproducible(self):
        kwargs = dict(
            bounder_names=("clt",), sample_sizes=(30,), trials=50, seed=42
        )
        first = run_coverage_experiment(**kwargs)
        second = run_coverage_experiment(**kwargs)
        assert first[0].misses == second[0].misses
        assert first[0].mean_width == second[0].mean_width

    def test_cell_miss_rate(self):
        cell = CoverageCell("x", 10, trials=200, misses=7, mean_width=1.0, ssi=True)
        assert cell.miss_rate == pytest.approx(0.035)
