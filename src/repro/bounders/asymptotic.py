"""Asymptotic (non-SSI) error bounders: CLT and bootstrap CIs (§1).

The paper's introduction contrasts two families of error bounders:
*conservative* bounders built on concentration inequalities (everything in
:mod:`repro.bounders.hoeffding`, :mod:`repro.bounders.bernstein`, …) whose
guarantees hold at every sample size, and *asymptotic* bounders — central
limit theorem (CLT) intervals [61, 34] and bootstrap intervals [24, 25, 71]
— which "are correct in the limit as the sample size approaches infinity,
but provide no real guarantees for any given finite instance, potentially
leading to failures downstream" (§1).

This module implements both asymptotic families so that the reproduction
can quantify the paper's motivating claim: when used for early stopping,
asymptotic CIs are tighter but *fail more often than δ*, producing subset /
superset errors [52].  See :mod:`repro.experiments.coverage` for the
Monte-Carlo failure-rate experiment (``python -m repro coverage``).

Both bounders set ``ssi = False``; the approximate executor refuses to pair
them with guarantee-requiring workflows unless explicitly told otherwise.

Notes on finite populations
---------------------------
The classical CLT applies to i.i.d. sampling; for without-replacement
sampling from a finite population the correct limit theorem is Hájek's [34],
which rescales the variance by the finite-population correction (FPC)
``(N − m)/(N − 1)``.  :class:`CLTBounder` applies the FPC so its intervals
are the textbook survey-sampling intervals.  The bootstrap resamples *with*
replacement from the observed sample, ignoring the sampling fraction — the
standard practice the paper's citations use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _scipy_stats

from repro.bounders.base import (
    ErrorBounder,
    MomentPoolBounderMixin,
    validate_bound_args,
)
from repro.stats.streaming import MomentPool, MomentState

__all__ = [
    "CLTBounder",
    "StudentTBounder",
    "BootstrapBounder",
    "clt_epsilon",
]


def clt_epsilon(
    m: int,
    n: int,
    sigma_hat: float,
    delta: float,
    finite_population: bool = True,
) -> float:
    """One-sided CLT half-width ``z_{1−δ} · σ̂/√m · sqrt(FPC)``.

    Parameters
    ----------
    m:
        Sample size (``math.inf`` is returned for m < 1: no data, no
        asymptotics).
    n:
        Population size, used only for the finite-population correction.
    sigma_hat:
        Sample standard deviation.
    delta:
        One-sided error probability; the normal quantile ``z_{1−δ}`` is
        used, so δ = 1e-15 gives z ≈ 7.94.
    finite_population:
        Apply Hájek's FPC ``(N − m)/(N − 1)`` for without-replacement
        sampling.  With m = N the width collapses to zero (a census).
    """
    if m < 1:
        return math.inf
    z = float(_scipy_stats.norm.ppf(1.0 - delta))
    fpc = 1.0
    if finite_population and n > 1:
        fpc = max((n - m) / (n - 1), 0.0)
    return z * sigma_hat / math.sqrt(m) * math.sqrt(fpc)


class CLTBounder(MomentPoolBounderMixin, ErrorBounder):
    """Normal-approximation CI: ``ĝ ± z_{1−δ}·σ̂/√m·sqrt(FPC)``.

    This is the interval BlinkDB-style systems display [7, 6, 5].  It is
    *not* SSI: per the Berry-Esseen theorem its coverage error shrinks as
    ``O(1/√m)`` with constants depending on the unknown third absolute
    normalized moment (§1, footnote 1), so for skewed data and small m it
    can fail far more often than δ.  Pool state is a
    :class:`~repro.stats.streaming.MomentPool`, with the worker-computable
    mergeable delta (``partition_delta``/``merge_delta``) inherited from
    :class:`~repro.bounders.base.MomentPoolBounderMixin` — the asymptotic
    family rides the same Chan/Golub/LeVeque moment merge as Hoeffding and
    Bernstein.
    """

    name = "CLT"
    ssi = False

    def __init__(self, finite_population: bool = True) -> None:
        self.finite_population = finite_population

    def init_state(self) -> MomentState:
        return MomentState()

    def update(self, state: MomentState, value: float) -> None:
        state.update(value)

    def update_batch(self, state: MomentState, values: np.ndarray) -> None:
        state.update_batch(values)

    def sample_count(self, state: MomentState) -> int:
        return state.count

    def estimate(self, state: MomentState) -> float:
        return state.mean

    def _epsilon(self, state: MomentState, n: int, delta: float) -> float:
        return clt_epsilon(
            state.count, n, state.std, delta, finite_population=self.finite_population
        )

    def lbound(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return a
        return state.mean - self._epsilon(state, n, delta)

    def rbound(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return b
        return state.mean + self._epsilon(state, n, delta)

    def _epsilon_batch(
        self, pool: MomentPool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        m = pool.count[indices].astype(np.float64)
        n = np.asarray(n, dtype=np.float64)
        z = float(_scipy_stats.norm.ppf(1.0 - delta))
        fpc = np.ones_like(m)
        if self.finite_population:
            big = n > 1
            fpc = np.where(big, np.maximum((n - m) / np.maximum(n - 1.0, 1.0), 0.0), 1.0)
        eps = z * pool.std_of(indices) / np.sqrt(np.maximum(m, 1.0)) * np.sqrt(fpc)
        return np.where(m < 1, math.inf, eps)


class StudentTBounder(CLTBounder):
    """Student's t CI [61]: like :class:`CLTBounder` with t-quantiles.

    Uses the unbiased variance (``m2 / (m − 1)``) and ``t_{m−1}`` quantiles,
    the exact interval when the data are normal — and still only asymptotic
    otherwise.  Degenerates to the trivial ``[a, b]`` bounds for m < 2.
    """

    name = "Student-t"

    def _epsilon(self, state: MomentState, n: int, delta: float) -> float:
        m = state.count
        if m < 2:
            return math.inf
        t = float(_scipy_stats.t.ppf(1.0 - delta, df=m - 1))
        unbiased_std = math.sqrt(max(state.m2 / (m - 1), 0.0))
        fpc = 1.0
        if self.finite_population and n > 1:
            fpc = max((n - m) / (n - 1), 0.0)
        return t * unbiased_std / math.sqrt(m) * math.sqrt(fpc)

    def _epsilon_batch(
        self, pool: MomentPool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        m = pool.count[indices].astype(np.float64)
        n = np.asarray(n, dtype=np.float64)
        m_safe = np.maximum(m, 2.0)
        t = _scipy_stats.t.ppf(1.0 - delta, df=m_safe - 1.0)
        unbiased_std = np.sqrt(np.maximum(pool.m2[indices] / (m_safe - 1.0), 0.0))
        fpc = np.ones_like(m)
        if self.finite_population:
            big = n > 1
            fpc = np.where(big, np.maximum((n - m) / np.maximum(n - 1.0, 1.0), 0.0), 1.0)
        eps = t * unbiased_std / np.sqrt(m_safe) * np.sqrt(fpc)
        return np.where(m < 2, math.inf, eps)


@dataclass
class _BootstrapState:
    """Sample values plus running moments (the bootstrap needs both)."""

    values: list = field(default_factory=list)
    moments: MomentState = field(default_factory=MomentState)


class BootstrapBounder(ErrorBounder):
    """Percentile-bootstrap CI [24, 25]: quantiles of resampled means.

    Stores the full sample (``requires_sample_memory``, like Anderson/DKW in
    Table 2) and, per bound request, draws ``num_resamples`` with-replacement
    resamples of the observed values, computing the empirical δ and 1 − δ
    quantiles of the resample means.

    With δ = 1e-15 a literal percentile is meaningless below ~10¹⁵
    resamples, so like production systems we fall back to the normal
    approximation of the bootstrap distribution (mean ± z·std of resample
    means) once δ < 1/num_resamples — this keeps the bounder usable at the
    paper's operating point while remaining honestly non-SSI.

    Parameters
    ----------
    num_resamples:
        Bootstrap replicates per bound computation (default 200, typical
        for interactive AQP).
    seed:
        Seed for the resampling generator (bounds are deterministic given
        the state and seed).
    """

    name = "Bootstrap"
    ssi = False
    requires_sample_memory = True

    def __init__(self, num_resamples: int = 200, seed: int = 0) -> None:
        if num_resamples < 2:
            raise ValueError(f"num_resamples must be >= 2, got {num_resamples}")
        self.num_resamples = num_resamples
        self.seed = seed

    def init_state(self) -> _BootstrapState:
        return _BootstrapState()

    def update(self, state: _BootstrapState, value: float) -> None:
        state.values.append(float(value))
        state.moments.update(float(value))

    def update_batch(self, state: _BootstrapState, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        state.values.extend(values.tolist())
        state.moments.update_batch(values)

    def sample_count(self, state: _BootstrapState) -> int:
        return state.moments.count

    def estimate(self, state: _BootstrapState) -> float:
        return state.moments.mean

    def _resample_means(self, state: _BootstrapState) -> np.ndarray:
        values = np.asarray(state.values, dtype=np.float64)
        # Deterministic given the sample: the seed is mixed with the sample
        # size so successive rounds of OptStop see fresh resamples.
        rng = np.random.default_rng((self.seed, values.size))
        indices = rng.integers(0, values.size, size=(self.num_resamples, values.size))
        return values[indices].mean(axis=1)

    def _quantile_bound(self, state: _BootstrapState, delta: float, upper: bool) -> float:
        means = self._resample_means(state)
        if delta < 1.0 / self.num_resamples:
            # Normal approximation of the bootstrap distribution (see class
            # docstring): percentiles are vacuous this far into the tail.
            z = float(_scipy_stats.norm.ppf(1.0 - delta))
            spread = float(means.std())
            center = float(means.mean())
            return center + z * spread if upper else center - z * spread
        q = 1.0 - delta if upper else delta
        return float(np.quantile(means, q))

    def lbound(self, state: _BootstrapState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.moments.count == 0:
            return a
        return self._quantile_bound(state, delta, upper=False)

    def rbound(self, state: _BootstrapState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.moments.count == 0:
            return b
        return self._quantile_bound(state, delta, upper=True)
