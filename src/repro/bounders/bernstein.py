"""(Empirical) Bernstein-Serfling error bounders (Algorithm 2, §2.2.3).

Bardenet & Maillard [12] derive Bernstein-style concentration inequalities
for sampling *without replacement* from a finite dataset of ``N`` values in
``[a, b]``.  The resulting bounds scale as

    ĝ ± O( σ/√m + (b − a)/m )

so they are far tighter than Hoeffding-Serfling's ``O((b − a)/√m)`` whenever
the dataset standard deviation σ is small compared to the range — the
typical case for real data where the catalog range is inflated by a few
outliers.  Because shrinking the sample's extremes shrinks the (empirical)
variance, these bounders do **not** exhibit PMA; they do exhibit **PHOS**,
since both CI ends retain a ``(b − a)`` term (§2.3.3), which is exactly
what the paper's RangeTrim technique removes.

Two variants are provided:

* :class:`BernsteinSerflingBounder` — assumes the dataset variance σ² is
  known a priori (rarely realistic; used for ablations).
* :class:`EmpiricalBernsteinSerflingBounder` — Algorithm 2: replaces σ by
  the sample standard deviation σ̂ at the cost of slightly worse constants
  (the ``log(5/δ)`` factor and ``κ = 7/3 + 3/√2``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bounders.base import (
    ErrorBounder,
    MomentPoolBounderMixin,
    validate_bound_args,
)
from repro.stats.streaming import MomentPool, MomentState

__all__ = [
    "EmpiricalBernsteinSerflingBounder",
    "BernsteinSerflingBounder",
    "EmpiricalBernsteinBounder",
    "empirical_bernstein_serfling_epsilon",
    "empirical_bernstein_serfling_epsilon_batch",
    "bernstein_serfling_epsilon",
    "maurer_pontil_epsilon",
    "KAPPA_EMPIRICAL",
    "KAPPA_KNOWN_VARIANCE",
]

#: κ = 7/3 + 3/√2, the range-term constant of the *empirical*
#: Bernstein-Serfling inequality (Algorithm 2 line 9; [12], Theorem 4).
KAPPA_EMPIRICAL = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)

#: Range-term constant for the known-variance Bernstein-Serfling bound
#: ([12], Theorem 3 uses κ = 4/3 with a log(3/δ) factor).
KAPPA_KNOWN_VARIANCE = 4.0 / 3.0


def _serfling_rho(m: int, n: int) -> float:
    """The sampling-fraction factor ρ of [12] (Algorithm 2 lines 10-11).

    ``ρ = 1 − (m − 1)/N`` for ``m <= N/2`` and
    ``ρ = (1 − m/N)(1 + 1/m)`` for ``m > N/2``.
    """
    if m <= n / 2.0:
        rho = 1.0 - (m - 1) / n
    else:
        rho = (1.0 - m / n) * (1.0 + 1.0 / m)
    return max(rho, 0.0)


def empirical_bernstein_serfling_epsilon(
    m: int, n: int, sigma_hat: float, a: float, b: float, delta: float
) -> float:
    """Half-width ε of the empirical Bernstein-Serfling bound.

    Algorithm 2 line 12:
    ``ε = σ̂·sqrt(2ρ·log(5/δ)/m) + κ·(b − a)·log(5/δ)/m``.

    Parameters
    ----------
    m:
        Number of without-replacement samples (>= 1; returns the trivial
        width ``b − a`` for m < 1).
    n:
        Dataset size (or an upper bound).
    sigma_hat:
        Sample standard deviation σ̂ (biased estimator, §2.2.3).
    a, b:
        Range bounds enclosing the data.
    delta:
        One-sided error probability.
    """
    if m < 1:
        return b - a
    m = min(m, n)
    rho = _serfling_rho(m, n)
    log_term = math.log(5.0 / delta)
    return sigma_hat * math.sqrt(2.0 * rho * log_term / m) + KAPPA_EMPIRICAL * (
        b - a
    ) * log_term / m


def _serfling_rho_batch(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_serfling_rho` over per-view arrays."""
    small = m <= n / 2.0
    m_safe = np.maximum(m, 1.0)
    rho = np.where(
        small, 1.0 - (m - 1.0) / n, (1.0 - m / n) * (1.0 + 1.0 / m_safe)
    )
    return np.maximum(rho, 0.0)


def empirical_bernstein_serfling_epsilon_batch(
    m: np.ndarray, n: np.ndarray, sigma_hat: np.ndarray, a, b, delta: float
) -> np.ndarray:
    """Vectorized :func:`empirical_bernstein_serfling_epsilon`.

    ``m``, ``n``, ``sigma_hat`` are per-view arrays; ``a`` / ``b`` may be
    scalars or per-view arrays (RangeTrim's trimmed ranges).
    """
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64)
    span = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64)
    m_eff = np.maximum(np.minimum(m, n), 1.0)
    rho = _serfling_rho_batch(m_eff, n)
    log_term = math.log(5.0 / delta)
    eps = sigma_hat * np.sqrt(2.0 * rho * log_term / m_eff) + KAPPA_EMPIRICAL * span * (
        log_term / m_eff
    )
    return np.where(m < 1, span, eps)


def bernstein_serfling_epsilon(
    m: int, n: int, sigma: float, a: float, b: float, delta: float
) -> float:
    """Half-width ε of the known-variance Bernstein-Serfling bound.

    ``ε = σ·sqrt(2ρ·log(3/δ)/m) + κ·(b − a)·log(3/δ)/m`` with ``κ = 4/3``
    ([12], Theorem 3; the paper defers the statement to its appendix).
    """
    if m < 1:
        return b - a
    m = min(m, n)
    rho = _serfling_rho(m, n)
    log_term = math.log(3.0 / delta)
    return sigma * math.sqrt(2.0 * rho * log_term / m) + KAPPA_KNOWN_VARIANCE * (
        b - a
    ) * log_term / m


class EmpiricalBernsteinSerflingBounder(MomentPoolBounderMixin, ErrorBounder):
    """Algorithm 2: the empirical Bernstein-Serfling error bounder.

    State is an O(1) :class:`~repro.stats.streaming.MomentState`; unlike the
    paper's expository pseudocode (which tracks the raw second moment
    ``M2 = Σ v²``), the implementation uses Welford's numerically stable
    one-pass recurrence, as the paper recommends (§2.2.3, [17, 45, 67]).
    Pool state is a :class:`~repro.stats.streaming.MomentPool`, fed by the
    vectorized ``update_pool`` inherited from
    :class:`~repro.bounders.base.MomentPoolBounderMixin`.
    """

    name = "Bernstein"

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

    def epsilon(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        """Half-width for the current state (symmetric error)."""
        return empirical_bernstein_serfling_epsilon(
            state.count, n, state.std, a, b, delta
        )

    def lbound(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return a
        return state.mean - self.epsilon(state, a, b, n, delta)

    def rbound(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return b
        reflected = state.reflected(a, b)
        return (a + b) - (reflected.mean - self.epsilon(reflected, a, b, n, delta))

    def _epsilon_batch(
        self, pool: MomentPool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        return empirical_bernstein_serfling_epsilon_batch(
            pool.count[indices], n, pool.std_of(indices), a, b, delta
        )


def maurer_pontil_epsilon(
    m: int, sigma_hat_unbiased: float, a: float, b: float, delta: float
) -> float:
    """Half-width of the Maurer-Pontil empirical Bernstein bound.

    The classical with-replacement empirical Bernstein inequality:
    ``ε = σ̃·sqrt(2·log(2/δ)/m) + 7(b − a)·log(2/δ)/(3(m − 1))`` with σ̃ the
    *unbiased* sample standard deviation.  Table 2's asterisk records that
    the non-Serfling variant "also holds for NR sampling" (Hoeffding's
    reduction [36, Theorem 4] transfers with-replacement concentration to
    without-replacement means), so this bound is SSI in our setting too —
    it simply ignores the sampling-fraction benefit the Serfling variants
    exploit.
    """
    if m < 2:
        return b - a
    log_term = math.log(2.0 / delta)
    return sigma_hat_unbiased * math.sqrt(2.0 * log_term / m) + 7.0 * (
        b - a
    ) * log_term / (3.0 * (m - 1))


class EmpiricalBernsteinBounder(EmpiricalBernsteinSerflingBounder):
    """Maurer-Pontil empirical Bernstein bounder (with-replacement form).

    The non-Serfling entry of Table 2: no PMA, has PHOS, valid for both
    sampling modes, but without the finite-population tightening — included
    so the ablation benches can price the Serfling correction exactly.
    """

    name = "Bernstein (no FPC)"

    def epsilon(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        m = state.count
        if m < 2:
            return b - a
        unbiased_std = math.sqrt(max(state.m2 / (m - 1), 0.0))
        return maurer_pontil_epsilon(m, unbiased_std, a, b, delta)

    def _epsilon_batch(
        self, pool: MomentPool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        m = pool.count[indices].astype(np.float64)
        span = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64)
        m_safe = np.maximum(m, 2.0)
        unbiased_std = np.sqrt(np.maximum(pool.m2[indices] / (m_safe - 1.0), 0.0))
        log_term = math.log(2.0 / delta)
        eps = unbiased_std * np.sqrt(2.0 * log_term / m_safe) + 7.0 * span * (
            log_term / (3.0 * (m_safe - 1.0))
        )
        return np.where(m < 2, span, eps)


class BernsteinSerflingBounder(EmpiricalBernsteinSerflingBounder):
    """Known-variance Bernstein-Serfling bounder (ablation baseline).

    Parameters
    ----------
    sigma:
        The true dataset standard deviation ``σ = sqrt(VAR(D))``.  Knowledge
        of σ "typically cannot be assumed in a setting where AVG(D) is
        unknown" (§2.2.3); this bounder exists to quantify how little the
        empirical variant loses relative to an oracle.
    """

    name = "Bernstein (known variance)"

    def __init__(self, sigma: float) -> None:
        if sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = sigma

    def epsilon(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        return bernstein_serfling_epsilon(state.count, n, self.sigma, a, b, delta)

    def _epsilon_batch(
        self, pool: MomentPool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        m = pool.count[indices].astype(np.float64)
        n = np.asarray(n, dtype=np.float64)
        span = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64)
        m_eff = np.maximum(np.minimum(m, n), 1.0)
        rho = _serfling_rho_batch(m_eff, n)
        log_term = math.log(3.0 / delta)
        eps = self.sigma * np.sqrt(2.0 * rho * log_term / m_eff) + KAPPA_KNOWN_VARIANCE * span * (
            log_term / m_eff
        )
        return np.where(m < 1, span, eps)
