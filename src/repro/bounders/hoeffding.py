"""Hoeffding-Serfling error bounder (Algorithm 1, §2.2.3).

The Hoeffding-Serfling inequality [Serfling 1974] bounds the deviation of a
without-replacement sample mean from the dataset mean for data in ``[a, b]``:
inverting it (at ``k = m``) gives the (1 − δ) confidence lower bound

    ĝ − (b − a) · sqrt( (1 − (m − 1)/N) · log(1/δ) / (2m) )

and symmetrically for the upper bound.  The ``(1 − (m − 1)/N)`` factor is
the finite-population (sampling-fraction) correction; dropping it would
recover the classical with-replacement Hoeffding bound, which is valid
without replacement too but never narrower, so it is not offered.

CI widths depend only on the range size ``(b − a)`` and the sample count —
never on the observed values — so this bounder exhibits both **PMA** and
**PHOS** (§2.3.3).  It is the conservative bounder most used in prior DB
literature and serves as the paper's primary baseline.
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
    "HoeffdingSerflingBounder",
    "hoeffding_serfling_epsilon",
    "hoeffding_serfling_epsilon_batch",
]


def hoeffding_serfling_epsilon(m: int, n: int, a: float, b: float, delta: float) -> float:
    """Half-width ε of the Hoeffding-Serfling bound for ``m`` of ``N`` samples.

    Parameters
    ----------
    m:
        Number of without-replacement samples taken (must be >= 1).
    n:
        Dataset size ``N`` (or an upper bound; ε is non-decreasing in N).
    a, b:
        Range bounds enclosing the data.
    delta:
        One-sided error probability.
    """
    if m < 1:
        return b - a
    m = min(m, n)
    rho = max(1.0 - (m - 1) / n, 0.0)
    return (b - a) * math.sqrt(rho * math.log(1.0 / delta) / (2.0 * m))


def hoeffding_serfling_epsilon_batch(
    m: np.ndarray, n: np.ndarray, a, b, delta: float
) -> np.ndarray:
    """Vectorized :func:`hoeffding_serfling_epsilon` over per-view arrays.

    ``m`` and ``n`` are per-view sample counts and dataset-size bounds;
    ``a`` / ``b`` may be scalars or per-view arrays (RangeTrim's trimmed
    ranges).  Slots with ``m < 1`` get the trivial width ``b − a``.
    """
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    span = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64)
    m_eff = np.maximum(np.minimum(m, n), 1.0)
    rho = np.maximum(1.0 - (m_eff - 1.0) / n, 0.0)
    eps = span * np.sqrt(rho * math.log(1.0 / delta) / (2.0 * m_eff))
    return np.where(m < 1, span, eps)


class HoeffdingSerflingBounder(MomentPoolBounderMixin, ErrorBounder):
    """Error bounder derived from the Hoeffding-Serfling inequality.

    State is an O(1) :class:`~repro.stats.streaming.MomentState` (only the
    count and running mean are consulted; the second moment is maintained so
    the same state type serves every O(1) bounder).  Pool state is a
    :class:`~repro.stats.streaming.MomentPool`, fed by the vectorized
    ``update_pool`` inherited from
    :class:`~repro.bounders.base.MomentPoolBounderMixin`.
    """

    name = "Hoeffding"

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
        return hoeffding_serfling_epsilon(state.count, n, a, b, delta)

    def lbound(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return a
        return state.mean - self.epsilon(state, a, b, n, delta)

    def rbound(self, state: MomentState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        if state.count == 0:
            return b
        # Algorithm 1 step 4: reflect the state about (a + b)/2 and negate.
        reflected = state.reflected(a, b)
        return (a + b) - (reflected.mean - self.epsilon(reflected, a, b, n, delta))

    def _epsilon_batch(
        self, pool: MomentPool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        return hoeffding_serfling_epsilon_batch(pool.count[indices], n, a, b, delta)
