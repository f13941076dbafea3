"""COUNT confidence intervals and the unknown-N upper bound (§4.1).

A scramble row either belongs to a query's aggregate view or it does not;
the AVG of that 0/1 indicator over the whole scramble is the view's
selectivity σ_v.  Lemma 5 applies Hoeffding-Serfling with range ``[0, 1]``
to the scanned prefix to bound σ_v, which — multiplied by the scramble size
R — bounds the view's cardinality N (the COUNT aggregate).

Conservative AVG bounders consult the dataset size N, which is unknown when
a filter of unknown selectivity is applied.  Theorem 3 fixes this online:
spend ``(1 − α)·δ`` on the event that the one-sided selectivity bound N⁺
underestimates N, and ``α·δ`` on the CI computed *as if* the dataset had
size N⁺ — sound because every bounder here satisfies the dataset-size
monotonicity property (§3.3).  α is
:data:`repro.stats.delta.UNKNOWN_N_ALPHA` (the paper's 0.99).

SUM CIs compose a COUNT CI with an AVG CI by union bound (§4.1); the
paper's ``[c_l·g_l, c_r·g_r]`` product assumes a non-negative mean, so
:func:`sum_interval` takes the interval hull over corner products, which is
the correct generalization for signed aggregates (a deviation from the
paper; :func:`sum_interval`'s docstring has the argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bounders.base import Interval
from repro.bounders.hoeffding import hoeffding_serfling_epsilon
from repro.stats.delta import UNKNOWN_N_ALPHA

__all__ = [
    "SelectivityState",
    "selectivity_interval",
    "count_interval",
    "count_interval_batch",
    "upper_bound_population",
    "upper_bound_population_batch",
    "sum_interval",
    "sum_interval_batch",
]

@dataclass
class SelectivityState:
    """Covered-prefix counts for one aggregate view.

    Attributes
    ----------
    in_view:
        Rows seen that belong to the view (``m_v`` in Lemma 5).
    covered:
        Rows whose view membership is *settled*: rows actually read, plus
        rows of skipped blocks certified free of the view's group by the
        bitmap index (each contributes 0 to ``in_view``).  This is the
        ``r`` of Lemma 5.
    """

    in_view: int = 0
    covered: int = 0

    def observe(self, in_view: int, covered: int) -> None:
        """Fold a processed (or certified-skipped) span of rows."""
        if in_view > covered:
            raise ValueError(f"in_view ({in_view}) cannot exceed covered ({covered})")
        self.in_view += in_view
        self.covered += covered


def selectivity_interval(
    state: SelectivityState, scramble_rows: int, delta: float
) -> Interval:
    """Lemma 5: (1 − δ) CI for the view selectivity σ_v.

    ``σ̂_v ± sqrt(log(2/δ)/(2r) · (1 − (r − 1)/R))``, clipped to [0, 1].
    """
    r = state.covered
    if r == 0:
        return Interval(0.0, 1.0)
    eps = hoeffding_serfling_epsilon(r, scramble_rows, 0.0, 1.0, delta / 2.0)
    estimate = state.in_view / r
    return Interval(max(estimate - eps, 0.0), min(estimate + eps, 1.0))


def count_interval(
    state: SelectivityState, scramble_rows: int, delta: float
) -> Interval:
    """(1 − δ) CI for the view cardinality N = σ_v · R (§4.1).

    Additionally clamped below by the rows already observed in the view (a
    deterministic lower bound) and above by R.
    """
    sel = selectivity_interval(state, scramble_rows, delta)
    lo = max(sel.lo * scramble_rows, float(state.in_view))
    hi = min(sel.hi * scramble_rows, float(scramble_rows))
    return Interval(lo, max(hi, lo))


def upper_bound_population(
    state: SelectivityState, scramble_rows: int, delta: float
) -> int:
    """Theorem 3's N⁺: a high-probability upper bound on the view size.

    ``N⁺ = (m_v/r + sqrt(log(1/((1 − α)δ))/(2r) · (1 − (r − 1)/R))) · R``,
    failing with probability at most ``(1 − α)·δ`` (α =
    :data:`~repro.stats.delta.UNKNOWN_N_ALPHA`).  The remaining ``α·δ``
    budget is what the caller should pass to the AVG bounder (use
    :meth:`repro.stats.delta.DeltaBudget.split_unknown_n`).

    Returns an integer clamped to ``[max(m_v, 1), R]``.
    """
    r = state.covered
    if r == 0:
        return scramble_rows
    alpha = UNKNOWN_N_ALPHA
    fpc = max(1.0 - (r - 1) / scramble_rows, 0.0)
    eps = math.sqrt(math.log(1.0 / ((1.0 - alpha) * delta)) / (2.0 * r) * fpc)
    n_plus = (state.in_view / r + eps) * scramble_rows
    n_plus_int = int(math.ceil(n_plus))
    return max(min(n_plus_int, scramble_rows), state.in_view, 1)


def count_interval_batch(
    in_view: np.ndarray, covered: np.ndarray, scramble_rows: int, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`count_interval` over per-view counter arrays.

    ``in_view`` / ``covered`` are the executor pool's selectivity counters;
    one Lemma 5 evaluation covers every view.  Views with ``covered == 0``
    get the trivial ``[0, R]``.
    """
    in_view = np.asarray(in_view, dtype=np.float64)
    covered = np.asarray(covered, dtype=np.float64)
    r_safe = np.maximum(covered, 1.0)
    m_eff = np.minimum(r_safe, scramble_rows)
    rho = np.maximum(1.0 - (m_eff - 1.0) / scramble_rows, 0.0)
    eps = np.sqrt(rho * math.log(2.0 / delta) / (2.0 * m_eff))
    estimate = in_view / r_safe
    sel_lo = np.maximum(estimate - eps, 0.0)
    sel_hi = np.minimum(estimate + eps, 1.0)
    lo = np.maximum(sel_lo * scramble_rows, in_view)
    hi = np.minimum(sel_hi * scramble_rows, float(scramble_rows))
    hi = np.maximum(hi, lo)
    uncovered = covered == 0
    lo[uncovered] = 0.0
    hi[uncovered] = float(scramble_rows)
    return lo, hi


def upper_bound_population_batch(
    in_view: np.ndarray,
    covered: np.ndarray,
    scramble_rows: int,
    delta: float,
) -> np.ndarray:
    """Vectorized :func:`upper_bound_population` (int64 array of N⁺)."""
    alpha = UNKNOWN_N_ALPHA
    in_view = np.asarray(in_view, dtype=np.int64)
    covered = np.asarray(covered, dtype=np.int64)
    r = covered.astype(np.float64)
    r_safe = np.maximum(r, 1.0)
    fpc = np.maximum(1.0 - (r - 1.0) / scramble_rows, 0.0)
    eps = np.sqrt(math.log(1.0 / ((1.0 - alpha) * delta)) / (2.0 * r_safe) * fpc)
    n_plus = np.ceil((in_view / r_safe + eps) * scramble_rows).astype(np.int64)
    n_plus = np.maximum(np.minimum(n_plus, scramble_rows), np.maximum(in_view, 1))
    n_plus[covered == 0] = scramble_rows
    return n_plus


def sum_interval_batch(
    count_lo: np.ndarray,
    count_hi: np.ndarray,
    avg_lo: np.ndarray,
    avg_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`sum_interval`: interval hull over corner products."""
    corners = np.stack(
        (
            count_lo * avg_lo,
            count_lo * avg_hi,
            count_hi * avg_lo,
            count_hi * avg_hi,
        )
    )
    return corners.min(axis=0), corners.max(axis=0)


def sum_interval(count_ci: Interval, avg_ci: Interval) -> Interval:
    """(1 − δ) CI for SUM from a (1 − δ/2) COUNT CI and (1 − δ/2) AVG CI.

    SUM = COUNT · AVG, so on the (≥ 1 − δ) event that both input intervals
    hold, SUM lies in the product set ``{c·g : c ∈ count_ci, g ∈ avg_ci}``,
    whose hull is spanned by the corner products.  For a non-negative AVG
    this reduces to the paper's ``[c_l·g_l, c_r·g_r]``.
    """
    corners = [
        count_ci.lo * avg_ci.lo,
        count_ci.lo * avg_ci.hi,
        count_ci.hi * avg_ci.lo,
        count_ci.hi * avg_ci.hi,
    ]
    return Interval(min(corners), max(corners))
