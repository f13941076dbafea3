"""DKW-backed quantile error bounder: certified MEDIAN / PERCENTILE(p).

The order-statistics sibling of :class:`~repro.bounders.anderson.
AndersonBounder`: both keep the full sample (O(m) state, Table 2's memory
column) and both spend δ on a DKW band (Lemma 3, valid without replacement
by Theorem 1) — but where Anderson integrates the band into mean bounds,
this bounder *inverts* it at level ``p`` into rank bounds
(:mod:`repro.cdfbounds.quantile`):

    ``Lbound = x_(⌈m(p − ε)⌉)``, ``Rbound = x_(⌈m(p + ε)⌉)``,
    ``ε = sqrt(log(1/δ) / (2m))`` per side,

with out-of-range ranks falling back to the support endpoints, tightened
per side by the probability-1 finite-population rank clamp driven by the
executor's certified ``N⁺`` (monotone-safe, §3.3), which collapses to the
exact population quantile at exhaustion.

**Pooled state.**  The pool *is* Anderson's :class:`CSRSamplePool` — the
flat CSR sample buffer and its segment-append ingest are family-agnostic
(:class:`~repro.bounders.anderson.CSRPoolBounderMixin`).  The segments
are kept sorted lazily: an append marks its slots unsorted, and each
kernel first calls :meth:`CSRSamplePool.sort_segments` on the requested
slots, which sorts only the marked segments in place — so the snapshot's
estimate in the same round as a bound recompute sorts nothing.  The
kernel then computes every slot's ranks in one vectorized pass over the
per-slot ``m`` and ``N⁺`` and reads each endpoint with one gather at
``start + rank − 1``.  Selected order statistics are identical bit-for-bit
to the scalar path: both pick the same order statistic of the same
multiset, and the ranks come from the same IEEE operations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bounders.anderson import CSRPoolBounderMixin, CSRSamplePool, SampleState
from repro.bounders.base import ErrorBounder, validate_bound_args
from repro.cdfbounds.dkw import dkw_epsilon
from repro.cdfbounds.quantile import quantile_rank

__all__ = ["QuantileBounder"]


class QuantileBounder(CSRPoolBounderMixin, ErrorBounder):
    """(1 − δ) bounds on a view's ``p``-quantile by DKW-band inversion.

    Unlike the mean bounders this certifies ``F⁻¹(p)`` — the inverse-CDF
    quantile ``x_(⌈p·n⌉)`` of the view's rows — so the executor constructs
    one instance per MEDIAN/PERCENTILE query rather than sharing a
    session-wide bounder.  SSI by construction: the DKW band holds at
    every sample size, and the rank clamp holds with probability 1.
    """

    requires_sample_memory = True

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level p must be in (0, 1), got {p}")
        self.p = float(p)
        self.name = f"Quantile({self.p:g})"

    # -- rank arithmetic ------------------------------------------------
    # One copy of the combined DKW + deterministic rank rule, shared by
    # the scalar bounds and (in vectorized form) the pool kernel.  Ranks
    # are 1-based; 0 means "below the sample" (endpoint a) and m + 1
    # means "above the sample" (endpoint b).

    def _lower_rank(self, m: int, n: int, delta: float) -> int:
        eps = dkw_epsilon(m, delta, two_sided=False)
        dkw = int(math.ceil(m * (self.p - eps)))
        r = quantile_rank(self.p, n)
        return min(max(max(dkw, r - (n - m)), 0), m)

    def _upper_rank(self, m: int, n: int, delta: float) -> int:
        eps = dkw_epsilon(m, delta, two_sided=False)
        dkw = int(math.ceil(m * (self.p + eps)))
        r = quantile_rank(self.p, n)
        det = r if r <= m else m + 1
        return max(min(min(dkw, m + 1), det), 1)

    # -- scalar flavour -------------------------------------------------

    def estimate(self, state: SampleState) -> float:
        """The sample ``p``-quantile ``x_(⌈p·m⌉)`` (exact at exhaustion)."""
        if state.count == 0:
            raise ValueError("no samples observed yet")
        rank = quantile_rank(self.p, state.count)
        return float(np.partition(state.values, rank - 1)[rank - 1])

    def lbound(self, state: SampleState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        m = state.count
        if m == 0:
            return a
        rank = self._lower_rank(m, max(n, m), delta)
        if rank <= 0:
            return a
        return float(np.partition(state.values, rank - 1)[rank - 1])

    def rbound(self, state: SampleState, a: float, b: float, n: int, delta: float) -> float:
        validate_bound_args(a, b, n, delta)
        m = state.count
        if m == 0:
            return b
        rank = self._upper_rank(m, max(n, m), delta)
        if rank > m:
            return b
        return float(np.partition(state.values, rank - 1)[rank - 1])

    # -- pool flavour ---------------------------------------------------
    # The pool and the ingest scatter are exactly Anderson's CSR machinery
    # (the mixin).  Every kernel sorts the requested segments in place
    # (a no-op for a segment already sorted since its last append, e.g.
    # by this round's bound recompute before the snapshot's estimate),
    # then gathers each slot's order statistic by position.

    def _rank_arrays(
        self, m: np.ndarray, n_rows, delta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(_lower_rank, _upper_rank)`` over per-slot m and N⁺.

        The same IEEE operations as :func:`dkw_epsilon` and the scalar
        ranks (one ``log``, then a division, ``sqrt``, multiply and
        ``ceil`` per slot), so every rank equals the scalar one.  An empty
        slot gets ranks outside ``[1, m]``, i.e. its endpoint fallback.
        """
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        eps = np.sqrt(math.log(1.0 / delta) / (2.0 * np.maximum(m, 1)))
        n_rows = np.maximum(np.asarray(n_rows, dtype=np.int64), m)
        r = np.minimum(np.maximum(np.ceil(self.p * n_rows).astype(np.int64), 1), n_rows)
        dkw_lo = np.ceil(m * (self.p - eps)).astype(np.int64)
        dkw_hi = np.ceil(m * (self.p + eps)).astype(np.int64)
        lo = np.minimum(np.maximum(np.maximum(dkw_lo, r - (n_rows - m)), 0), m)
        det_hi = np.where(r <= m, r, m + 1)
        hi = np.maximum(np.minimum(np.minimum(dkw_hi, m + 1), det_hi), 1)
        return lo, hi

    @staticmethod
    def _sorted_counts(
        pool: CSRSamplePool, indices: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sort the requested segments; return ``(indices, counts)``."""
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        pool.sort_segments(indices)
        return indices, pool.count[indices]

    @staticmethod
    def _select(
        pool: CSRSamplePool,
        indices: np.ndarray,
        m: np.ndarray,
        ranks: np.ndarray,
        fallback,
    ) -> np.ndarray:
        """Per-slot 1-based order statistics; out-of-range ranks → fallback."""
        out = np.array(
            np.broadcast_to(np.asarray(fallback, dtype=np.float64), indices.shape)
        )
        hit = (ranks >= 1) & (ranks <= m)
        out[hit] = pool.order_statistics(indices[hit], ranks[hit])
        return out

    def lbound_batch(self, pool: CSRSamplePool, a, b, n, delta, indices=None):
        indices, m = self._sorted_counts(pool, indices)
        ranks, _ = self._rank_arrays(m, n, delta)
        return self._select(pool, indices, m, ranks, a)

    def rbound_batch(self, pool: CSRSamplePool, a, b, n, delta, indices=None):
        indices, m = self._sorted_counts(pool, indices)
        _, ranks = self._rank_arrays(m, n, delta)
        return self._select(pool, indices, m, ranks, b)

    def confidence_interval_batch(
        self,
        pool: CSRSamplePool,
        a: float,
        b: float,
        n: np.ndarray,
        delta: float,
        indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both endpoints from one in-place sort and one gather each."""
        indices, m = self._sorted_counts(pool, indices)
        lo_ranks, hi_ranks = self._rank_arrays(m, n, delta / 2.0)
        lo = self._select(pool, indices, m, lo_ranks, a)
        hi = self._select(pool, indices, m, hi_ranks, b)
        return self._clip_interval_arrays(lo, hi, a, b)

    def estimate_batch(
        self, pool: CSRSamplePool, indices: np.ndarray | None = None, fill: float = 0.0
    ) -> np.ndarray:
        """Per-slot sample ``p``-quantiles (``fill`` for empty slots)."""
        indices, m = self._sorted_counts(pool, indices)
        ranks = np.minimum(np.maximum(np.ceil(self.p * m).astype(np.int64), 1), m)
        return self._select(pool, indices, m, ranks, fill)
