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
(:class:`~repro.bounders.anderson.CSRPoolBounderMixin`).  The bound
kernel groups views by equal sample count (``ε`` and the DKW ranks depend
only on ``(m, p, δ)``), sorts each group's sample matrix row-wise once, and
gathers both endpoints per row with per-slot ranks (the deterministic clamp
varies with each view's ``N⁺``).  Selected order statistics are identical
bit-for-bit to the scalar path — both pick elements of the same multiset.
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
    # (the mixin); only the bound kernel differs.

    def _rank_arrays(
        self, m: int, n_rows: np.ndarray, delta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(_lower_rank, _upper_rank)`` over per-slot N⁺."""
        eps = dkw_epsilon(m, delta, two_sided=False)
        n_rows = np.maximum(n_rows.astype(np.int64), m)
        r = np.minimum(np.maximum(np.ceil(self.p * n_rows).astype(np.int64), 1), n_rows)
        dkw_lo = int(math.ceil(m * (self.p - eps)))
        dkw_hi = int(math.ceil(m * (self.p + eps)))
        lo = np.minimum(np.maximum(np.maximum(dkw_lo, r - (n_rows - m)), 0), m)
        det_hi = np.where(r <= m, r, m + 1)
        hi = np.maximum(np.minimum(min(dkw_hi, m + 1), det_hi), 1)
        return lo, hi

    @staticmethod
    def _select_rows(
        sorted_rows: np.ndarray, ranks: np.ndarray, fallback: np.ndarray
    ) -> np.ndarray:
        """Per-row 1-based order statistics; out-of-range ranks → fallback."""
        m = sorted_rows.shape[1]
        in_range = (ranks >= 1) & (ranks <= m)
        cols = np.clip(ranks, 1, m) - 1
        picked = sorted_rows[np.arange(sorted_rows.shape[0]), cols]
        return np.where(in_range, picked, fallback)

    def lbound_batch(self, pool: CSRSamplePool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        n_arr = np.broadcast_to(np.asarray(n, dtype=np.int64), indices.shape)
        out = np.empty(indices.size, dtype=np.float64)
        counts = pool.count[indices]
        for m in np.unique(counts):
            group = counts == m
            if m == 0:
                out[group] = a_arr[group]
                continue
            ranks, _ = self._rank_arrays(int(m), n_arr[group], delta)
            sorted_rows = np.sort(pool.matrix(indices[group], int(m)), axis=1)
            out[group] = self._select_rows(sorted_rows, ranks, a_arr[group])
        return out

    def rbound_batch(self, pool: CSRSamplePool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        n_arr = np.broadcast_to(np.asarray(n, dtype=np.int64), indices.shape)
        out = np.empty(indices.size, dtype=np.float64)
        counts = pool.count[indices]
        for m in np.unique(counts):
            group = counts == m
            if m == 0:
                out[group] = b_arr[group]
                continue
            _, ranks = self._rank_arrays(int(m), n_arr[group], delta)
            sorted_rows = np.sort(pool.matrix(indices[group], int(m)), axis=1)
            out[group] = self._select_rows(sorted_rows, ranks, b_arr[group])
        return out

    def confidence_interval_batch(
        self,
        pool: CSRSamplePool,
        a: float,
        b: float,
        n: np.ndarray,
        delta: float,
        indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both endpoints from ONE row-wise sort per equal-count group."""
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        half = delta / 2.0
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        n_arr = np.broadcast_to(np.asarray(n, dtype=np.int64), indices.shape)
        lo = np.empty(indices.size, dtype=np.float64)
        hi = np.empty(indices.size, dtype=np.float64)
        counts = pool.count[indices]
        for m in np.unique(counts):
            group = counts == m
            if m == 0:
                lo[group] = a_arr[group]
                hi[group] = b_arr[group]
                continue
            lo_ranks, hi_ranks = self._rank_arrays(int(m), n_arr[group], half)
            sorted_rows = np.sort(pool.matrix(indices[group], int(m)), axis=1)
            lo[group] = self._select_rows(sorted_rows, lo_ranks, a_arr[group])
            hi[group] = self._select_rows(sorted_rows, hi_ranks, b_arr[group])
        return self._clip_interval_arrays(lo, hi, a, b)

    def estimate_batch(
        self, pool: CSRSamplePool, indices: np.ndarray | None = None, fill: float = 0.0
    ) -> np.ndarray:
        """Per-slot sample ``p``-quantiles (``fill`` for empty slots)."""
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        out = np.full(indices.size, fill, dtype=np.float64)
        counts = pool.count[indices]
        for m in np.unique(counts):
            group = counts == m
            if m == 0:
                continue
            rank = quantile_rank(self.p, int(m))
            matrix = np.partition(pool.matrix(indices[group], int(m)), rank - 1, axis=1)
            out[group] = matrix[:, rank - 1]
        return out
