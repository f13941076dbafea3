"""Numerically stable streaming moment statistics.

The paper's error bounders (§2.2.2) maintain O(1) state as new tuples are
examined.  Algorithm 2 in the paper tracks the raw second moment ``M2 = Σ v²``
"for the sake of exposition" and notes that a real implementation should use
a numerically stable one-pass variance algorithm (Welford [67], Chan et
al. [17]).  This module provides that implementation.

:class:`MomentState` tracks the count, running mean, and centered second
moment of a stream, supports O(1) single-value updates, vectorized batch
updates, and pairwise merging (Chan/Golub/LeVeque), and supports the affine
"reflection" transform ``v -> (a + b) - v`` used by the paper's ``Rbound``
implementations (Algorithms 1 and 2, step 4).

:class:`MomentPool` is the struct-of-arrays counterpart used by the
vectorized executor core: one slot per aggregate view, updated for *all*
views of a scan window in O(rows) with ``np.bincount`` — no per-view
Python iteration.  Slot ``i`` evolves exactly like an independent
:class:`MomentState` fed the same values (up to floating-point summation
order), which the parity test-suite verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MomentState", "ExtremaState", "MomentPool"]


@dataclass
class MomentState:
    """Streaming count / mean / centered-second-moment of observed values.

    Attributes
    ----------
    count:
        Number of values observed so far (``m`` in the paper).
    mean:
        Running average of the observed values (``ĝ`` in the paper).
    m2:
        Sum of squared deviations from the running mean,
        ``Σ (v - mean)²``.  The *biased* sample variance used by the
        empirical Bernstein-Serfling bounder is ``m2 / count``.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        """Incorporate a single value (Welford's update)."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @staticmethod
    def batch_moments(values: np.ndarray) -> tuple[int, float, float]:
        """``(n, mean, m2)`` of one non-empty batch — what :meth:`update_batch`
        merges.

        A pure function of the values, so a caller feeding the same batch to
        several states computes it once and hands the triple to each state's
        :meth:`merge_moments`: every state ends up bit-identical to one that
        ran its own :meth:`update_batch`.
        """
        mean = float(values.mean())
        return values.size, mean, float(np.square(values - mean).sum())

    def update_batch(self, values: np.ndarray) -> None:
        """Incorporate a batch of values via a stable pairwise merge.

        Equivalent to calling :meth:`update` once per element, up to
        floating-point rounding, but vectorized.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size:
            self.merge_moments(*self.batch_moments(values))

    def merge_moments(self, n: int, mean: float, m2: float) -> None:
        """Chan/Golub/LeVeque pairwise merge of another moment aggregate."""
        if n == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = n, mean, m2
            return
        total = self.count + n
        delta = mean - self.mean
        self.m2 += m2 + delta * delta * self.count * n / total
        self.mean += delta * n / total
        self.count = total

    def merge(self, other: "MomentState") -> None:
        """Merge another :class:`MomentState` into this one."""
        self.merge_moments(other.count, other.mean, other.m2)

    @property
    def variance(self) -> float:
        """Biased (population-style) sample variance ``σ̂² = m2 / count``.

        This is the estimator used by the empirical Bernstein-Serfling
        inequality of Bardenet & Maillard [12]; it is clamped at zero to
        guard against tiny negative values from floating-point cancellation.
        """
        if self.count == 0:
            return 0.0
        return max(self.m2 / self.count, 0.0)

    @property
    def std(self) -> float:
        """Biased sample standard deviation ``σ̂``."""
        return math.sqrt(self.variance)

    def reflected(self, a: float, b: float) -> "MomentState":
        """State as if every value ``v`` had been ``(a + b) - v`` instead.

        This is the transform used to implement ``Rbound`` in terms of
        ``Lbound`` (Algorithms 1 and 2): reflection about the midpoint of
        ``[a, b]`` flips the mean and preserves the variance.
        """
        return MomentState(count=self.count, mean=(a + b) - self.mean, m2=self.m2)

    def copy(self) -> "MomentState":
        """Independent copy of this state."""
        return MomentState(self.count, self.mean, self.m2)


@dataclass
class ExtremaState:
    """Streaming MIN / MAX of observed values.

    RangeTrim (Algorithm 6) requires ``O(1)`` extra memory to maintain the
    smallest and largest sample values seen so far, which replace the
    catalog range bounds ``a`` and ``b`` when computing ``Rbound`` and
    ``Lbound`` respectively.
    """

    min: float = field(default=math.inf)
    max: float = field(default=-math.inf)

    def update(self, value: float) -> None:
        """Incorporate a single value."""
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def update_batch(self, values: np.ndarray) -> None:
        """Incorporate a batch of values."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        lo = float(values.min())
        hi = float(values.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    @property
    def empty(self) -> bool:
        """True if no values have been observed yet."""
        return self.min > self.max

    def copy(self) -> "ExtremaState":
        """Independent copy of this state."""
        return ExtremaState(self.min, self.max)


class MomentPool:
    """Struct-of-arrays bank of :class:`MomentState`-equivalent slots.

    Parameters
    ----------
    size:
        Number of slots (one per aggregate view).

    Attributes
    ----------
    count, mean, m2:
        Parallel arrays; slot ``i`` carries the same semantics as a
        :class:`MomentState` with those fields.
    """

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self.size = size
        self.count = np.zeros(size, dtype=np.int64)
        self.mean = np.zeros(size, dtype=np.float64)
        self.m2 = np.zeros(size, dtype=np.float64)

    @staticmethod
    def batch_stats(
        indices: np.ndarray, values: np.ndarray, size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-slot ``(counts, means, m2s)`` of one indexed batch, in O(len).

        Sequential accumulation plus the corrected two-pass refinement
        (Chan/Golub/LeVeque): the residual sum recovers the accuracy the
        sequential summation loses relative to numpy's pairwise ``mean``,
        and its square corrects the second moment.  A single-slot pool
        short-circuits to the pairwise path directly; otherwise weighted
        ``bincount`` passes reduce the stream in whatever order it
        arrives — each slot's values are summed in stream order, so a
        stream and its stable sort by slot give the same bytes, and serial
        and parallel runs fold identical pools.
        """
        indices = np.asarray(indices, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if size == 1:
            counts = np.array([values.size], dtype=np.int64)
            if values.size == 0:
                return counts, np.zeros(1), np.zeros(1)
            mean = float(values.mean())
            m2 = float(np.square(values - mean).sum())
            return counts, np.array([mean]), np.array([m2])
        counts = np.bincount(indices, minlength=size)
        sums = np.bincount(indices, weights=values, minlength=size)
        safe_counts = np.maximum(counts, 1)
        batch_mean = sums / safe_counts
        deviations = values - batch_mean[indices]
        residual = np.bincount(indices, weights=deviations, minlength=size)
        batch_mean += residual / safe_counts
        batch_m2 = (
            np.bincount(indices, weights=deviations * deviations, minlength=size)
            - residual * residual / safe_counts
        )
        return counts, batch_mean, np.maximum(batch_m2, 0.0)

    def update_indexed(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold ``values[j]`` into slot ``indices[j]``, for all j, in O(len).

        One vectorized Chan/Golub/LeVeque merge of :meth:`batch_stats`,
        matching :meth:`MomentState.update_batch` applied per slot.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        counts, means, m2s = self.batch_stats(indices, values, self.size)
        self.merge_arrays(counts, means, m2s)

    def merge_arrays(
        self,
        counts: np.ndarray,
        means: np.ndarray,
        m2s: np.ndarray,
        present: np.ndarray | None = None,
    ) -> None:
        """Chan/Golub/LeVeque merge of per-slot aggregates (vectorized).

        ``present`` restricts the merge to slots with a non-empty batch
        (defaults to ``counts > 0``).
        """
        if present is None:
            present = counts > 0
        if not present.any():
            return
        if present.all():
            present = slice(None)  # every slot: views, not gathers
        n = counts[present]
        old_count = self.count[present]
        fresh = old_count == 0
        total = old_count + n
        delta = means[present] - self.mean[present]
        weight = n / total
        merged_mean = self.mean[present] + delta * weight
        merged_m2 = self.m2[present] + m2s[present] + delta * delta * old_count * weight
        # Slots previously empty adopt the batch aggregates verbatim, exactly
        # like MomentState._merge's early return (avoids 0·∞-style noise).
        self.mean[present] = np.where(fresh, means[present], merged_mean)
        self.m2[present] = np.where(fresh, m2s[present], merged_m2)
        self.count[present] = total

    @property
    def variance(self) -> np.ndarray:
        """Per-slot biased sample variance ``m2 / count`` (0 when empty)."""
        out = np.zeros(self.size, dtype=np.float64)
        filled = self.count > 0
        out[filled] = self.m2[filled] / self.count[filled]
        return np.maximum(out, 0.0)

    @property
    def std(self) -> np.ndarray:
        """Per-slot biased sample standard deviation."""
        return np.sqrt(self.variance)

    def std_of(self, indices: np.ndarray) -> np.ndarray:
        """Biased sample standard deviation of selected slots only.

        Equivalent to ``self.std[indices]`` without computing the variance
        of every slot first (the per-round bounder kernels bound only the
        views a round recomputes).
        """
        variance = self.m2[indices] / np.maximum(self.count[indices], 1)
        return np.sqrt(np.maximum(variance, 0.0))
