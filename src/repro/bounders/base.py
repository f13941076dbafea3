"""The error-bounder interface of §2.2.2.

The paper presents every conservative error bounder in terms of a small
interface so that bounders can be maintained incrementally inside a DBMS
aggregation pipeline:

* ``init_state()``       — initialize the state needed for error bounds;
* ``update_state(S, v)`` — fold a newly-seen value into the state;
* ``Lbound(S, a, b, N, δ)`` — confidence lower bound for the dataset AVG;
* ``Rbound(S, a, b, N, δ)`` — confidence upper bound, typically implemented
  in terms of ``Lbound`` after reflecting the state about ``(a + b) / 2``.

The executor's vectorized core additionally drives a *pool* flavour of the
same interface — one state slot per aggregate view, updated and bounded for
every view at once (``init_pool`` / ``update_pool`` /
``confidence_interval_batch``).  The base class provides loop fall-backs so
any scalar bounder participates unchanged; the built-in bounders override
them with numpy implementations whose per-slot results match the scalar
path up to floating-point summation order.  ``update_pool(pool, indices,
values)`` is the one way a pool is fed, on whichever thread folds the
window: serial and parallel ingest call it on the same sorted stream
(through ``update_pool_with_stats`` when the caller already reduced the
stream's per-slot moments; the result is byte-identical).

:class:`ErrorBounder` is the abstract base class realizing this interface.
A bounder is **SSI** (sample-size independent, Definition 1) when, for every
sample size, the probability that ``[Lbound, Rbound]`` fails to enclose
``AVG(D)`` is below the requested ``delta``.  All bounders in this package
are SSI; the test-suite verifies this with Monte-Carlo coverage tests.

All bounders here additionally satisfy the *dataset-size monotonicity*
property of §3.3: for ``N' > N``, ``Lbound(..., N', δ) <= Lbound(..., N, δ)``
and ``Rbound(..., N', δ) >= Rbound(..., N, δ)``, so that an upper bound on
the (possibly unknown) dataset size can be used safely (Theorem 3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "Interval",
    "ErrorBounder",
    "MomentPoolBounderMixin",
    "validate_bound_args",
    "iter_segments",
    "segment_bounds",
]


def segment_bounds(sorted_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the equal-value runs in a sorted index array.

    The ONE copy of the sorted-stream segmentation arithmetic: the loop
    fall-backs (:func:`iter_segments`) and every segment-shaped
    ``update_pool`` (Anderson's sample segments, RangeTrim's clip
    segments) share it.  The number of runs is bounded by the
    distinct views actually receiving rows, never the full view count.
    """
    if sorted_indices.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if sorted_indices[0] == sorted_indices[-1]:
        # Single run (the scalar-query / low-cardinality hot case): skip
        # the O(n) boundary scan entirely.
        return (
            np.zeros(1, dtype=np.int64),
            np.array([sorted_indices.size], dtype=np.int64),
        )
    boundaries = np.flatnonzero(np.diff(sorted_indices)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_indices.size]))
    return starts, ends


def iter_segments(sorted_indices: np.ndarray):
    """Yield ``(start, end, slot)`` runs of equal values in a sorted array.

    Shared by the loop fall-backs of the pool bounder API and by bounders
    whose per-slot state is irreducibly per-view (Anderson's O(m) sample
    buffers).
    """
    starts, ends = segment_bounds(sorted_indices)
    for start, end in zip(starts, ends):
        yield int(start), int(end), int(sorted_indices[start])


class Interval(NamedTuple):
    """A closed confidence interval ``[lo, hi]`` for an aggregate."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        """Interval width ``hi - lo`` (the paper's compactness metric)."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """Interval midpoint."""
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, value: object) -> bool:
        return self.lo <= float(value) <= self.hi  # type: ignore[arg-type]


def validate_bound_args(a: float, b: float, n: int, delta: float) -> None:
    """Validate the shared ``(a, b, N, δ)`` arguments of Lbound/Rbound.

    Raises
    ------
    ValueError
        If the range is inverted, the dataset size is non-positive, or the
        error probability is outside (0, 1).
    """
    if not a <= b:
        raise ValueError(f"range bounds must satisfy a <= b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"dataset size N must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


class ErrorBounder(ABC):
    """Abstract base class for SSI error bounders (§2.2.2 interface).

    Subclasses implement :meth:`init_state`, :meth:`update`, and
    :meth:`lbound`; :meth:`rbound` has a default implementation via state
    reflection that subclasses may override.  States are plain objects owned
    by the bounder; callers treat them as opaque.

    The convention for *empty* states (no samples yet) is that bounds are
    trivial: ``lbound -> a`` and ``rbound -> b``.
    """

    #: Human-readable name used in experiment tables (e.g. "Bernstein+RT").
    name: str = "bounder"

    #: True if the bounder needs memory growing with the sample (Table 2's
    #: "Memory" column distinguishes O(1) from O(m) bounders).
    requires_sample_memory: bool = False

    #: True for sample-size-independent bounders (Definition 1), whose
    #: failure probability is below δ at *every* sample size.  Every
    #: registered bounder is; a custom one that sets this to False (an
    #: asymptotic CLT or bootstrap interval, whose coverage only converges
    #: to 1 − δ as the sample grows — §1, "compactness without
    #: correctness") is rejected by :func:`repro.api.connect`.
    ssi: bool = True

    @abstractmethod
    def init_state(self) -> Any:
        """Return a fresh, empty state object."""

    @abstractmethod
    def update(self, state: Any, value: float) -> None:
        """Fold a single newly-seen value into ``state`` (in place)."""

    def update_batch(self, state: Any, values: np.ndarray) -> None:
        """Fold a batch of values into ``state`` (in place).

        Semantically equivalent to calling :meth:`update` per element in
        order; subclasses override with vectorized implementations.
        """
        for value in np.asarray(values, dtype=np.float64):
            self.update(state, float(value))

    def update_batch_with_moments(
        self, state: Any, values: np.ndarray, moments: tuple[int, float, float]
    ) -> None:
        """:meth:`update_batch` for a caller that already holds the batch's
        :meth:`~repro.stats.streaming.MomentState.batch_moments`.

        The scalar engine feeds one value segment to several moment
        consumers per (view, window); it computes the triple once and hands
        it down.  Moment-state bounders merge it instead of re-reducing
        ``values``; everything else — including any bounder that only
        implements ``update_batch(state, values)`` — ignores it here.
        """
        self.update_batch(state, values)

    @abstractmethod
    def lbound(self, state: Any, a: float, b: float, n: int, delta: float) -> float:
        """(1 − δ) confidence lower bound for ``AVG(D)``.

        Parameters
        ----------
        state:
            State produced by :meth:`init_state` / :meth:`update`.
        a, b:
            A-priori range bounds with ``[a, b] ⊇ [MIN(D), MAX(D)]``.
        n:
            Size of the finite dataset ``D`` (or any upper bound on it;
            see the dataset-size monotonicity property, §3.3).
        delta:
            Maximum allowed probability that the returned value exceeds
            ``AVG(D)``.
        """

    @abstractmethod
    def rbound(self, state: Any, a: float, b: float, n: int, delta: float) -> float:
        """(1 − δ) confidence upper bound for ``AVG(D)`` (mirror of lbound)."""

    @abstractmethod
    def sample_count(self, state: Any) -> int:
        """Number of values folded into ``state`` so far."""

    def estimate(self, state: Any) -> float:
        """Point estimate of the aggregate from ``state`` (the sample mean).

        Subclasses whose state does not directly track a mean override this.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Pool (struct-of-arrays) flavour — one state slot per aggregate view.
    # Defaults delegate to the scalar methods per slot so any bounder is
    # pool-capable; numpy overrides in subclasses remove the Python loop.
    # ------------------------------------------------------------------

    def init_pool(self, size: int) -> Any:
        """Bank of ``size`` fresh states (default: a list of scalar states)."""
        return [self.init_state() for _ in range(size)]

    def update_pool(self, pool: Any, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold ``values[j]`` into pool slot ``indices[j]`` for all j.

        ``indices`` must be sorted ascending with ties in stream order (the
        executor's stable sort by group code guarantees this); order matters
        for stream-sensitive bounders like RangeTrim.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        for start, end, slot in iter_segments(indices):
            self.update_batch(pool[slot], values[start:end])

    def update_pool_with_stats(
        self, pool: Any, indices: np.ndarray, values: np.ndarray, stats
    ) -> None:
        """:meth:`update_pool` for a caller that already holds the stream's
        per-slot :meth:`~repro.stats.streaming.MomentPool.batch_stats`
        ``(counts, means, m2s)`` over the pool's size.

        The pool mirror of :meth:`update_batch_with_moments`: the view
        pool reduces each window's stream once for its own moments and
        hands the result down.  Moment-pool bounders merge it instead of
        reducing ``values`` again; everything else ignores it here.
        """
        self.update_pool(pool, indices, values)

    def pool_counts(self, pool: Any) -> np.ndarray:
        """Per-slot sample counts (int64 array)."""
        return np.array([self.sample_count(state) for state in pool], dtype=np.int64)

    def lbound_batch(
        self,
        pool: Any,
        a,
        b,
        n: np.ndarray,
        delta: float,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-slot (1 − δ) confidence lower bounds (array of len(indices)).

        ``a`` / ``b`` may be scalars or per-slot arrays (RangeTrim queries
        its inner bounder with per-view trimmed ranges); ``n`` is the
        per-slot dataset-size upper bound N⁺.  The default delegates to the
        scalar :meth:`lbound` per slot.
        """
        if indices is None:
            indices = np.arange(self.pool_size(pool), dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        n_arr = np.broadcast_to(np.asarray(n), indices.shape)
        out = np.empty(indices.size, dtype=np.float64)
        for position, slot in enumerate(indices):
            out[position] = self.lbound(
                pool[int(slot)],
                float(a_arr[position]),
                float(b_arr[position]),
                int(n_arr[position]),
                delta,
            )
        return out

    def rbound_batch(
        self,
        pool: Any,
        a,
        b,
        n: np.ndarray,
        delta: float,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-slot (1 − δ) confidence upper bounds (mirror of lbound_batch)."""
        if indices is None:
            indices = np.arange(self.pool_size(pool), dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        n_arr = np.broadcast_to(np.asarray(n), indices.shape)
        out = np.empty(indices.size, dtype=np.float64)
        for position, slot in enumerate(indices):
            out[position] = self.rbound(
                pool[int(slot)],
                float(a_arr[position]),
                float(b_arr[position]),
                int(n_arr[position]),
                delta,
            )
        return out

    def pool_size(self, pool: Any) -> int:
        """Number of slots in a pool (default: ``len``)."""
        return len(pool)

    def confidence_interval_batch(
        self,
        pool: Any,
        a: float,
        b: float,
        n: np.ndarray,
        delta: float,
        indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(1 − δ) two-sided CIs for a set of pool slots at once.

        Parameters
        ----------
        pool:
            Bank produced by :meth:`init_pool` / :meth:`update_pool`.
        a, b:
            A-priori range bounds (scalars, shared by every view).
        n:
            Per-slot dataset-size upper bounds N⁺, aligned with ``indices``
            (or with the whole pool when ``indices`` is None).
        delta:
            Per-view error probability (δ/2 per side, as the scalar
            :meth:`confidence_interval`).
        indices:
            Optional subset of slot indices to bound (the executor passes
            only the views whose intervals a round recomputes).

        Returns
        -------
        (lo, hi):
            Arrays aligned with ``indices``, clipped to ``[a, b]`` with the
            same degenerate-input collapse rule as the scalar path.
        """
        half = delta / 2.0
        lo = self.lbound_batch(pool, a, b, n, half, indices)
        hi = self.rbound_batch(pool, a, b, n, half, indices)
        return self._clip_interval_arrays(lo, hi, a, b)

    @staticmethod
    def _clip_interval_arrays(
        lo: np.ndarray, hi: np.ndarray, a: float, b: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array version of :meth:`confidence_interval`'s clip + collapse."""
        lo = np.clip(lo, a, b)
        hi = np.clip(hi, a, b)
        inverted = lo > hi
        if inverted.any():
            mid = 0.5 * (lo[inverted] + hi[inverted])
            lo[inverted] = mid
            hi[inverted] = mid
        return lo, hi

    def confidence_interval(
        self, state: Any, a: float, b: float, n: int, delta: float
    ) -> Interval:
        """(1 − δ) two-sided CI, union bounding δ/2 per side (§2.2.3).

        The result is clipped to ``[a, b]`` — always sound because
        ``AVG(D)`` necessarily lies in the a-priori range.
        """
        half = delta / 2.0
        lo = self.lbound(state, a, b, n, half)
        hi = self.rbound(state, a, b, n, half)
        lo = min(max(lo, a), b)
        hi = max(min(hi, b), a)
        if lo > hi:
            # Numerically possible only for near-degenerate inputs; collapse
            # to the midpoint, which both one-sided bounds certify.
            lo = hi = 0.5 * (lo + hi)
        return Interval(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class MomentPoolBounderMixin:
    """Pool flavour for bounders whose state is a ``MomentState`` and whose
    half-width ε is invariant under reflection about ``(a + b)/2``.

    Reflection flips the mean and preserves the count, variance, and range
    span — everything ε consults for the Hoeffding, Bernstein, and CLT
    families — so the reflected ``Rbound`` reduces to ``mean + ε`` and both
    sides share one vectorized ε kernel (:meth:`_epsilon_batch`).
    """

    def init_pool(self, size: int):
        from repro.stats.streaming import MomentPool

        return MomentPool(size)

    def update_batch_with_moments(self, state, values: np.ndarray, moments) -> None:
        state.merge_moments(*moments)

    def update_pool(self, pool, indices: np.ndarray, values: np.ndarray) -> None:
        pool.update_indexed(indices, values)

    def update_pool_with_stats(self, pool, indices, values, stats) -> None:
        # update_indexed is merge_arrays(batch_stats(...)): bit-identical.
        pool.merge_arrays(*stats)

    def pool_counts(self, pool) -> np.ndarray:
        return pool.count.copy()

    def pool_size(self, pool) -> int:
        return pool.size

    def _epsilon_batch(
        self, pool, indices: np.ndarray, a, b, n: np.ndarray, delta: float
    ) -> np.ndarray:
        """Per-slot one-sided half-widths; subclasses implement."""
        raise NotImplementedError

    def _empty_slot_mask(self, pool, indices: np.ndarray) -> np.ndarray:
        """Slots that must report the trivial bounds (no samples yet)."""
        return pool.count[indices] == 0

    def lbound_batch(self, pool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        eps = self._epsilon_batch(pool, indices, a, b, n, delta)
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        return np.where(
            self._empty_slot_mask(pool, indices), a_arr, pool.mean[indices] - eps
        )

    def rbound_batch(self, pool, a, b, n, delta, indices=None):
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        eps = self._epsilon_batch(pool, indices, a, b, n, delta)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        return np.where(
            self._empty_slot_mask(pool, indices), b_arr, pool.mean[indices] + eps
        )

    def confidence_interval_batch(self, pool, a, b, n, delta, indices=None):
        """Both sides from one ε evaluation (the kernel is symmetric)."""
        if indices is None:
            indices = np.arange(pool.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        eps = self._epsilon_batch(pool, indices, a, b, n, delta / 2.0)
        empty = self._empty_slot_mask(pool, indices)
        mean = pool.mean[indices]
        a_arr = np.broadcast_to(np.asarray(a, dtype=np.float64), indices.shape)
        b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), indices.shape)
        lo = np.where(empty, a_arr, mean - eps)
        hi = np.where(empty, b_arr, mean + eps)
        return self._clip_interval_arrays(lo, hi, a, b)
