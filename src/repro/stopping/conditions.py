"""Stopping conditions Ê–Ï and their active-group rules (§4.2–4.3).

A stopping condition decides when an approximate query has gathered enough
samples for its downstream application: fixed sample counts, absolute or
relative CI width targets, threshold-side determination (HAVING), top-/
bottom-K separation (ORDER BY … LIMIT K), and full group ordering.

Each condition also designates which groups are **active** — the groups
that should be prioritized for sampling because they are what currently
prevents termination (§4.3).  Active scanning skips blocks containing no
tuples of any active group.

Both executor engines evaluate conditions over :class:`SnapshotColumns`:
one row per live group holding its current confidence interval, point
estimate, sample count and exhaustion flag (a single-aggregate query is a
one-group special case).  A condition implements
:meth:`StoppingCondition.active_mask` in numpy; its termination test
:meth:`StoppingCondition.satisfied_columns` defaults to "no group is
active".  :class:`GroupSnapshot` is the per-group record of the
progressive-round reports built from those columns, and
:class:`GroupSnapshots` the read-only mapping that decodes one round's
columns into those records on first access.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.bounders.base import Interval

__all__ = [
    "GroupSnapshot",
    "GroupSnapshots",
    "SnapshotColumns",
    "StoppingCondition",
    "SamplesTaken",
    "AbsoluteAccuracy",
    "RelativeAccuracy",
    "ThresholdSide",
    "TopKSeparated",
    "GroupsOrdered",
    "relative_error",
]


@dataclass(frozen=True)
class GroupSnapshot:
    """One group's row of :class:`SnapshotColumns`, as progressive rounds
    report it.

    Attributes
    ----------
    interval:
        Current (1 − δ) confidence interval for the group's aggregate (the
        OptStop running intersection when optional stopping is in effect).
    estimate:
        Current point estimate ``ĝ`` of the group's aggregate.
    samples:
        Number of sampled tuples contributing to the group's aggregate.
    exhausted:
        True once every tuple of the group's aggregate view has been
        read — the aggregate is then exact and the group can never be
        active again.
    """

    interval: Interval
    estimate: float
    samples: int
    exhausted: bool = False


@dataclass
class SnapshotColumns:
    """Struct-of-arrays snapshot of a run's live groups (one row per group).

    Attributes
    ----------
    rows:
        The engine's view index of each row (dropped views have no row),
        so a caller can write activity flags or decode group keys.
    lo, hi:
        Confidence-interval endpoints.
    estimate:
        Point estimates.
    samples:
        Contributing sample counts.
    exhausted:
        Per-row exhaustion flags.
    """

    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    estimate: np.ndarray
    samples: np.ndarray
    exhausted: np.ndarray

    @property
    def size(self) -> int:
        return self.rows.size


class GroupSnapshots(Mapping):
    """One round's decoded group key → :class:`GroupSnapshot` mapping.

    Read-only and lazy: it holds the round's :class:`SnapshotColumns`
    (its arrays made read-only) and the run's decoded key per view, and
    builds the dict of :class:`GroupSnapshot` records on first
    ``[]``/``iter``/``len``, then keeps it.  Iteration order is the
    columns' row order, and a snapshot compares equal to the plain dict
    of its items.  Struct-of-arrays readers use :attr:`columns` and never
    pay the per-group decode.
    """

    def __init__(self, columns: SnapshotColumns, keys: Sequence) -> None:
        for field_ in fields(columns):
            getattr(columns, field_.name).flags.writeable = False
        #: The round's live groups as read-only arrays; ``rows`` index
        #: the key sequence the mapping was built with.
        self.columns = columns
        self._keys = keys
        self._groups: dict | None = None

    def _materialized(self) -> dict:
        if self._groups is None:
            keys = self._keys
            columns = self.columns
            self._groups = {
                keys[row]: GroupSnapshot(
                    interval=Interval(lo, hi),
                    estimate=estimate,
                    samples=samples,
                    exhausted=exhausted,
                )
                for row, lo, hi, estimate, samples, exhausted in zip(
                    columns.rows.tolist(),
                    columns.lo.tolist(),
                    columns.hi.tolist(),
                    columns.estimate.tolist(),
                    columns.samples.tolist(),
                    columns.exhausted.tolist(),
                )
            }
        return self._groups

    def __getitem__(self, key) -> GroupSnapshot:
        return self._materialized()[key]

    def __iter__(self) -> Iterator:
        return iter(self._materialized())

    def __len__(self) -> int:
        return len(self._materialized())

    def __repr__(self) -> str:
        return f"GroupSnapshots({self._materialized()!r})"


def relative_error(interval: Interval, estimate: float) -> float:
    """The paper's relative-accuracy statistic (stopping condition Ì).

    ``max{(g_r − ĝ)/g_r, (ĝ − g_l)/g_l}`` — how far, relatively, the truth
    could be from the estimate given the interval.  When the interval
    touches or straddles zero no relative guarantee is possible and ``inf``
    is returned.  Magnitudes are used so the statistic behaves symmetrically
    for negative aggregates.
    """
    if interval.lo <= 0.0 <= interval.hi:
        return math.inf
    return max(
        (interval.hi - estimate) / abs(interval.hi),
        (estimate - interval.lo) / abs(interval.lo),
    )


class StoppingCondition(ABC):
    """Decides termination and sampling priority for a set of groups."""

    @abstractmethod
    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        """Boolean row mask over ``columns``: True = group is active, i.e.
        prioritized for sampling (§4.3's activeness rules).

        Exhausted groups are never active — no further sample can change
        their aggregate; the executor enforces that whatever the mask says.
        """

    def satisfied_columns(self, columns: SnapshotColumns) -> bool:
        """True once query processing may terminate.

        The default is "no group is active"; conditions whose termination
        test differs from their activeness rule (e.g. top-K separation)
        override this.
        """
        return not self.active_mask(columns).any()


def _count(value, name: str):
    """``value`` if it is an integer >= 1 (``int`` or ``np.integer``, not
    ``bool``), else a :class:`ValueError` naming the parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


class SamplesTaken(StoppingCondition):
    """Condition Ê: stop once every group has ``m`` contributing samples.

    The paper notes that with a fixed requested sample size, Algorithm 5's
    δ-decay machinery is unnecessary; the executor honours that by issuing
    a single end-of-run CI when this condition is used.
    """

    def __init__(self, m: int) -> None:
        self.m = _count(m, "requested sample count")

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        return (columns.samples < self.m) & ~columns.exhausted

    def __repr__(self) -> str:
        return f"SamplesTaken(m={self.m})"


class AbsoluteAccuracy(StoppingCondition):
    """Condition Ë: stop once every group's CI width is below ``epsilon``."""

    def __init__(self, epsilon: float) -> None:
        if not epsilon > 0.0:  # also NaN
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        return ((columns.hi - columns.lo) >= self.epsilon) & ~columns.exhausted

    def __repr__(self) -> str:
        return f"AbsoluteAccuracy(epsilon={self.epsilon})"


class RelativeAccuracy(StoppingCondition):
    """Condition Ì: stop once every group's relative error is below ``epsilon``."""

    def __init__(self, epsilon: float) -> None:
        if not epsilon > 0.0:  # also NaN
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        return (self._relative(columns) >= self.epsilon) & ~columns.exhausted

    def _relative(self, columns: SnapshotColumns) -> np.ndarray:
        lo, hi, est = columns.lo, columns.hi, columns.estimate
        straddles = (lo <= 0.0) & (hi >= 0.0)
        # Non-straddling intervals have same-sign nonzero endpoints, so the
        # guarded denominators are only cosmetic (they silence the unused
        # branch of the where()).
        safe_hi = np.where(straddles, 1.0, np.abs(hi))
        safe_lo = np.where(straddles, 1.0, np.abs(lo))
        rel = np.maximum((hi - est) / safe_hi, (est - lo) / safe_lo)
        return np.where(straddles, math.inf, rel)

    def __repr__(self) -> str:
        return f"RelativeAccuracy(epsilon={self.epsilon})"


class ThresholdSide(StoppingCondition):
    """Condition Í: stop once no group's CI contains the threshold ``v``.

    Used for HAVING clauses (F-q2, F-q5) and scalar threshold tests (F-q4):
    once ``v ∉ [g_l, g_r]`` the group's side of the threshold is determined
    w.h.p.
    """

    def __init__(self, threshold: float) -> None:
        if math.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        self.threshold = threshold

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        contains = (columns.lo <= self.threshold) & (self.threshold <= columns.hi)
        return contains & ~columns.exhausted

    def __repr__(self) -> str:
        return f"ThresholdSide(threshold={self.threshold})"


class TopKSeparated(StoppingCondition):
    """Condition Î: stop once the top- (or bottom-)K groups are separated.

    Termination: every non-selected group is **dominated** — at least K
    groups' inner confidence bounds lie strictly beyond its outer bound —
    so its true aggregate cannot rank inside the top (bottom) K.  Full
    pairwise separation of the selected CIs from the rest implies
    dominance, so this fires no later than the classic test and usually
    earlier: a straggler view whose upper bound already sits below K
    lower bounds needs no further samples even while the leaders are
    still disentangling among themselves.

    Activeness (§4.3's rule, the most involved of the six): sort groups by
    estimate and take the midpoint between the K-th ranked aggregate and the
    (K+1)-th.  A top-K group is active while its inner confidence bound
    crosses that midpoint; a remaining group is active while its bound
    crosses from the other side — unless it is already dominated, in which
    case it retires immediately (intervals are running intersections, so
    dominance can never be undone by more samples).
    """

    def __init__(self, k: int, largest: bool = True) -> None:
        self.k = _count(k, "k")
        self.largest = largest

    def _ranked_order(self, estimate: np.ndarray) -> np.ndarray:
        """Row order by estimate (descending for top-K), stable on ties:
        tied groups keep their row order, the order Python's ``sorted``
        would give them."""
        return np.argsort(-estimate if self.largest else estimate, kind="stable")

    def _dominated(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Rows certifiably outside the top (bottom) K.

        A row is dominated when at least K *other* rows' inner bounds lie
        strictly beyond its outer bound, i.e. its outer bound is beyond
        the K-th best inner bound over all rows (a row never dominates
        itself: lo ≤ hi rules it out of its own dominator set).
        """
        if self.largest:
            bar = np.partition(lo, lo.size - self.k)[lo.size - self.k]
            return hi < bar
        bar = np.partition(hi, self.k - 1)[self.k - 1]
        return lo > bar

    def satisfied_columns(self, columns: SnapshotColumns) -> bool:
        if columns.size <= self.k:
            return True
        order = self._ranked_order(columns.estimate)
        dominated = self._dominated(columns.lo, columns.hi)
        return bool(dominated[order[self.k :]].all())

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        if columns.size <= self.k:
            return np.zeros(columns.size, dtype=bool)
        order = self._ranked_order(columns.estimate)
        selected, rest = order[: self.k], order[self.k :]
        midpoint = 0.5 * (
            columns.estimate[selected[-1]] + columns.estimate[rest[0]]
        )
        active = np.zeros(columns.size, dtype=bool)
        if self.largest:
            active[selected] = columns.lo[selected] <= midpoint
            active[rest] = columns.hi[rest] >= midpoint
        else:
            active[selected] = columns.hi[selected] >= midpoint
            active[rest] = columns.lo[rest] <= midpoint
        # Dominance retirement: a rest view certifiably outside the
        # selection can never re-enter it, so it stops sampling now even
        # though the leaders are still separating.
        dominated = self._dominated(columns.lo, columns.hi)
        active[rest] &= ~dominated[rest]
        return active & ~columns.exhausted

    def __repr__(self) -> str:
        kind = "top" if self.largest else "bottom"
        return f"TopKSeparated(k={self.k}, {kind})"


class GroupsOrdered(StoppingCondition):
    """Condition Ï: stop once all groups' CIs are pairwise disjoint.

    Determines the correct ordering of group aggregates w.h.p. [40].  A
    group is active while its interval intersects any other group's.
    """

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        if columns.size < 2:
            return np.zeros(columns.size, dtype=bool)
        sorted_lows = np.sort(columns.lo)
        sorted_highs = np.sort(columns.hi)
        # Group i intersects group j iff lo_j <= hi_i and hi_j >= lo_i.  The
        # count of such j (including i itself) is #{lo_j <= hi_i} minus
        # #{hi_j < lo_i} — the latter set is contained in the former since
        # hi_j < lo_i implies lo_j <= hi_j < lo_i <= hi_i.  Exact in
        # O(G log G) via sorted ranks.
        partners = np.searchsorted(
            sorted_lows, columns.hi, side="right"
        ) - np.searchsorted(sorted_highs, columns.lo, side="left")
        return (partners > 1) & ~columns.exhausted

    def __repr__(self) -> str:
        return "GroupsOrdered()"
