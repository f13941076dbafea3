"""Stopping conditions Ê–Ï and their active-group rules (§4.2–4.3).

A stopping condition decides when an approximate query has gathered enough
samples for its downstream application: fixed sample counts, absolute or
relative CI width targets, threshold-side determination (HAVING), top-/
bottom-K separation (ORDER BY … LIMIT K), and full group ordering.

Each condition also designates which groups are **active** — the groups
that should be prioritized for sampling because they are what currently
prevents termination (§4.3).  Active scanning skips blocks containing no
tuples of any active group.

All conditions consume :class:`GroupSnapshot` views: the current confidence
interval, point estimate, and sample count per group (a single-aggregate
query is a one-group special case).

The vectorized executor core evaluates conditions over
:class:`SnapshotColumns` — the struct-of-arrays equivalent of a snapshot
mapping — via :meth:`StoppingCondition.active_mask` /
:meth:`StoppingCondition.satisfied_columns`.  The base class bridges both
representations, so custom conditions written against the mapping API keep
working inside the array engine; every built-in condition overrides the
array path with pure numpy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro.bounders.base import Interval

__all__ = [
    "GroupSnapshot",
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

GroupKey = Hashable


@dataclass(frozen=True)
class GroupSnapshot:
    """Per-group view the executor exposes to stopping conditions.

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
    """Struct-of-arrays form of a group-snapshot mapping (one row per group).

    Attributes
    ----------
    keys:
        Per-row group identifiers (the executor passes combined group
        codes; any hashable-convertible array works).
    lo, hi:
        Confidence-interval endpoints.
    estimate:
        Point estimates.
    samples:
        Contributing sample counts.
    exhausted:
        Per-row exhaustion flags.
    """

    keys: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    estimate: np.ndarray
    samples: np.ndarray
    exhausted: np.ndarray

    @property
    def size(self) -> int:
        return self.keys.size

    def to_mapping(self) -> dict[GroupKey, GroupSnapshot]:
        """Materialize the mapping view (compatibility bridge)."""
        return {
            int(self.keys[i]): GroupSnapshot(
                interval=Interval(float(self.lo[i]), float(self.hi[i])),
                estimate=float(self.estimate[i]),
                samples=int(self.samples[i]),
                exhausted=bool(self.exhausted[i]),
            )
            for i in range(self.size)
        }


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
    def active_groups(
        self, groups: Mapping[GroupKey, GroupSnapshot]
    ) -> set[GroupKey]:
        """Groups to prioritize for sampling (§4.3's activeness rules).

        Exhausted groups are never active — no further sample can change
        their aggregate.
        """

    def satisfied(self, groups: Mapping[GroupKey, GroupSnapshot]) -> bool:
        """True once query processing may terminate.

        The default is "no group is active"; conditions whose termination
        test differs from their activeness rule (e.g. top-K separation)
        override this.
        """
        return not self.active_groups(groups)

    # -- struct-of-arrays flavour ---------------------------------------

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        """Boolean row mask over ``columns``: True = group is active.

        The default materializes the mapping and delegates to
        :meth:`active_groups`, so any custom condition participates in the
        vectorized executor unchanged; built-ins override with numpy.
        """
        active = self.active_groups(columns.to_mapping())
        return np.fromiter(
            (int(key) in active for key in columns.keys),
            dtype=bool,
            count=columns.size,
        )

    def satisfied_columns(self, columns: SnapshotColumns) -> bool:
        """Array-flavoured :meth:`satisfied` (same default rule)."""
        if type(self).satisfied is StoppingCondition.satisfied:
            return not self.active_mask(columns).any()
        # The condition customizes `satisfied`; take the compatible route.
        return self.satisfied(columns.to_mapping())

    @staticmethod
    def _live(groups: Mapping[GroupKey, GroupSnapshot]) -> dict[GroupKey, GroupSnapshot]:
        return {key: snap for key, snap in groups.items() if not snap.exhausted}


class SamplesTaken(StoppingCondition):
    """Condition Ê: stop once every group has ``m`` contributing samples.

    The paper notes that with a fixed requested sample size, Algorithm 5's
    δ-decay machinery is unnecessary; the executor honours that by issuing
    a single end-of-run CI when this condition is used.
    """

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"requested sample count must be >= 1, got {m}")
        self.m = m

    def active_groups(self, groups: Mapping[GroupKey, GroupSnapshot]) -> set[GroupKey]:
        return {
            key for key, snap in self._live(groups).items() if snap.samples < self.m
        }

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        return (columns.samples < self.m) & ~columns.exhausted

    def __repr__(self) -> str:
        return f"SamplesTaken(m={self.m})"


class AbsoluteAccuracy(StoppingCondition):
    """Condition Ë: stop once every group's CI width is below ``epsilon``."""

    def __init__(self, epsilon: float) -> None:
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def active_groups(self, groups: Mapping[GroupKey, GroupSnapshot]) -> set[GroupKey]:
        return {
            key
            for key, snap in self._live(groups).items()
            if snap.interval.width >= self.epsilon
        }

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        return ((columns.hi - columns.lo) >= self.epsilon) & ~columns.exhausted

    def __repr__(self) -> str:
        return f"AbsoluteAccuracy(epsilon={self.epsilon})"


class RelativeAccuracy(StoppingCondition):
    """Condition Ì: stop once every group's relative error is below ``epsilon``."""

    def __init__(self, epsilon: float) -> None:
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def active_groups(self, groups: Mapping[GroupKey, GroupSnapshot]) -> set[GroupKey]:
        return {
            key
            for key, snap in self._live(groups).items()
            if relative_error(snap.interval, snap.estimate) >= self.epsilon
        }

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
        self.threshold = threshold

    def active_groups(self, groups: Mapping[GroupKey, GroupSnapshot]) -> set[GroupKey]:
        return {
            key
            for key, snap in self._live(groups).items()
            if self.threshold in snap.interval
        }

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
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.largest = largest

    def _ranked_order(self, estimate: np.ndarray) -> np.ndarray:
        """Row order by estimate (descending for top-K), stable on ties.

        The single ranking rule for both condition flavours: the mapping
        path feeds its estimates through this same argsort, so tie-heavy
        snapshots partition identically however they are represented.
        """
        return np.argsort(-estimate if self.largest else estimate, kind="stable")

    def _partition(
        self, groups: Mapping[GroupKey, GroupSnapshot]
    ) -> tuple[list[GroupKey], list[GroupKey]]:
        """Split keys into (selected top/bottom K, remainder) by estimate."""
        keys = list(groups)
        estimate = np.array([groups[key].estimate for key in keys], dtype=np.float64)
        ranked = [keys[row] for row in self._ranked_order(estimate)]
        return ranked[: self.k], ranked[self.k :]

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

    def satisfied(self, groups: Mapping[GroupKey, GroupSnapshot]) -> bool:
        if len(groups) <= self.k:
            return True
        keys = list(groups)
        lo = np.array([groups[key].interval.lo for key in keys], dtype=np.float64)
        hi = np.array([groups[key].interval.hi for key in keys], dtype=np.float64)
        order = self._ranked_order(
            np.array([groups[key].estimate for key in keys], dtype=np.float64)
        )
        return bool(self._dominated(lo, hi)[order[self.k :]].all())

    def active_groups(self, groups: Mapping[GroupKey, GroupSnapshot]) -> set[GroupKey]:
        if len(groups) <= self.k:
            return set()
        selected, rest = self._partition(groups)
        lo = np.array([groups[key].interval.lo for key in groups], dtype=np.float64)
        hi = np.array([groups[key].interval.hi for key in groups], dtype=np.float64)
        retired = {
            key
            for key, dominated in zip(groups, self._dominated(lo, hi))
            if dominated
        }
        boundary_in = groups[selected[-1]].estimate
        boundary_out = groups[rest[0]].estimate
        midpoint = 0.5 * (boundary_in + boundary_out)
        active: set[GroupKey] = set()
        for key in selected:
            snap = groups[key]
            if snap.exhausted:
                continue
            crosses = (
                snap.interval.lo <= midpoint
                if self.largest
                else snap.interval.hi >= midpoint
            )
            if crosses:
                active.add(key)
        for key in rest:
            snap = groups[key]
            if snap.exhausted or key in retired:
                continue
            crosses = (
                snap.interval.hi >= midpoint
                if self.largest
                else snap.interval.lo <= midpoint
            )
            if crosses:
                active.add(key)
        return active

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

    def active_groups(self, groups: Mapping[GroupKey, GroupSnapshot]) -> set[GroupKey]:
        keys = list(groups)
        if len(keys) < 2:
            return set()
        lows = np.array([groups[key].interval.lo for key in keys])
        highs = np.array([groups[key].interval.hi for key in keys])
        sorted_lows = np.sort(lows)
        sorted_highs = np.sort(highs)
        # Group i intersects group j iff lo_j <= hi_i and hi_j >= lo_i.  The
        # count of such j (including i itself) is #{lo_j <= hi_i} minus
        # #{hi_j < lo_i} — the latter set is contained in the former since
        # hi_j < lo_i implies lo_j <= hi_j < lo_i <= hi_i.  Exact in
        # O(G log G) via sorted ranks.
        partners = np.searchsorted(sorted_lows, highs, side="right") - np.searchsorted(
            sorted_highs, lows, side="left"
        )
        return {
            key
            for key, count in zip(keys, partners)
            if count > 1 and not groups[key].exhausted
        }

    def active_mask(self, columns: SnapshotColumns) -> np.ndarray:
        if columns.size < 2:
            return np.zeros(columns.size, dtype=bool)
        sorted_lows = np.sort(columns.lo)
        sorted_highs = np.sort(columns.hi)
        partners = np.searchsorted(
            sorted_lows, columns.hi, side="right"
        ) - np.searchsorted(sorted_highs, columns.lo, side="left")
        return (partners > 1) & ~columns.exhausted

    def __repr__(self) -> str:
        return "GroupsOrdered()"
