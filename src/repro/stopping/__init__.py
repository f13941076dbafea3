"""Stopping conditions Ê-Ï (S19-S20).

OptStop (Algorithm 5) itself, the per-round δ-decay and the running
intersection of round intervals, runs inside the executor
(:mod:`repro.fastframe.executor`).
"""

from repro.stopping.conditions import (
    AbsoluteAccuracy,
    GroupsOrdered,
    GroupSnapshot,
    GroupSnapshots,
    RelativeAccuracy,
    SamplesTaken,
    SnapshotColumns,
    StoppingCondition,
    ThresholdSide,
    TopKSeparated,
    relative_error,
)

__all__ = [
    "AbsoluteAccuracy",
    "GroupSnapshot",
    "GroupSnapshots",
    "GroupsOrdered",
    "RelativeAccuracy",
    "SamplesTaken",
    "SnapshotColumns",
    "StoppingCondition",
    "ThresholdSide",
    "TopKSeparated",
    "relative_error",
]
