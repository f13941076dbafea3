"""Streaming statistics and error-probability budgeting substrates."""

from repro.stats.delta import (
    DEFAULT_DELTA,
    DeltaBudget,
    optstop_round_delta,
)
from repro.stats.streaming import ExtremaState, MomentPool, MomentState

__all__ = [
    "DEFAULT_DELTA",
    "DeltaBudget",
    "ExtremaState",
    "MomentPool",
    "MomentState",
    "optstop_round_delta",
]
