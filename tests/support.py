"""Shared test utilities (imported as ``tests.support``)."""

from __future__ import annotations

import math

from repro.bounders.anderson import CSRSamplePool
from repro.bounders.base import ErrorBounder, validate_bound_args
from repro.bounders.range_trim import RangeTrimPool
from repro.stats.streaming import MomentPool


def bounder_pool_bytes(pool) -> tuple:
    """Canonical byte snapshot of any built-in bounder pool.

    Used by the pool-API unit tests and the parallel determinism suite
    to assert byte-identical bounder-state evolution; extend it
    when a bounder family introduces a new pool type.
    """
    if isinstance(pool, MomentPool):
        return ("moment", pool.count.tobytes(), pool.mean.tobytes(), pool.m2.tobytes())
    if isinstance(pool, RangeTrimPool):
        return (
            "range_trim",
            bounder_pool_bytes(pool.left),
            bounder_pool_bytes(pool.right),
            pool.min.tobytes(),
            pool.max.tobytes(),
            pool.count.tobytes(),
        )
    if isinstance(pool, CSRSamplePool):
        return (
            "csr",
            pool.count.tobytes(),
            tuple(pool.values(slot).tobytes() for slot in range(pool.size)),
        )
    raise TypeError(f"unknown bounder pool type {type(pool).__name__}")


class MinimalBounder(ErrorBounder):
    """A scalar-only Hoeffding-style bounder: the third-party shape.

    Implements nothing but the abstract interface — no batch update, no
    pool flavour — so every executor engine must
    carry it through the base-class loop fall-backs.
    """

    name = "minimal"

    def init_state(self):
        return {"count": 0, "total": 0.0}

    def update(self, state, value: float) -> None:
        state["count"] += 1
        state["total"] += value

    def sample_count(self, state) -> int:
        return state["count"]

    def estimate(self, state) -> float:
        return state["total"] / state["count"]

    def _epsilon(self, state, a, b, delta):
        return (b - a) * math.sqrt(math.log(1.0 / delta) / (2.0 * state["count"]))

    def lbound(self, state, a, b, n, delta):
        validate_bound_args(a, b, n, delta)
        if state["count"] == 0:
            return a
        return self.estimate(state) - self._epsilon(state, a, b, delta)

    def rbound(self, state, a, b, n, delta):
        validate_bound_args(a, b, n, delta)
        if state["count"] == 0:
            return b
        return self.estimate(state) + self._epsilon(state, a, b, delta)
