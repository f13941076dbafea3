"""Extensibility: plug a custom SSI bounder into RangeTrim and the executor.

RangeTrim wraps *any* range-based error bounder (§3.2), and the executor
accepts any object implementing the §2.2.2 interface.  This script defines
a maximal-ignorance "median-of-bounds" toy bounder that simply takes the
tighter of Hoeffding-Serfling and empirical Bernstein-Serfling per side
(valid after a union bound: each side's δ is split across the two
inequalities), registers it, RangeTrim-wraps it, and runs a flights query.

Run:  python examples/custom_bounder.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.bounders import (
    EmpiricalBernsteinSerflingBounder,
    ErrorBounder,
    HoeffdingSerflingBounder,
    RangeTrimBounder,
)
from repro.api import connect
from repro.datasets import make_flights_scramble
from repro.fastframe import AggregateFunction, ExactExecutor, Query
from repro.stats.streaming import MomentState
from repro.stopping import AbsoluteAccuracy

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "300000"))


class BestOfBothBounder(ErrorBounder):
    """max(Hoeffding-Serfling, Bernstein-Serfling) lower bound per side.

    Splitting each side's δ across the two inequalities (union bound)
    keeps the combination SSI: with probability ≥ 1 − δ both inequalities
    hold, so the tighter of the two one-sided bounds is valid.
    """

    name = "BestOfBoth"

    def __init__(self) -> None:
        self._hoeffding = HoeffdingSerflingBounder()
        self._bernstein = EmpiricalBernsteinSerflingBounder()

    def init_state(self) -> MomentState:
        return MomentState()

    def update(self, state: MomentState, value: float) -> None:
        state.update(value)

    def update_batch(self, state: MomentState, values) -> None:
        state.update_batch(values)

    def sample_count(self, state: MomentState) -> int:
        return state.count

    def estimate(self, state: MomentState) -> float:
        return state.mean

    def lbound(self, state, a, b, n, delta):
        half = delta / 2.0  # union bound across the two inequalities
        return max(
            self._hoeffding.lbound(state, a, b, n, half),
            self._bernstein.lbound(state, a, b, n, half),
        )

    def rbound(self, state, a, b, n, delta):
        half = delta / 2.0
        return min(
            self._hoeffding.rbound(state, a, b, n, half),
            self._bernstein.rbound(state, a, b, n, half),
        )


def main() -> None:
    print("building a 300k-row flights scramble ...")
    scramble = make_flights_scramble(rows=ROWS, seed=4)
    query = Query(
        AggregateFunction.AVG, "DepDelay", AbsoluteAccuracy(3.0), name="custom"
    )
    exact = ExactExecutor(scramble).execute(query).scalar()

    for bounder in (BestOfBothBounder(), RangeTrimBounder(BestOfBothBounder())):
        conn = connect(
            scramble,
            bounder=bounder,
            delta=1e-9,
            max_queries=1,
            rng=np.random.default_rng(13),
        )
        result = conn.query(query).result()
        group = result.scalar()
        print(
            f"{bounder.name:16s} rows={result.metrics.rows_read:9,d}  "
            f"CI=[{group.interval.lo:6.2f}, {group.interval.hi:6.2f}]  "
            f"sound={exact.estimate in group.interval}"
        )
    print(f"exact answer: {exact.estimate:.3f}")


if __name__ == "__main__":
    main()
