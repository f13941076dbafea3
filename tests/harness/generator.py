"""Seeded random query/schema generator for the cross-engine harness.

Each seed deterministically expands into a :class:`GeneratedCase`: a
synthetic table (random size, cardinalities, value distribution, skew), a
scramble, and a random query (aggregate, GROUP BY, predicate, stopping
condition, δ, bounder, strategy, round cadence, lookahead window size,
start block).  The parity suite replays each case through the scalar,
pool, and parallel engines and pins their answers to each other; the
coverage suite replays fresh data seeds and pins the 1−δ contract.

Stopping targets are derived from the generated data's own scale (never
from fixed constants), so thresholds land at many different points of the
run — some cases stop after one round, some scan to exhaustion — without
sitting on knife edges where a 1e-9 engine difference could flip the
stopping decision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.fastframe.predicate import Eq, TruePredicate
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    RelativeAccuracy,
    SamplesTaken,
    ThresholdSide,
    TopKSeparated,
)

#: Bounders the harness samples from — the SSI set the parity suite
#: already pins pairwise (asymptotic/non-SSI bounders are out of scope
#: for the multi-query guarantee).  Includes both O(m) shapes: plain
#: Anderson (pooled CSR sample buffers) and RangeTrim with an Anderson
#: inner (CSR pools nested under the Algorithm 6 clip deltas).
BOUNDERS = (
    "hoeffding",
    "hoeffding+rt",
    "bernstein",
    "bernstein+rt",
    "anderson",
    "anderson+rt",
)

#: Environment override pinning every generated case to one bounder —
#: the CI matrix uses it to replay the parity/determinism suites with a
#: specific family (e.g. ``REPRO_HARNESS_BOUNDER=anderson+rt`` under
#: ``REPRO_PARALLELISM=2`` exercises the CSR delta merges end to end).
HARNESS_BOUNDER_ENV = "REPRO_HARNESS_BOUNDER"


def _case_bounder(rng: np.random.Generator) -> str:
    forced = os.environ.get(HARNESS_BOUNDER_ENV, "").strip().lower()
    drawn = str(rng.choice(BOUNDERS))  # always consume the stream: the
    # case's other draws must not depend on whether an override is set.
    return forced or drawn

STRATEGIES = ("scan", "activesync", "activepeek")

#: Lookahead window sizes (blocks).  Small windows force several passes
#: per scan, exercising multi-window ingest and mid-scan rounds even on
#: harness-scale tables.
WINDOW_BLOCKS = (48, 192, 1024)


@dataclass
class GeneratedCase:
    """One fully specified random execution, shared by all engines."""

    seed: int
    table: Table
    scramble: Scramble
    query: Query
    bounder: str
    strategy_name: str
    window_blocks: int
    delta: float
    round_rows: int
    start_block: int

    def strategy(self):
        """A fresh strategy instance (engines must not share state)."""
        strategy = get_strategy(self.strategy_name)
        strategy.window_blocks = self.window_blocks
        return strategy

    def describe(self) -> str:
        return (
            f"seed={self.seed} {self.query.describe()} "
            f"bounder={self.bounder} strategy={self.strategy_name} "
            f"window={self.window_blocks} rows={self.table.num_rows} "
            f"delta={self.delta:.2e} round_rows={self.round_rows} "
            f"start={self.start_block}"
        )

    def true_aggregates(self) -> dict:
        """Exact per-group answers, computed directly on the base table.

        Keys match :class:`~repro.fastframe.query.GroupResult` keys
        (decoded group-by value tuples); only groups with at least one
        predicate-passing row appear for AVG (their aggregate exists).
        """
        query = self.query
        table = self.table
        rows = np.arange(table.num_rows)
        if not isinstance(query.predicate, TruePredicate):
            rows = rows[query.predicate.mask(table, rows)]
        if query.aggregate is AggregateFunction.COUNT:
            values = None
        else:
            values = table.continuous(query.column)[rows]
        if query.aggregate.is_quantile:
            from repro.cdfbounds.quantile import empirical_quantile
        if not query.group_by:
            keys = np.zeros(rows.size, dtype=np.int64)
        else:
            keys = None
            cards = [
                table.categorical(column).cardinality for column in query.group_by
            ]
            for column, card in zip(query.group_by, cards):
                codes = table.categorical(column).codes[rows]
                keys = codes.astype(np.int64) if keys is None else keys * card + codes
        out: dict = {}
        for code in np.unique(keys):
            member = keys == code
            if query.group_by:
                remaining = int(code)
                parts = []
                for column, card in zip(
                    reversed(query.group_by), reversed(cards)
                ):
                    value = table.categorical(column).dictionary[remaining % card]
                    parts.append(value)
                    remaining //= card
                key = tuple(reversed(parts))
            else:
                key = ()
            if query.aggregate is AggregateFunction.COUNT:
                out[key] = float(np.count_nonzero(member))
            elif query.aggregate is AggregateFunction.AVG:
                out[key] = float(values[member].mean())
            elif query.aggregate.is_quantile:
                out[key] = float(
                    empirical_quantile(values[member], query.quantile_p)
                )
            else:
                out[key] = float(values[member].sum())
        return out


def _random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    kind = rng.choice(["normal", "gamma", "uniform", "lognormal", "bimodal"])
    if kind == "normal":
        return rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 30.0), n)
    if kind == "gamma":
        return rng.gamma(rng.uniform(0.8, 4.0), rng.uniform(1.0, 20.0), n)
    if kind == "uniform":
        lo = rng.uniform(-100, 50)
        return rng.uniform(lo, lo + rng.uniform(1.0, 200.0), n)
    if kind == "lognormal":
        return rng.lognormal(rng.uniform(0.0, 3.0), rng.uniform(0.2, 1.0), n)
    # bimodal: a heavy cluster plus a light, far-away one
    split = rng.uniform(0.05, 0.4)
    choice = rng.random(n) < split
    near = rng.normal(0.0, 1.0, n)
    far = rng.normal(rng.uniform(20, 200), rng.uniform(1.0, 10.0), n)
    return np.where(choice, far, near)


def _random_codes(rng: np.random.Generator, n: int, cardinality: int) -> np.ndarray:
    if rng.random() < 0.5:
        return rng.integers(0, cardinality, n)
    # Skewed occupancy: a few heavy groups, a long sparse tail.
    weights = rng.dirichlet(np.full(cardinality, rng.uniform(0.2, 1.0)))
    return rng.choice(cardinality, size=n, p=weights)


def _random_stopping(rng: np.random.Generator, scale: float, group_by: tuple):
    kind = rng.choice(
        ["abs", "rel", "samples", "threshold", "topk"],
        p=[0.3, 0.3, 0.15, 0.15, 0.1],
    )
    if kind == "abs":
        # Spread over 3 decades of the data scale: loose targets stop in
        # a round or two, tight ones scan to exhaustion.
        return AbsoluteAccuracy(float(scale * 10 ** rng.uniform(-2.5, 0.5)))
    if kind == "rel":
        return RelativeAccuracy(float(rng.uniform(0.05, 0.6)))
    if kind == "samples":
        return SamplesTaken(int(rng.integers(200, 3_000)))
    if kind == "threshold":
        # An offset of the scale keeps the threshold away from most group
        # aggregates without pinning it to any.
        return ThresholdSide(float(scale * rng.uniform(0.3, 1.5)))
    k = int(rng.integers(1, 4)) if group_by else 1
    return TopKSeparated(k, largest=bool(rng.random() < 0.7))


def random_case(seed: int) -> GeneratedCase:
    """Expand one seed into a fully specified cross-engine case."""
    rng = np.random.default_rng(100_000 + seed)
    n = int(rng.integers(1_200, 5_000))
    card_g = int(rng.integers(2, 24))
    card_h = int(rng.integers(2, 6))
    table = Table(
        continuous={"x": _random_values(rng, n)},
        categorical={
            "g": _random_codes(rng, n, card_g).astype(str),
            "h": _random_codes(rng, n, card_h).astype(str),
        },
        range_pad=float(rng.uniform(0.05, 0.3)),
    )
    scramble = Scramble(table, rng=np.random.default_rng(200_000 + seed))

    aggregates = (
        AggregateFunction.AVG, AggregateFunction.SUM, AggregateFunction.COUNT,
        AggregateFunction.MEDIAN, AggregateFunction.PERCENTILE,
    )
    aggregate = aggregates[rng.choice(5, p=[0.4, 0.18, 0.18, 0.12, 0.12])]
    # Draw the quantile level unconditionally so the case's later draws
    # (bounder, strategy, geometry) are identical across aggregate kinds.
    percentile_level = float(rng.uniform(0.1, 0.9))
    group_by_options = ((), ("g",), ("g", "h"))
    group_by = group_by_options[rng.choice(3, p=[0.2, 0.6, 0.2])]
    if rng.random() < 0.35:
        present = table.categorical("h").dictionary
        predicate = Eq("h", str(rng.choice(present)))
    else:
        predicate = TruePredicate()

    x = table.continuous("x")
    scale = float(np.abs(x).mean() + x.std()) or 1.0
    if aggregate is AggregateFunction.COUNT:
        scale = max(n / max(card_g, 1), 10.0)
    elif aggregate is AggregateFunction.SUM:
        scale = scale * n / max(card_g, 1)
    stopping = _random_stopping(rng, scale, group_by)

    query = Query(
        aggregate,
        None if aggregate is AggregateFunction.COUNT else "x",
        stopping,
        predicate=predicate,
        group_by=group_by,
        percentile=(
            percentile_level
            if aggregate is AggregateFunction.PERCENTILE
            else None
        ),
        name=f"harness-{seed}",
    )
    return GeneratedCase(
        seed=seed,
        table=table,
        scramble=scramble,
        query=query,
        bounder=_case_bounder(rng),
        strategy_name=str(rng.choice(STRATEGIES)),
        window_blocks=int(rng.choice(WINDOW_BLOCKS)),
        delta=float(10 ** rng.uniform(-8, -3)),
        round_rows=int(rng.integers(400, 4_000)),
        start_block=int(rng.integers(scramble.num_blocks)),
    )
