"""The OptStop optional-stopping meta-algorithm (Algorithm 5, §4.2).

Fixing a sample size ahead of time is impractical — it is usually unknown
how many samples make a CI "just tight enough" for the downstream
application.  OptStop instead keeps sampling in rounds of ``B`` tuples,
recomputing confidence bounds after each round with a decayed error
probability ``δ' = (6/π²)·(δ/k²)``, so that union bounding over rounds
(Theorem 4, via the Basel identity Σ 1/k² = π²/6) keeps the overall failure
probability below δ — the naive alternative of re-issuing fresh (1 − δ)
intervals every round is *not* valid, a mistake the paper calls out in
prior work [20].

The intervals from different rounds may all be intersected: with
probability ≥ 1 − δ *every* round's interval contains the truth, so the
running intersection ``[max_k L_k, min_k R_k]`` is itself a valid (1 − δ)
interval and is what gets tested against the stopping condition.

This module provides a standalone driver for plain datasets (used by unit
tests); the FastFrame executor embeds the same δ-decay and
running-intersection logic for multi-group queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.bounders.base import ErrorBounder, Interval
from repro.stats.delta import geometric_round_delta, optstop_round_delta

__all__ = [
    "OptStopResult",
    "RunningIntersection",
    "optional_stopping",
    "DEFAULT_BATCH_SIZE",
    "SCHEDULES",
]

#: The paper recomputes bounds every B = 40,000 samples in its experiments.
DEFAULT_BATCH_SIZE = 40_000

#: Round schedules: ``(next_batch_size(round_index, base), round_delta)``.
#: ``"arithmetic"`` is Algorithm 5 verbatim: fixed-size rounds with Basel
#: δ-decay.  ``"geometric"`` is the future-work alternative the paper
#: gestures at ("We leave development of alternative approaches to future
#: work", §4.2): round k ingests ``B·2^{k−1}`` samples and receives
#: ``δ·2^{−k}``, so after m samples only Θ(log m) rounds have fired and the
#: effective per-round δ is a log factor larger — tighter intervals late in
#: a long scan, at the cost of coarser stopping granularity.
SCHEDULES = {
    "arithmetic": (lambda k, base: base, optstop_round_delta),
    "geometric": (lambda k, base: base * (2 ** (k - 1)), geometric_round_delta),
}


@dataclass
class RunningIntersection:
    """Maintains ``[max_k L_k, min_k R_k]`` across OptStop rounds.

    Starts at the trivial interval and only ever tightens; Theorem 4
    guarantees the intersection contains the true aggregate w.h.p. because
    every round's interval does simultaneously.
    """

    lo: float = -np.inf
    hi: float = np.inf

    def fold(self, interval: Interval) -> Interval:
        """Intersect with a new round's interval and return the result."""
        self.lo = max(self.lo, interval.lo)
        self.hi = min(self.hi, interval.hi)
        if self.lo > self.hi:
            # Only possible on the (< δ probability) failure event or from
            # floating-point ties; collapse to the midpoint deterministically.
            mid = 0.5 * (self.lo + self.hi)
            self.lo = self.hi = mid
        return Interval(self.lo, self.hi)

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)


@dataclass
class OptStopResult:
    """Outcome of an :func:`optional_stopping` run."""

    interval: Interval
    estimate: float
    samples: int
    rounds: int
    stopped_early: bool


def optional_stopping(
    data: np.ndarray,
    bounder: ErrorBounder,
    a: float,
    b: float,
    delta: float,
    should_stop: Callable[[Interval, float], bool],
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: np.random.Generator | None = None,
    n: int | None = None,
    schedule: str = "arithmetic",
) -> OptStopResult:
    """Run Algorithm 5 over an in-memory dataset.

    Parameters
    ----------
    data:
        The finite dataset ``D``; a fresh without-replacement sample order
        is drawn with ``rng``.
    bounder:
        Any SSI range-based error bounder (RangeTrim-wrapped or not —
        correctness is independent of the bounder used, Theorem 4).
    a, b:
        A-priori range bounds with ``[a, b] ⊇ [MIN(D), MAX(D)]``.
    delta:
        Total error probability across the entire optional-stopping run.
    should_stop:
        Predicate over ``(running_interval, estimate)``; sampling stops at
        the end of the first round for which it returns True.
    batch_size:
        Round size ``B``; the paper uses 40,000 (§4.2).
    rng:
        Source of randomness for the without-replacement order.
    n:
        Dataset size override (or upper bound); defaults to ``len(data)``.
    schedule:
        Round schedule, a key of :data:`SCHEDULES`: ``"arithmetic"``
        (Algorithm 5) or ``"geometric"`` (doubling rounds, 2^{−k} decay).
        Both telescope the total error probability to at most δ.

    Returns
    -------
    OptStopResult
        With ``stopped_early=False`` when the dataset was exhausted before
        the predicate fired (the interval is then still valid; it is *not*
        collapsed to the exact value, mirroring the executor's behaviour of
        reporting the final certified interval).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot sample from an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; expected one of {sorted(SCHEDULES)}"
        )
    rng = rng or np.random.default_rng()
    population = n if n is not None else data.size
    if population < data.size:
        raise ValueError(
            f"n ({population}) must be >= len(data) ({data.size}); "
            "only an upper bound on the dataset size is sound (§3.3)"
        )

    round_size, round_delta_of = SCHEDULES[schedule]
    order = rng.permutation(data.size)
    state = bounder.init_state()
    running = RunningIntersection()
    taken = 0
    rounds = 0
    stopped_early = False
    while taken < data.size:
        batch = data[order[taken : taken + round_size(rounds + 1, batch_size)]]
        bounder.update_batch(state, batch)
        taken += batch.size
        rounds += 1
        round_delta = round_delta_of(delta, rounds)
        interval = bounder.confidence_interval(state, a, b, population, round_delta)
        running.fold(interval)
        estimate = bounder.estimate(state)
        if should_stop(running.interval, estimate):
            stopped_early = True
            break
    return OptStopResult(
        interval=running.interval,
        estimate=bounder.estimate(state),
        samples=taken,
        rounds=rounds,
        stopped_early=stopped_early,
    )


def fixed_size_interval(
    data: np.ndarray,
    bounder: ErrorBounder,
    m: int,
    a: float,
    b: float,
    delta: float,
    rng: np.random.Generator | None = None,
) -> OptStopResult:
    """Single-shot CI from exactly ``m`` without-replacement samples.

    Stopping condition Ê: when a fixed sample count is requested, the
    δ-decay of Algorithm 5 is unnecessary (§4.2) — one full-budget interval
    is issued at the end.
    """
    data = np.asarray(data, dtype=np.float64)
    if not 1 <= m <= data.size:
        raise ValueError(f"m must be in [1, {data.size}], got {m}")
    rng = rng or np.random.default_rng()
    sample = data[rng.permutation(data.size)[:m]]
    state = bounder.init_state()
    bounder.update_batch(state, sample)
    interval = bounder.confidence_interval(state, a, b, data.size, delta)
    return OptStopResult(
        interval=interval,
        estimate=bounder.estimate(state),
        samples=m,
        rounds=1,
        stopped_early=False,
    )


def stream_batches(
    data: np.ndarray, batch_size: int, rng: np.random.Generator
) -> Iterable[np.ndarray]:
    """Yield without-replacement sample batches covering ``data`` once.

    Utility for callers driving their own round loop (e.g. coverage
    simulations); semantics match :func:`optional_stopping`'s sampling.
    """
    data = np.asarray(data, dtype=np.float64)
    order = rng.permutation(data.size)
    for start in range(0, data.size, batch_size):
        yield data[order[start : start + batch_size]]
