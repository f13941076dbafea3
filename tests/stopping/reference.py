"""Reference OptStop driver (Algorithm 5, §4.2) over in-memory arrays.

The executor embeds Algorithm 5 for multi-group queries over a scramble:
the decayed δ per round and the running intersection of every round's
interval.  This module is the single-group form over a plain dataset,
kept as a test oracle:

* :func:`optional_stopping` samples without replacement in rounds of
  ``B`` tuples, recomputes the bound with round ``k``'s decayed error
  probability and tests the running intersection against a predicate;
* :func:`fixed_size_interval` issues one full-budget interval from
  exactly ``m`` samples (stopping condition Ê, no δ-decay), which
  ``tests/fastframe/test_fixed_sample_mode.py`` compares the executor
  against.

Fixing a sample size ahead of time is impractical — it is usually unknown
how many samples make a CI "just tight enough".  Re-issuing fresh
(1 − δ) intervals every round is *not* valid, a mistake the paper calls
out in prior work [20]; the δ-decay ``δ′ = (6/π²)·(δ/k²)`` union bounds
over rounds back to δ (Theorem 4, via the Basel identity
Σ 1/k² = π²/6), so every round's interval and hence their intersection
contain the truth with probability ≥ 1 − δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bounders.base import ErrorBounder, Interval
from repro.fastframe.executor import RunningIntersection
from repro.stats.delta import optstop_round_delta

#: The paper recomputes bounds every B = 40,000 samples in its experiments.
DEFAULT_BATCH_SIZE = 40_000


def geometric_round_delta(delta: float, round_index: int) -> float:
    """Error probability for round ``k`` of a geometric OptStop schedule.

    ``δ_k = δ·2^{−k}``, which telescopes to exactly δ over all rounds.  The
    decay per round is faster than Algorithm 5's Basel decay, but a
    geometric schedule recomputes bounds at exponentially spaced sample
    counts, so after ``m`` samples only ``Θ(log m)`` rounds have occurred
    and the binding δ is ``Θ(δ/m^{log 2/ log growth})``-free — in practice a
    log-factor tighter than the arithmetic schedule's ``Θ(δ·B²/m²)`` at
    large ``m`` (see ``tests/stopping/test_schedules.py``).
    """
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return delta * (2.0 ** -round_index)


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
