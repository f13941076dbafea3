"""Empirical detectors for the paper's bounder pathologies (§2.3).

The Table 2 and Figure 3 oracle of ``test_pathology.py``: RangeTrim
removes PHOS on the served path, and nothing there asks which pathology
a bounder has.

The paper defines two pathologies of conservative error bounders:

* **PMA — pessimistic mass allocation (Definition 2)**: unseen probability
  mass is pinned at the range endpoints ``a``/``b`` regardless of observed
  evidence, so replacing a sample's extreme values with milder ones can
  leave the CI width unchanged.
* **PHOS — phantom outlier sensitivity (Definition 3)**: the confidence
  *lower* bound depends on the *upper* range bound ``b`` (or the upper
  bound on ``a``) even when no extreme values were observed.

PHOS is directly testable from Definition 3: perturb ``b`` holding the
sample and ``a`` fixed and observe whether ``Lbound`` moves (and mirrored
for ``Rbound`` / ``a``).  :func:`exhibits_phos` implements exactly that.

PMA needs more care.  Taken fully literally, Definition 2's witness sample
``S'`` (every value clipped to a common ``a'``) is a point mass, for which
*any* variance-sensitive bounder also reports an unchanged width (σ̂ = 0 on
both sides) — the definition's intent is clearly about *non-degenerate*
evidence.  We therefore provide two complementary detectors:

* :func:`pma_width_gap` — the literal Definition 2 experiment on a spread
  witness sample: the width change caused by clipping the sample's smallest
  values up to ``a'``.  A gap of (near) zero on spread samples is a PMA
  witness; Hoeffding produces exactly zero, Bernstein and Anderson do not.
* :func:`exhibits_pma` — the asymptotic endpoint-mass test that reproduces
  Table 2's classification exactly: on a (near) zero-spread sample, a
  PMA-free bounder's width must decay strictly faster than the
  ``Θ((b − a)/√m)`` rate that corresponds to parking Θ(1/√m) unseen mass at
  the range endpoints.  Hoeffding (width ``Θ((b−a)/√m)``) and Anderson/DKW
  (irreducible ``ε·(b − a)`` endpoint term) are PMA; Bernstein's
  zero-spread width is ``Θ((b − a)/m)`` and is not.
"""

from __future__ import annotations

import numpy as np

from repro.bounders.base import ErrorBounder

__all__ = [
    "exhibits_phos",
    "exhibits_pma",
    "pma_width_gap",
]

_DEFAULT_DELTA = 1e-6


def _state_from(bounder: ErrorBounder, values: np.ndarray):
    state = bounder.init_state()
    bounder.update_batch(state, np.asarray(values, dtype=np.float64))
    return state


def exhibits_phos(
    bounder: ErrorBounder,
    sample: np.ndarray | None = None,
    a: float = 0.0,
    b: float = 1.0,
    n: int = 10_000,
    delta: float = _DEFAULT_DELTA,
    rel_tol: float = 1e-12,
) -> bool:
    """Definition 3 test: does Lbound depend on ``b`` (or Rbound on ``a``)?

    The sample (default: 50 points spread over the middle of ``[a, b]``) is
    held fixed while the opposite range endpoint is pushed outward; any
    movement of the bound beyond relative tolerance is phantom outlier
    sensitivity.
    """
    if sample is None:
        sample = np.linspace(a + 0.3 * (b - a), a + 0.6 * (b - a), 50)
    state = _state_from(bounder, sample)
    span = b - a

    lo_base = bounder.lbound(state, a, b, n, delta)
    lo_wide = bounder.lbound(state, a, b + 3.0 * span, n, delta)
    if abs(lo_wide - lo_base) > rel_tol * max(1.0, abs(lo_base)):
        return True

    hi_base = bounder.rbound(state, a, b, n, delta)
    hi_wide = bounder.rbound(state, a - 3.0 * span, b, n, delta)
    return abs(hi_wide - hi_base) > rel_tol * max(1.0, abs(hi_base))


def pma_width_gap(
    bounder: ErrorBounder,
    a: float = 0.0,
    b: float = 1.0,
    a_prime: float | None = None,
    m: int = 400,
    n: int = 100_000,
    delta: float = _DEFAULT_DELTA,
) -> float:
    """Literal Definition 2 experiment: width(S) − width(S′).

    ``S`` spreads ``m`` values over ``[a, a')`` and ``S'`` clips them all up
    to ``a'``.  A gap of zero means the bounder ignored the milder evidence
    (Hoeffding); a positive gap means the CI tightened (Bernstein,
    Anderson on spread witnesses).
    """
    if a_prime is None:
        a_prime = a + 0.25 * (b - a)
    sample = np.linspace(a, a_prime, m, endpoint=False)
    clipped = np.maximum(sample, a_prime)
    width_orig = _two_sided_width(bounder, sample, a, b, n, delta)
    width_clip = _two_sided_width(bounder, clipped, a, b, n, delta)
    return width_orig - width_clip


def _two_sided_width(
    bounder: ErrorBounder, values: np.ndarray, a: float, b: float, n: int, delta: float
) -> float:
    """Raw (unclipped) two-sided width, δ/2 per side.

    The detectors deliberately bypass ``confidence_interval``'s [a, b]
    clipping: Definition 2/3 concern the *bounding formulas*, and clipping
    would make even Hoeffding's width spuriously value-dependent whenever
    a bound crosses a range endpoint.
    """
    state = _state_from(bounder, values)
    half = delta / 2.0
    return bounder.rbound(state, a, b, n, half) - bounder.lbound(state, a, b, n, half)


def exhibits_pma(
    bounder: ErrorBounder,
    a: float = 0.0,
    b: float = 1.0,
    delta: float = _DEFAULT_DELTA,
    sample_sizes: tuple[int, ...] = (1_000, 16_000, 256_000),
) -> bool:
    """Asymptotic endpoint-mass test reproducing Table 2 (see module doc).

    On near-zero-spread samples at the range center, the normalized width
    ``width · √m / (b − a)`` of a PMA bounder stays bounded away from zero
    as ``m`` grows (it keeps parking Θ(1/√m) mass at the endpoints), while a
    PMA-free bounder's normalized width vanishes.  We declare PMA when the
    normalized width fails to shrink by at least 2× per 16× sample-size
    step (a √m-rate bounder shrinks by exactly 1×, an m-rate bounder by 4×).
    """
    center = 0.5 * (a + b)
    spread = 1e-9 * (b - a)
    normalized = []
    for m in sample_sizes:
        sample = np.linspace(center - spread, center + spread, m)
        n = 100 * m  # keep the sampling fraction small and constant
        width = _two_sided_width(bounder, sample, a, b, n, delta)
        normalized.append(width * np.sqrt(m) / (b - a))
    for prev, curr in zip(normalized, normalized[1:]):
        if curr > prev / 2.0:
            return True
    return False
