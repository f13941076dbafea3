"""Derived range bounds for expressions (Appendix B).

Appendix B derives ``[inf f, sup f]`` over the per-column box under two
structural conditions, plus a general fallback:

1. **Monotone in each column** — pick, per column, the endpoint that
   minimizes (resp. maximizes) ``f`` and evaluate at the two resulting
   corners; exact when monotonicity holds.
2. **Convex (or concave)** — the maximum of a convex ``f`` over a box is
   attained at one of the 2ⁿ corners ("database aggregates over
   expressions typically do not involve more than 2 or 3 columns, and any
   n ≤ 20 or so can be handled without trouble"); the minimum is found by
   box-constrained numerical optimization (scipy L-BFGS-B standing in for
   the appendix's off-the-shelf convex solver — any local minimum of a
   convex function over a box is global).
3. **Interval arithmetic** — always-sound but potentially loose enclosure.

Soundness discipline: the structural strategies are applied only when the
corresponding property is *certified symbolically* on the expression AST
(:func:`repro.expressions.expr._expr_monotone` /
:func:`~repro.expressions.expr._expr_curvature` — conservative composition
rules that return "unknown" rather than guess).  An uncertifiable
expression falls back to the interval enclosure, losing only tightness.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from repro.expressions.expr import Expression, _expr_curvature, _expr_monotone
from repro.fastframe.catalog import RangeBounds

__all__ = [
    "derive_range_bounds",
    "corner_values",
    "monotone_corner_bounds",
    "box_minimum",
    "box_maximum",
    "MAX_CORNER_COLUMNS",
]

#: Appendix B: corner enumeration is feasible for "any n <= 20 or so".
MAX_CORNER_COLUMNS = 20

#: Relative safety margin applied to numerically optimized bounds so that
#: solver tolerance cannot tip a true enclosure into an unsound one.
_NUMERIC_MARGIN = 1e-9


def corner_values(
    expr: Expression, bounds: Mapping[str, RangeBounds]
) -> tuple[float, float]:
    """Min and max of ``f`` over the 2ⁿ corners of the box.

    Exact range for per-column-monotone ``f``; exact *maximum* for convex
    ``f`` (and exact minimum for concave ``f``).
    """
    columns = sorted(expr.columns())
    if len(columns) > MAX_CORNER_COLUMNS:
        raise ValueError(
            f"corner enumeration over {len(columns)} columns exceeds "
            f"{MAX_CORNER_COLUMNS} (2^n corners)"
        )
    lo = np.inf
    hi = -np.inf
    for corner in itertools.product((0, 1), repeat=len(columns)):
        point = {
            name: (bounds[name].a if bit == 0 else bounds[name].b)
            for name, bit in zip(columns, corner)
        }
        value = expr.evaluate_point(point)
        lo = min(lo, value)
        hi = max(hi, value)
    return float(lo), float(hi)


def monotone_corner_bounds(
    expr: Expression,
    bounds: Mapping[str, RangeBounds],
    directions: Mapping[str, int],
) -> RangeBounds:
    """Exact range of a certified per-column-monotone expression.

    Two evaluations: the all-minimizing corner and the all-maximizing one
    (per column, direction +1 means the lower endpoint minimizes).
    """
    low_point = {}
    high_point = {}
    for name in expr.columns():
        direction = directions.get(name, 0)
        box = bounds[name]
        if direction >= 0:
            low_point[name], high_point[name] = box.a, box.b
        else:
            low_point[name], high_point[name] = box.b, box.a
    return RangeBounds(
        expr.evaluate_point(low_point), expr.evaluate_point(high_point)
    )


def _optimize_box(
    expr: Expression,
    bounds: Mapping[str, RangeBounds],
    maximize: bool,
    starts: int,
    seed: int,
) -> float:
    # Imported here: only the convex/concave branch needs scipy, and
    # loading it costs ``import repro.api`` about half a second.
    from scipy import optimize

    columns = sorted(expr.columns())
    if not columns:
        return expr.evaluate_point({})
    box = [(bounds[name].a, bounds[name].b) for name in columns]
    sign = -1.0 if maximize else 1.0

    def objective(x: np.ndarray) -> float:
        return sign * expr.evaluate_point(dict(zip(columns, x)))

    rng = np.random.default_rng(seed)
    best = np.inf
    for start in range(starts):
        if start == 0:
            x0 = np.array([0.5 * (lo + hi) for lo, hi in box])
        else:
            x0 = np.array([rng.uniform(lo, hi) for lo, hi in box])
        result = optimize.minimize(objective, x0, bounds=box, method="L-BFGS-B")
        best = min(best, float(result.fun))
    return sign * best


def box_minimum(
    expr: Expression,
    bounds: Mapping[str, RangeBounds],
    starts: int = 4,
    seed: int = 0,
) -> float:
    """Numerical box-constrained minimum (global for convex ``f``)."""
    return _optimize_box(expr, bounds, maximize=False, starts=starts, seed=seed)


def box_maximum(
    expr: Expression,
    bounds: Mapping[str, RangeBounds],
    starts: int = 4,
    seed: int = 0,
) -> float:
    """Numerical box-constrained maximum (global for concave ``f``)."""
    return _optimize_box(expr, bounds, maximize=True, starts=starts, seed=seed)


def _pad_down(value: float) -> float:
    return value - _NUMERIC_MARGIN * (1.0 + abs(value))


def _pad_up(value: float) -> float:
    return value + _NUMERIC_MARGIN * (1.0 + abs(value))


def derive_range_bounds(
    expr: Expression, bounds: Mapping[str, RangeBounds]
) -> RangeBounds:
    """Derived range bounds ``[a', b'] ⊇ [inf f, sup f]`` (Appendix B).

    Dispatch order:

    1. certified per-column monotone → exact two-corner range;
    2. certified convex → corner maximum (exact) + numerically optimized,
       safety-padded minimum, intersected with the interval enclosure;
    3. certified concave → the mirror image;
    4. otherwise → interval-arithmetic enclosure.

    Example 1 of the appendix: ``(2·c1 + 3·c2 − 1)²`` with
    ``c1 ∈ [−3, 1], c2 ∈ [−1, 3]`` derives ``[0, 100]``.
    """
    missing = expr.columns() - set(bounds)
    if missing:
        raise KeyError(f"missing range bounds for columns: {sorted(missing)}")
    enclosure = expr.interval(bounds)
    if not expr.columns():
        return enclosure
    few_columns = len(expr.columns()) <= MAX_CORNER_COLUMNS

    directions = _expr_monotone(expr, bounds)
    if directions is not None:
        return monotone_corner_bounds(expr, bounds, directions)

    curvature = _expr_curvature(expr, bounds)
    if curvature == "convex" and few_columns:
        _, corner_hi = corner_values(expr, bounds)
        numeric_lo = _pad_down(box_minimum(expr, bounds))
        return RangeBounds(
            min(max(enclosure.a, numeric_lo), corner_hi),
            min(enclosure.b, corner_hi),
        )
    if curvature == "concave" and few_columns:
        corner_lo, _ = corner_values(expr, bounds)
        numeric_hi = _pad_up(box_maximum(expr, bounds))
        return RangeBounds(
            max(enclosure.a, corner_lo),
            max(min(enclosure.b, numeric_hi), corner_lo),
        )
    return enclosure
