"""Expression AST for aggregates over arbitrary column expressions.

Appendix B of the paper: to compute CIs for ``AVG(f(c1, …, cn))`` with a
range-based bounder, it suffices to derive range bounds

    [ inf f over the box  ∏ [a_i, b_i],   sup f over the box ]

from the per-column catalog bounds.  This module provides the expression
nodes (columns, constants, arithmetic, and a few transcendental functions)
with three capabilities:

* vectorized evaluation against a table's rows;
* **interval arithmetic** — always-sound enclosures of the expression over
  a box (the fallback when neither of Appendix B's structural conditions
  is detected);
* structural metadata (monotonicity per column, convexity atoms) consumed
  by :mod:`repro.expressions.bounds` to tighten the enclosure using the
  appendix's monotone-corner and convex-optimization strategies.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from repro.fastframe.catalog import RangeBounds
from repro.fastframe.table import row_count

__all__ = ["Expression", "Col", "Const", "col"]


class Expression(ABC):
    """A real-valued expression over continuous table columns."""

    @abstractmethod
    def evaluate(self, table, rows=None) -> np.ndarray:
        """Vectorized evaluation against table rows (all rows if None)."""

    @abstractmethod
    def evaluate_point(self, point: Mapping[str, float]) -> float:
        """Evaluate at a single assignment of column values."""

    @abstractmethod
    def interval(self, bounds: Mapping[str, RangeBounds]) -> RangeBounds:
        """Interval-arithmetic enclosure over the per-column box."""

    @abstractmethod
    def columns(self) -> frozenset[str]:
        """The set of columns the expression references."""

    def range_bounds(self, bounds: Mapping[str, RangeBounds]) -> RangeBounds:
        """Derived range bounds per Appendix B (delegates to
        :func:`repro.expressions.bounds.derive_range_bounds`)."""
        from repro.expressions.bounds import derive_range_bounds

        return derive_range_bounds(self, bounds)

    # -- operator sugar -------------------------------------------------

    def _lift(self, other) -> "Expression":
        if isinstance(other, Expression):
            return other
        return Const(float(other))

    def __add__(self, other) -> "Expression":
        return Add(self, self._lift(other))

    def __radd__(self, other) -> "Expression":
        return Add(self._lift(other), self)

    def __sub__(self, other) -> "Expression":
        return Sub(self, self._lift(other))

    def __rsub__(self, other) -> "Expression":
        return Sub(self._lift(other), self)

    def __mul__(self, other) -> "Expression":
        return Mul(self, self._lift(other))

    def __rmul__(self, other) -> "Expression":
        return Mul(self._lift(other), self)

    def __truediv__(self, other) -> "Expression":
        return Div(self, self._lift(other))

    def __rtruediv__(self, other) -> "Expression":
        return Div(self._lift(other), self)

    def __pow__(self, exponent: int) -> "Expression":
        return Pow(self, int(exponent))

    def __neg__(self) -> "Expression":
        return Neg(self)


class Col(Expression):
    """A reference to a continuous column."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, table, rows=None) -> np.ndarray:
        values = table.continuous(self.name)
        return values if rows is None else values[rows]

    def evaluate_point(self, point: Mapping[str, float]) -> float:
        return float(point[self.name])

    def interval(self, bounds: Mapping[str, RangeBounds]) -> RangeBounds:
        return bounds[self.name]

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return self.name


def col(name: str) -> Col:
    """Convenience constructor: ``col("DepDelay") * 2 + 5``."""
    return Col(name)


class Const(Expression):
    """A numeric literal."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def evaluate(self, table, rows=None) -> np.ndarray:
        return np.full(row_count(table.num_rows, rows), self.value)

    def evaluate_point(self, point: Mapping[str, float]) -> float:
        return self.value

    def interval(self, bounds: Mapping[str, RangeBounds]) -> RangeBounds:
        return RangeBounds(self.value, self.value)

    def columns(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return repr(self.value)


class _Binary(Expression):
    symbol = "?"

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Add(_Binary):
    symbol = "+"

    def evaluate(self, table, rows=None) -> np.ndarray:
        return self.left.evaluate(table, rows) + self.right.evaluate(table, rows)

    def evaluate_point(self, point) -> float:
        return self.left.evaluate_point(point) + self.right.evaluate_point(point)

    def interval(self, bounds) -> RangeBounds:
        lhs, rhs = self.left.interval(bounds), self.right.interval(bounds)
        return RangeBounds(lhs.a + rhs.a, lhs.b + rhs.b)


class Sub(_Binary):
    symbol = "-"

    def evaluate(self, table, rows=None) -> np.ndarray:
        return self.left.evaluate(table, rows) - self.right.evaluate(table, rows)

    def evaluate_point(self, point) -> float:
        return self.left.evaluate_point(point) - self.right.evaluate_point(point)

    def interval(self, bounds) -> RangeBounds:
        lhs, rhs = self.left.interval(bounds), self.right.interval(bounds)
        return RangeBounds(lhs.a - rhs.b, lhs.b - rhs.a)


class Mul(_Binary):
    symbol = "*"

    def evaluate(self, table, rows=None) -> np.ndarray:
        return self.left.evaluate(table, rows) * self.right.evaluate(table, rows)

    def evaluate_point(self, point) -> float:
        return self.left.evaluate_point(point) * self.right.evaluate_point(point)

    def interval(self, bounds) -> RangeBounds:
        lhs, rhs = self.left.interval(bounds), self.right.interval(bounds)
        corners = (lhs.a * rhs.a, lhs.a * rhs.b, lhs.b * rhs.a, lhs.b * rhs.b)
        return RangeBounds(min(corners), max(corners))


class Div(_Binary):
    symbol = "/"

    def evaluate(self, table, rows=None) -> np.ndarray:
        return self.left.evaluate(table, rows) / self.right.evaluate(table, rows)

    def evaluate_point(self, point) -> float:
        return self.left.evaluate_point(point) / self.right.evaluate_point(point)

    def interval(self, bounds) -> RangeBounds:
        lhs, rhs = self.left.interval(bounds), self.right.interval(bounds)
        if rhs.a <= 0.0 <= rhs.b:
            raise ValueError(
                f"cannot bound division: denominator range [{rhs.a}, {rhs.b}] "
                "contains zero"
            )
        corners = (lhs.a / rhs.a, lhs.a / rhs.b, lhs.b / rhs.a, lhs.b / rhs.b)
        return RangeBounds(min(corners), max(corners))


class Pow(Expression):
    """Integer power (Example 1's ``(2c1 + 3c2 − 1)²`` shape)."""

    def __init__(self, base: Expression, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("negative exponents are not supported; use Div")
        self.base = base
        self.exponent = exponent

    def evaluate(self, table, rows=None) -> np.ndarray:
        return self.base.evaluate(table, rows) ** self.exponent

    def evaluate_point(self, point) -> float:
        return self.base.evaluate_point(point) ** self.exponent

    def interval(self, bounds) -> RangeBounds:
        inner = self.base.interval(bounds)
        lo, hi = inner.a ** self.exponent, inner.b ** self.exponent
        if self.exponent % 2 == 0:
            if inner.a <= 0.0 <= inner.b:
                return RangeBounds(0.0, max(lo, hi))
            return RangeBounds(min(lo, hi), max(lo, hi))
        return RangeBounds(lo, hi)

    def columns(self) -> frozenset[str]:
        return self.base.columns()

    def __repr__(self) -> str:
        return f"({self.base!r} ** {self.exponent})"


class Neg(Expression):
    """Unary negation."""

    def __init__(self, inner: Expression) -> None:
        self.inner = inner

    def evaluate(self, table, rows=None) -> np.ndarray:
        return -self.inner.evaluate(table, rows)

    def evaluate_point(self, point) -> float:
        return -self.inner.evaluate_point(point)

    def interval(self, bounds) -> RangeBounds:
        inner = self.inner.interval(bounds)
        return RangeBounds(-inner.b, -inner.a)

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"(-{self.inner!r})"


class _Unary(Expression):
    """Base for monotone unary transcendental functions."""

    func_name = "?"
    _np_func = None

    def __init__(self, inner: Expression) -> None:
        self.inner = inner

    def evaluate(self, table, rows=None) -> np.ndarray:
        return type(self)._np_func(self.inner.evaluate(table, rows))

    def evaluate_point(self, point) -> float:
        return float(type(self)._np_func(self.inner.evaluate_point(point)))

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.func_name}({self.inner!r})"


class Exp(_Unary):
    """``exp(x)`` — increasing and convex."""

    func_name = "exp"
    _np_func = staticmethod(np.exp)

    def interval(self, bounds) -> RangeBounds:
        inner = self.inner.interval(bounds)
        return RangeBounds(math.exp(inner.a), math.exp(inner.b))


class Log(_Unary):
    """``log(x)`` — increasing and concave; domain must be positive."""

    func_name = "log"
    _np_func = staticmethod(np.log)

    def interval(self, bounds) -> RangeBounds:
        inner = self.inner.interval(bounds)
        if inner.a <= 0.0:
            raise ValueError(f"log requires a positive domain, got [{inner.a}, {inner.b}]")
        return RangeBounds(math.log(inner.a), math.log(inner.b))


class Abs(_Unary):
    """``|x|`` — convex."""

    func_name = "abs"
    _np_func = staticmethod(np.abs)

    def interval(self, bounds) -> RangeBounds:
        inner = self.inner.interval(bounds)
        if inner.a <= 0.0 <= inner.b:
            return RangeBounds(0.0, max(abs(inner.a), abs(inner.b)))
        lo, hi = abs(inner.a), abs(inner.b)
        return RangeBounds(min(lo, hi), max(lo, hi))


# ---------------------------------------------------------------------------
# Structural certificates (consumed by repro.expressions.bounds)
# ---------------------------------------------------------------------------
#
# ``monotone_directions`` returns, per referenced column, +1 (non-decreasing
# over the box), -1 (non-increasing), or 0 (no dependence); it returns None
# when monotonicity cannot be *certified* symbolically.  ``curvature``
# returns "affine", "convex", or "concave" when certifiable, else None.
# Both certificates are conservative: a None merely loses tightness in the
# derived bounds, never soundness.


def _merge_directions(lhs, rhs):
    """Combine per-column directions of two summands; None on conflict."""
    if lhs is None or rhs is None:
        return None
    merged = dict(lhs)
    for name, direction in rhs.items():
        if name not in merged or merged[name] == 0:
            merged[name] = direction
        elif direction != 0 and direction != merged[name]:
            return None
    return merged


def _flip_directions(directions):
    if directions is None:
        return None
    return {name: -direction for name, direction in directions.items()}


def _flip_curvature(curvature):
    if curvature == "convex":
        return "concave"
    if curvature == "concave":
        return "convex"
    return curvature  # affine and None are self-dual


def _expr_monotone(expr: "Expression", bounds) -> dict | None:
    """Certified per-column monotone directions of ``expr`` over the box."""
    if isinstance(expr, Const):
        return {}
    if isinstance(expr, Col):
        return {expr.name: 1}
    if isinstance(expr, Neg):
        return _flip_directions(_expr_monotone(expr.inner, bounds))
    if isinstance(expr, Add):
        return _merge_directions(
            _expr_monotone(expr.left, bounds), _expr_monotone(expr.right, bounds)
        )
    if isinstance(expr, Sub):
        return _merge_directions(
            _expr_monotone(expr.left, bounds),
            _flip_directions(_expr_monotone(expr.right, bounds)),
        )
    if isinstance(expr, Mul):
        if isinstance(expr.left, Const):
            scale, inner = expr.left.value, expr.right
        elif isinstance(expr.right, Const):
            scale, inner = expr.right.value, expr.left
        else:
            # x * y with both factors sign-definite and monotone is
            # certifiable when everything is non-negative and co-monotone.
            lhs_iv = expr.left.interval(bounds)
            rhs_iv = expr.right.interval(bounds)
            lhs_dir = _expr_monotone(expr.left, bounds)
            rhs_dir = _expr_monotone(expr.right, bounds)
            if (
                lhs_iv.a >= 0.0
                and rhs_iv.a >= 0.0
                and lhs_dir is not None
                and rhs_dir is not None
            ):
                return _merge_directions(lhs_dir, rhs_dir)
            return None
        inner_dir = _expr_monotone(inner, bounds)
        if scale >= 0:
            return inner_dir
        return _flip_directions(inner_dir)
    if isinstance(expr, Div):
        if isinstance(expr.right, Const):
            if expr.right.value == 0.0:
                raise ZeroDivisionError("division by constant zero")
            inner_dir = _expr_monotone(expr.left, bounds)
            return inner_dir if expr.right.value > 0 else _flip_directions(inner_dir)
        return None
    if isinstance(expr, Pow):
        inner_dir = _expr_monotone(expr.base, bounds)
        if inner_dir is None:
            return None
        if expr.exponent % 2 == 1 or expr.exponent == 0:
            return inner_dir if expr.exponent else {}
        inner_iv = expr.base.interval(bounds)
        if inner_iv.a >= 0.0:
            return inner_dir
        if inner_iv.b <= 0.0:
            return _flip_directions(inner_dir)
        return None
    if isinstance(expr, (Exp, Log)):
        return _expr_monotone(expr.inner, bounds)
    if isinstance(expr, Abs):
        inner_iv = expr.inner.interval(bounds)
        inner_dir = _expr_monotone(expr.inner, bounds)
        if inner_iv.a >= 0.0:
            return inner_dir
        if inner_iv.b <= 0.0:
            return _flip_directions(inner_dir)
        return None
    return None


def _expr_curvature(expr: "Expression", bounds) -> str | None:
    """Certified curvature of ``expr`` over the box (composition rules)."""
    if isinstance(expr, (Const, Col)):
        return "affine"
    if isinstance(expr, Neg):
        return _flip_curvature(_expr_curvature(expr.inner, bounds))
    if isinstance(expr, (Add, Sub)):
        lhs = _expr_curvature(expr.left, bounds)
        rhs = _expr_curvature(expr.right, bounds)
        if isinstance(expr, Sub):
            rhs = _flip_curvature(rhs)
        if lhs is None or rhs is None:
            return None
        if lhs == "affine":
            return rhs
        if rhs == "affine" or lhs == rhs:
            return lhs
        return None
    if isinstance(expr, Mul):
        if isinstance(expr.left, Const):
            scale, inner = expr.left.value, expr.right
        elif isinstance(expr.right, Const):
            scale, inner = expr.right.value, expr.left
        else:
            return None
        curvature = _expr_curvature(inner, bounds)
        return curvature if scale >= 0 else _flip_curvature(curvature)
    if isinstance(expr, Div):
        if isinstance(expr.right, Const) and expr.right.value != 0.0:
            curvature = _expr_curvature(expr.left, bounds)
            return curvature if expr.right.value > 0 else _flip_curvature(curvature)
        return None
    if isinstance(expr, Pow):
        base_curv = _expr_curvature(expr.base, bounds)
        if expr.exponent == 0:
            return "affine"
        if expr.exponent == 1:
            return base_curv
        if base_curv != "affine":
            return None
        if expr.exponent % 2 == 0:
            return "convex"  # even power of an affine function
        base_iv = expr.base.interval(bounds)
        if base_iv.a >= 0.0:
            return "convex"
        if base_iv.b <= 0.0:
            return "concave"
        return None
    if isinstance(expr, Exp):
        # exp of affine (or convex) is convex.
        inner = _expr_curvature(expr.inner, bounds)
        return "convex" if inner in ("affine", "convex") else None
    if isinstance(expr, Log):
        # log of affine (or concave) is concave on a positive domain.
        inner = _expr_curvature(expr.inner, bounds)
        return "concave" if inner in ("affine", "concave") else None
    if isinstance(expr, Abs):
        inner = _expr_curvature(expr.inner, bounds)
        return "convex" if inner == "affine" else None
    return None
