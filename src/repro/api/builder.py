"""Fluent query construction for the connection front-end.

``conn.table()`` starts a :class:`QueryBuilder`; chained calls narrow it
and the aggregate terminal returns a lazy
:class:`~repro.api.connection.QueryHandle`::

    handle = (
        conn.table()
        .where("Origin", "ORD")
        .group_by("Airline")
        .avg("DepDelay", rel=0.05)
    )

Builders are immutable — every call returns a new builder — so a common
prefix can be forked into several handles for one ``gather()`` batch.

The aggregate terminals accept exactly one stopping specifier, mirroring
the paper's conditions Ê–Ï (§4.2):

=====================  =======================================================
keyword                stopping condition
=====================  =======================================================
``samples=m``          Ê :class:`~repro.stopping.conditions.SamplesTaken`
``abs=eps``            Ë :class:`~repro.stopping.conditions.AbsoluteAccuracy`
``rel=eps``            Ì :class:`~repro.stopping.conditions.RelativeAccuracy`
``above=t``/``below``  Í :class:`~repro.stopping.conditions.ThresholdSide`
``top=k``/``bottom``   Î :class:`~repro.stopping.conditions.TopKSeparated`
``ordered=True``       Ï :class:`~repro.stopping.conditions.GroupsOrdered`
``stopping=cond``      any custom :class:`StoppingCondition` (it needs only
                       ``active_mask``)
=====================  =======================================================

``samples=``, ``top=`` and ``bottom=`` take positive integers; ``rel=`` and
``abs=`` positive numbers; ``above=`` / ``below=`` any real threshold.  A
bool, or a value of the wrong kind, raises rather than being coerced.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING

from repro.fastframe.predicate import And, Compare, Eq, Predicate
from repro.fastframe.query import AggregateFunction, Query
from repro.stopping.conditions import (
    AbsoluteAccuracy,
    GroupsOrdered,
    RelativeAccuracy,
    SamplesTaken,
    StoppingCondition,
    ThresholdSide,
    TopKSeparated,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.connection import Connection, QueryHandle

__all__ = ["QueryBuilder"]

_COMPARE_OPS = ("<", "<=", ">", ">=")


class QueryBuilder:
    """Immutable fluent builder producing lazy query handles."""

    def __init__(
        self,
        connection: "Connection",
        predicate: Predicate | None = None,
        group_columns: tuple[str, ...] = (),
        label: str = "",
    ) -> None:
        self._connection = connection
        self._predicate = predicate
        self._group_columns = group_columns
        self._label = label

    def _fork(self, **changes) -> "QueryBuilder":
        state = {
            "predicate": self._predicate,
            "group_columns": self._group_columns,
            "label": self._label,
        }
        state.update(changes)
        return QueryBuilder(self._connection, **state)

    # ------------------------------------------------------------------
    # Narrowing
    # ------------------------------------------------------------------

    def where(self, *condition) -> "QueryBuilder":
        """Add a WHERE conjunct.

        Three shapes are accepted::

            .where(predicate)              # any repro.fastframe Predicate
            .where("Origin", "ORD")        # categorical equality
            .where("DepTime", ">=", 600)   # continuous comparison

        Repeated calls AND together.
        """
        if len(condition) == 1 and isinstance(condition[0], Predicate):
            clause = condition[0]
        elif len(condition) == 2:
            clause = Eq(condition[0], condition[1])
        elif len(condition) == 3 and condition[1] in _COMPARE_OPS:
            clause = Compare(condition[0], condition[1], float(condition[2]))
        else:
            raise TypeError(
                "where() takes a Predicate, (column, value), or "
                f"(column, op, value) with op in {_COMPARE_OPS}; got "
                f"{condition!r}"
            )
        combined = (
            clause if self._predicate is None else And(self._predicate, clause)
        )
        return self._fork(predicate=combined)

    def group_by(self, *columns: str) -> "QueryBuilder":
        """GROUP BY the given categorical columns."""
        return self._fork(group_columns=self._group_columns + columns)

    def named(self, label: str) -> "QueryBuilder":
        """Attach an experiment/ledger label to the query."""
        return self._fork(label=label)

    # ------------------------------------------------------------------
    # Aggregate terminals (each returns a lazy handle)
    # ------------------------------------------------------------------

    def avg(self, column, **stop) -> "QueryHandle":
        """AVG over a continuous column (or expression); see class docs
        for the stopping keywords."""
        return self._handle(AggregateFunction.AVG, column, stop)

    def sum(self, column, **stop) -> "QueryHandle":
        """SUM over a continuous column (or expression)."""
        return self._handle(AggregateFunction.SUM, column, stop)

    def count(self, **stop) -> "QueryHandle":
        """COUNT(*) of the (filtered, grouped) view."""
        return self._handle(AggregateFunction.COUNT, None, stop)

    def median(self, column, **stop) -> "QueryHandle":
        """Certified MEDIAN of a continuous column (DKW-band inversion)."""
        return self._handle(AggregateFunction.MEDIAN, column, stop)

    def percentile(self, column, p: float, **stop) -> "QueryHandle":
        """Certified ``p``-quantile of a continuous column, ``p`` in (0, 1)."""
        return self._handle(
            AggregateFunction.PERCENTILE, column, stop, percentile=float(p)
        )

    # ------------------------------------------------------------------

    def _handle(
        self,
        aggregate: AggregateFunction,
        column,
        stop: dict,
        percentile: float | None = None,
    ) -> "QueryHandle":
        query = Query(
            aggregate,
            column,
            _stopping_from(stop),
            group_by=self._group_columns,
            percentile=percentile,
            name=self._label,
            **({} if self._predicate is None else {"predicate": self._predicate}),
        )
        return self._connection.query(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self._predicate is not None:
            parts.append(f"where={self._predicate!r}")
        if self._group_columns:
            parts.append(f"group_by={self._group_columns!r}")
        return f"QueryBuilder({', '.join(parts)})"


def _stopping_from(stop: dict) -> StoppingCondition:
    """Resolve the aggregate terminal's stopping keywords (exactly one).

    Values are checked, never coerced: a count takes an integer, a bound a
    real number, neither a bool, and ``ordered=`` only ``True``.
    """
    spec = {key: value for key, value in stop.items() if value is not None}
    if len(spec) != 1:
        raise TypeError(
            "pass exactly one stopping specifier (rel=, abs=, samples=, "
            f"above=, below=, top=, bottom=, ordered=True, or stopping=); "
            f"got {sorted(spec) or 'none'}"
        )
    key, value = next(iter(spec.items()))
    if key == "stopping":
        if not isinstance(value, StoppingCondition):
            raise TypeError(
                f"stopping= expects a StoppingCondition, got {type(value).__name__}"
            )
        return value
    if key == "ordered":
        if value is not True:
            raise TypeError(f"ordered= takes only True, got {value!r}")
        return GroupsOrdered()
    if key in ("samples", "top", "bottom"):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{key}= takes an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{key}= must be a positive integer, got {value}")
        if key == "samples":
            return SamplesTaken(int(value))
        return TopKSeparated(int(value), largest=(key == "top"))
    if key in ("rel", "abs", "above", "below"):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{key}= takes a number, got {value!r}")
        if key in ("above", "below"):
            return ThresholdSide(float(value))
        if not value > 0.0:
            raise ValueError(f"{key}= must be positive, got {value}")
        if key == "rel":
            return RelativeAccuracy(float(value))
        return AbsoluteAccuracy(float(value))
    raise TypeError(f"unknown stopping specifier {key!r}")
