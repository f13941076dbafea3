"""Row predicates for filters (WHERE clauses).

Predicates are small composable AST nodes evaluated vectorized against a
:class:`~repro.fastframe.table.Table` — either over the whole table (exact
execution) or over a slice of row indices (block-at-a-time approximate
execution).  Equality/membership predicates over categorical columns
additionally expose their matched dictionary codes so the scan strategies
can consult block bitmap indexes to skip blocks that cannot satisfy the
filter (§4.3, and the Scan strategy note in §5.2).

Predicates compare and hash by value: two separately parsed
``Origin = 'ORD'`` filters are equal, so a window frame evaluates their
mask once (:meth:`~repro.fastframe.window.WindowFrame.predicate_mask`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.fastframe.table import Table, row_count

__all__ = ["Predicate", "Eq", "In", "Compare", "And", "Or", "Not", "TruePredicate"]


class Predicate(ABC):
    """Boolean row filter."""

    @abstractmethod
    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        """Boolean mask of matching rows (over ``rows`` or the full table)."""

    def categorical_requirements(self, table: Table) -> dict[str, set[int]]:
        """Per-column sets of dictionary codes any matching row *must* have.

        Used for bitmap-based block skipping: a block can be skipped when,
        for some required column, none of its required codes appear in the
        block.  Only conjunctive requirements are reported (a disjunction's
        branches are unioned per column only when both branches constrain
        the same column); returning ``{}`` simply disables skipping, never
        soundness.
        """
        return {}

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)

    def _identity(self) -> tuple | None:
        """The fields that decide which rows match, for value equality.

        ``None`` (the default) keeps object identity, so a predicate class
        that does not name its fields never shares a mask with another
        instance.
        """
        return None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        key = self._identity()
        return key is not None and key == other._identity()

    def __hash__(self) -> int:
        # Hashed once per window by the frame's mask memo: computed once.
        try:
            return self._hash
        except AttributeError:
            key = self._identity()
            self._hash = id(self) if key is None else hash((type(self).__name__, key))
            return self._hash


def _column_slice(table: Table, name: str, rows: slice | np.ndarray | None) -> np.ndarray:
    from repro.fastframe.catalog import ColumnKind

    if table.column_kind(name) is ColumnKind.CATEGORICAL:
        values = table.categorical(name).codes
    else:
        values = table.continuous(name)
    if rows is None:
        return values
    return values[rows]


class TruePredicate(Predicate):
    """The always-true filter (queries without a WHERE clause)."""

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        return np.ones(row_count(table.num_rows, rows), dtype=bool)

    def _identity(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "TRUE"


class Eq(Predicate):
    """``column = value`` over a categorical column (e.g. Origin = 'ORD')."""

    def __init__(self, column: str, value) -> None:
        self.column = column
        self.value = value
        self._resolved: tuple[object, int] | None = None

    def _code(self, table: Table) -> int:
        # Resolve the dictionary code once per column *object*: the scan
        # loop calls mask() per window, and re-resolving was O(windows).
        # Keyed by identity (a held reference, so ids cannot be recycled);
        # appends replace the column object, invalidating the cache.
        column = table.categorical(self.column)
        cached = self._resolved
        if cached is not None and cached[0] is column:
            return cached[1]
        code = column.code_of(self.value)
        self._resolved = (column, code)
        return code

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        codes = _column_slice(table, self.column, rows)
        return codes == self._code(table)

    def categorical_requirements(self, table: Table) -> dict[str, set[int]]:
        return {self.column: {self._code(table)}}

    def _identity(self) -> tuple:
        return (self.column, self.value)

    def __repr__(self) -> str:
        return f"{self.column} = {self.value!r}"


class In(Predicate):
    """``column IN (values…)`` over a categorical column."""

    def __init__(self, column: str, values) -> None:
        self.column = column
        self.values = tuple(values)
        if not self.values:
            raise ValueError("IN predicate requires at least one value")
        self._resolved: tuple[object, set[int], np.ndarray] | None = None

    def _resolve(self, table: Table) -> tuple[set[int], np.ndarray]:
        # Same per-column-object memoization as Eq._code (identity-keyed,
        # invalidated automatically when appends rebuild the column).
        column = table.categorical(self.column)
        cached = self._resolved
        if cached is not None and cached[0] is column:
            return cached[1], cached[2]
        codes = {column.code_of(value) for value in self.values}
        sorted_codes = np.array(sorted(codes), dtype=np.int64)
        self._resolved = (column, codes, sorted_codes)
        return codes, sorted_codes

    def _codes(self, table: Table) -> set[int]:
        return self._resolve(table)[0]

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        codes = _column_slice(table, self.column, rows)
        return np.isin(codes, self._resolve(table)[1])

    def categorical_requirements(self, table: Table) -> dict[str, set[int]]:
        return {self.column: self._codes(table)}

    def _identity(self) -> tuple:
        return (self.column, self.values)

    def __repr__(self) -> str:
        return f"{self.column} IN {self.values!r}"


class Compare(Predicate):
    """``column <op> threshold`` over a continuous column (e.g. DepTime > 1050).

    Supported operators: ``">"``, ``">="``, ``"<"``, ``"<="``.
    """

    _OPS = {
        ">": np.greater,
        ">=": np.greater_equal,
        "<": np.less,
        "<=": np.less_equal,
    }

    def __init__(self, column: str, op: str, threshold: float) -> None:
        if op not in self._OPS:
            raise ValueError(f"unsupported operator {op!r}; expected one of {sorted(self._OPS)}")
        self.column = column
        self.op = op
        self.threshold = float(threshold)

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        values = _column_slice(table, self.column, rows)
        return self._OPS[self.op](values, self.threshold)

    def _identity(self) -> tuple:
        return (self.column, self.op, self.threshold)

    def __repr__(self) -> str:
        return f"{self.column} {self.op} {self.threshold}"


class And(Predicate):
    """Conjunction of predicates."""

    def __init__(self, *parts: Predicate) -> None:
        if not parts:
            raise ValueError("And requires at least one part")
        self.parts = parts

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        result = self.parts[0].mask(table, rows)
        for part in self.parts[1:]:
            result &= part.mask(table, rows)
        return result

    def categorical_requirements(self, table: Table) -> dict[str, set[int]]:
        # A conjunction inherits every conjunct's requirement; if two
        # conjuncts constrain the same column, any matching row must carry
        # a code from *each* set, so the intersection is required.
        merged: dict[str, set[int]] = {}
        for part in self.parts:
            for column, codes in part.categorical_requirements(table).items():
                merged[column] = merged[column] & codes if column in merged else set(codes)
        return merged

    def _identity(self) -> tuple:
        return self.parts

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Disjunction of predicates."""

    def __init__(self, *parts: Predicate) -> None:
        if not parts:
            raise ValueError("Or requires at least one part")
        self.parts = parts

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        result = self.parts[0].mask(table, rows)
        for part in self.parts[1:]:
            result |= part.mask(table, rows)
        return result

    def categorical_requirements(self, table: Table) -> dict[str, set[int]]:
        # Sound only when every branch constrains a column: a matching row
        # satisfies some branch, hence carries a code from that branch's
        # set, hence from the union.  If any branch leaves the column
        # unconstrained, no requirement can be claimed.
        requirements = [part.categorical_requirements(table) for part in self.parts]
        shared = set.intersection(*(set(req) for req in requirements)) if requirements else set()
        return {
            column: set.union(*(req[column] for req in requirements))
            for column in shared
        }

    def _identity(self) -> tuple:
        return self.parts

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class Not(Predicate):
    """Negation of a predicate (no block-skipping requirements claimable)."""

    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def mask(self, table: Table, rows: slice | np.ndarray | None = None) -> np.ndarray:
        return ~self.inner.mask(table, rows)

    def _identity(self) -> tuple:
        return (self.inner,)

    def __repr__(self) -> str:
        return f"NOT ({self.inner!r})"
