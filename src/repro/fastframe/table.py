"""In-memory relational tables with dictionary-encoded categorical columns.

FastFrame is "a general relational column store for approximate report
generation with guarantees" (§4).  :class:`Table` is the loading-time
representation: continuous columns are float64 arrays; categorical columns
are dictionary-encoded to small integer codes with an explicit value
dictionary, which is what the block bitmap indexes and GROUP BY machinery
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fastframe.catalog import Catalog, ColumnKind

__all__ = ["Table", "CategoricalColumn", "row_count"]


def row_count(num_rows: int, rows) -> int:
    """Rows a table of ``num_rows`` rows yields for a row selector:
    ``None`` (all rows), a slice, an index array or a boolean mask."""
    if rows is None:
        return num_rows
    if isinstance(rows, slice):
        return len(range(*rows.indices(num_rows)))
    rows = np.asarray(rows)
    return int(np.count_nonzero(rows)) if rows.dtype == bool else rows.size


@dataclass
class CategoricalColumn:
    """Dictionary-encoded categorical column.

    Attributes
    ----------
    codes:
        int32 array mapping each row to an index into ``dictionary``.
    dictionary:
        The distinct values, in code order (``dictionary[codes[i]]`` is the
        original value of row ``i``).
    """

    codes: np.ndarray
    dictionary: tuple

    def __post_init__(self) -> None:
        # O(1) reverse lookup (value -> code); rebuilt whenever a new
        # column instance is constructed (encode / extended / take), so it
        # can never go stale.
        self._code_index = {value: code for code, value in enumerate(self.dictionary)}

    @property
    def cardinality(self) -> int:
        return len(self.dictionary)

    def code_of(self, value) -> int:
        """Dictionary code of ``value``; KeyError if absent.  O(1)."""
        try:
            return self._code_index[value]
        except KeyError:
            raise KeyError(
                f"value {value!r} is not in the column dictionary"
            ) from None

    def decode(self, codes: np.ndarray) -> list:
        """Original values for an array of codes."""
        return [self.dictionary[code] for code in np.asarray(codes)]

    @classmethod
    def encode(cls, values) -> "CategoricalColumn":
        """Dictionary-encode raw values (order of first appearance by sort)."""
        values = np.asarray(values)
        dictionary, codes = np.unique(values, return_inverse=True)
        return cls(codes=codes.astype(np.int32), dictionary=tuple(dictionary.tolist()))

    def extended(self, values) -> "CategoricalColumn":
        """This column with new raw values appended.

        Existing codes stay valid: unseen values are appended to the *end*
        of the dictionary, never reordering it (insertion maintenance —
        bitmap indexes and group domains key on codes).
        """
        dictionary = list(self.dictionary)
        index_of = dict(self._code_index)
        new_codes = np.empty(len(values), dtype=np.int32)
        for position, value in enumerate(values):
            if value not in index_of:
                index_of[value] = len(dictionary)
                dictionary.append(value)
            new_codes[position] = index_of[value]
        return CategoricalColumn(
            codes=np.concatenate([self.codes, new_codes]),
            dictionary=tuple(dictionary),
        )


class Table:
    """A named collection of equal-length columns plus a catalog.

    Parameters
    ----------
    continuous:
        Mapping of column name to float array.
    categorical:
        Mapping of column name to raw values (dictionary-encoded on load)
        or an existing :class:`CategoricalColumn`.
    range_pad:
        Catalog padding fraction applied to every continuous column (see
        :meth:`Catalog.register_continuous`); models conservatively wide
        catalog bounds.
    """

    def __init__(
        self,
        continuous: dict[str, np.ndarray] | None = None,
        categorical: dict[str, object] | None = None,
        range_pad: float = 0.0,
    ) -> None:
        self.catalog = Catalog()
        self._continuous: dict[str, np.ndarray] = {}
        self._categorical: dict[str, CategoricalColumn] = {}
        self._num_rows: int | None = None
        for name, values in (continuous or {}).items():
            self.add_continuous(name, values, pad=range_pad)
        for name, values in (categorical or {}).items():
            self.add_categorical(name, values)

    def _check_length(self, name: str, length: int) -> None:
        if self._num_rows is None:
            self._num_rows = length
        elif length != self._num_rows:
            raise ValueError(
                f"column {name!r} has {length} rows; table has {self._num_rows}"
            )

    def add_continuous(
        self, name: str, values: np.ndarray, pad: float = 0.0, bounds=None
    ) -> None:
        """Add a continuous column, registering catalog range bounds.

        ``bounds`` (a :class:`~repro.fastframe.catalog.RangeBounds`) sets
        explicit catalog bounds — they must enclose the data but may be
        arbitrarily wider (§2.2.1), e.g. the flights generator's
        deliberately outlier-padded delay range.
        """
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError(
                f"column {name!r} contains non-finite values; the paper's "
                "setup eliminates N/A and erroneous rows at load (§5.1)"
            )
        self._check_length(name, values.size)
        self._continuous[name] = values
        self.catalog.register_continuous(name, values, pad=pad, bounds=bounds)

    def add_categorical(self, name: str, values) -> None:
        """Add a categorical column (dictionary-encoding raw values)."""
        column = (
            values
            if isinstance(values, CategoricalColumn)
            else CategoricalColumn.encode(values)
        )
        self._check_length(name, column.codes.size)
        self._categorical[name] = column
        self.catalog.register_categorical(name)

    @property
    def num_rows(self) -> int:
        return self._num_rows or 0

    def continuous(self, name: str) -> np.ndarray:
        """Values of a continuous column."""
        if name not in self._continuous:
            raise KeyError(f"no continuous column {name!r}; have {sorted(self._continuous)}")
        return self._continuous[name]

    def categorical(self, name: str) -> CategoricalColumn:
        """A categorical column (codes + dictionary)."""
        if name not in self._categorical:
            raise KeyError(f"no categorical column {name!r}; have {sorted(self._categorical)}")
        return self._categorical[name]

    def column_kind(self, name: str) -> ColumnKind:
        return self.catalog.kind(name)

    def columns(self) -> tuple[str, ...]:
        return tuple(self._continuous) + tuple(self._categorical)

    def append_rows(
        self,
        continuous: dict[str, np.ndarray] | None = None,
        categorical: dict[str, object] | None = None,
    ) -> int:
        """Append rows, widening catalog bounds as §2.2.1's maintenance rule.

        Every column of the table must be supplied and row counts must
        agree.  Returns the number of rows appended.  Catalog bounds only
        grow (``Catalog.widen``), so CIs issued before the insert remain
        valid for the old data.
        """
        continuous = continuous or {}
        categorical = categorical or {}
        supplied = set(continuous) | set(categorical)
        expected = set(self._continuous) | set(self._categorical)
        if supplied != expected:
            raise ValueError(
                f"append must supply every column; missing {sorted(expected - supplied)}, "
                f"unexpected {sorted(supplied - expected)}"
            )
        lengths = {
            len(np.atleast_1d(np.asarray(values)))
            for values in list(continuous.values()) + list(categorical.values())
        }
        if len(lengths) != 1:
            raise ValueError(f"appended columns have differing lengths: {sorted(lengths)}")
        (added,) = lengths
        if added == 0:
            return 0
        for name, values in continuous.items():
            values = np.asarray(values, dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise ValueError(f"appended column {name!r} contains non-finite values")
            self._continuous[name] = np.concatenate([self._continuous[name], values])
            self.catalog.widen(name, values)
        for name, values in categorical.items():
            self._categorical[name] = self._categorical[name].extended(
                np.atleast_1d(np.asarray(values, dtype=object)).tolist()
            )
        self._num_rows = (self._num_rows or 0) + added
        return added

    def swap_rows(self, i: int, j: int) -> None:
        """Swap two rows in place (scramble insertion maintenance)."""
        if i == j:
            return
        for values in self._continuous.values():
            values[i], values[j] = values[j], values[i]
        for column in self._categorical.values():
            codes = column.codes
            codes[i], codes[j] = codes[j], codes[i]

    def take(self, indices: np.ndarray) -> "Table":
        """A new table holding the given rows (used to build scrambles).

        Catalog range bounds are copied from this table rather than
        re-inferred, so deliberately padded bounds survive permutation.
        """
        result = Table()
        for name, values in self._continuous.items():
            taken = values[indices]
            result._check_length(name, taken.size)
            result._continuous[name] = taken
            result.catalog.register_continuous(name, taken, bounds=self.catalog.bounds(name))
        for name, column in self._categorical.items():
            result.add_categorical(
                name,
                CategoricalColumn(codes=column.codes[indices], dictionary=column.dictionary),
            )
        return result
