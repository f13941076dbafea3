"""Tests for insertion maintenance: catalog widening, table appends, and
exchangeability-preserving scramble inserts (§2.2.1)."""

import numpy as np
import pytest

from repro.fastframe import Table
from repro.fastframe.catalog import RangeBounds
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import CategoricalColumn


def _table(rows: int = 100, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        continuous={"x": rng.normal(0.0, 1.0, size=rows)},
        categorical={"g": rng.choice(["a", "b"], size=rows)},
    )


class TestCatalogWiden:
    def test_widens_both_ends(self):
        table = Table(continuous={"x": np.array([1.0, 2.0])})
        table.catalog.widen("x", np.array([-5.0, 10.0]))
        assert table.catalog.bounds("x") == RangeBounds(-5.0, 10.0)

    def test_never_shrinks(self):
        table = Table(continuous={"x": np.array([-10.0, 10.0])})
        table.catalog.widen("x", np.array([0.0]))
        assert table.catalog.bounds("x") == RangeBounds(-10.0, 10.0)

    def test_empty_noop(self):
        table = Table(continuous={"x": np.array([1.0, 2.0])})
        before = table.catalog.bounds("x")
        table.catalog.widen("x", np.array([]))
        assert table.catalog.bounds("x") == before


class TestCategoricalExtend:
    def test_existing_codes_stable(self):
        column = CategoricalColumn.encode(["b", "a", "b"])
        extended = column.extended(["c", "a"])
        assert extended.dictionary[: len(column.dictionary)] == column.dictionary
        np.testing.assert_array_equal(extended.codes[:3], column.codes)

    def test_new_value_appended_to_dictionary(self):
        column = CategoricalColumn.encode(["a", "b"])
        extended = column.extended(["z"])
        assert extended.dictionary == ("a", "b", "z")
        assert extended.codes[-1] == 2

    def test_decode_roundtrip(self):
        column = CategoricalColumn.encode(["x", "y"]).extended(["y", "w", "x"])
        assert column.decode(column.codes) == ["x", "y", "y", "w", "x"]


class TestTableAppend:
    def test_row_count_and_values(self):
        table = _table(rows=10)
        added = table.append_rows(
            continuous={"x": np.array([9.0, -9.0])},
            categorical={"g": ["a", "c"]},
        )
        assert added == 2
        assert table.num_rows == 12
        assert table.continuous("x")[-2:].tolist() == [9.0, -9.0]
        assert table.categorical("g").decode(table.categorical("g").codes[-2:]) == ["a", "c"]

    def test_bounds_widened(self):
        table = _table(rows=50)
        table.append_rows(
            continuous={"x": np.array([1_000.0])}, categorical={"g": ["a"]}
        )
        assert table.catalog.bounds("x").b >= 1_000.0

    def test_missing_column_rejected(self):
        table = _table()
        with pytest.raises(ValueError, match="missing"):
            table.append_rows(continuous={"x": np.array([1.0])})

    def test_length_mismatch_rejected(self):
        table = _table()
        with pytest.raises(ValueError, match="differing lengths"):
            table.append_rows(
                continuous={"x": np.array([1.0, 2.0])}, categorical={"g": ["a"]}
            )

    def test_non_finite_rejected(self):
        table = _table()
        with pytest.raises(ValueError, match="non-finite"):
            table.append_rows(
                continuous={"x": np.array([np.nan])}, categorical={"g": ["a"]}
            )

    def test_zero_rows_noop(self):
        table = _table(rows=5)
        assert table.append_rows(
            continuous={"x": np.array([])}, categorical={"g": []}
        ) == 0
        assert table.num_rows == 5

    def test_swap_rows(self):
        table = _table(rows=4)
        x = table.continuous("x").copy()
        table.swap_rows(0, 3)
        assert table.continuous("x")[0] == x[3]
        assert table.continuous("x")[3] == x[0]


class TestScrambleInsert:
    def test_grows_blocks(self):
        scramble = Scramble(_table(rows=60), block_size=25, rng=np.random.default_rng(0))
        assert scramble.num_blocks == 3
        scramble.insert_rows(
            continuous={"x": np.zeros(20)},
            categorical={"g": ["a"] * 20},
            rng=np.random.default_rng(1),
        )
        assert scramble.num_rows == 80
        assert scramble.num_blocks == 4

    def test_metadata_cache_invalidated(self):
        scramble = Scramble(_table(rows=60), rng=np.random.default_rng(0))
        scramble.metadata_cache["sentinel"] = object()
        scramble.insert_rows(
            continuous={"x": np.array([1.0])}, categorical={"g": ["a"]},
            rng=np.random.default_rng(1),
        )
        assert scramble.metadata_cache == {}

    def test_inserted_positions_uniform(self):
        """Inside-out Fisher-Yates keeps insertion positions uniform: over
        many independent trials, a single marked inserted row is equally
        likely to land in any third of the scramble."""
        thirds = np.zeros(3, dtype=int)
        trials = 300
        for trial in range(trials):
            scramble = Scramble(
                _table(rows=90, seed=trial), rng=np.random.default_rng(trial)
            )
            scramble.insert_rows(
                continuous={"x": np.array([12345.0])},
                categorical={"g": ["a"]},
                rng=np.random.default_rng(10_000 + trial),
            )
            position = int(np.flatnonzero(scramble.table.continuous("x") == 12345.0)[0])
            thirds[min(position // 31, 2)] += 1
        # Each third should hold roughly 100 of the 300 marks.
        assert thirds.min() > 60 and thirds.max() < 140

    def test_query_correct_after_insert(self):
        """End-to-end: intervals issued after insertion enclose the new
        exact mean (bounds were widened, bitmaps rebuilt)."""
        from repro.api import connect
        from repro.fastframe import AggregateFunction, Eq, Query
        from repro.stopping import SamplesTaken

        rng = np.random.default_rng(2)
        table = Table(
            continuous={"x": rng.normal(10.0, 2.0, size=40_000)},
            categorical={"g": rng.choice(["a", "b"], size=40_000)},
        )
        scramble = Scramble(table, rng=np.random.default_rng(3))
        scramble.insert_rows(
            continuous={"x": np.full(4_000, 500.0)},
            categorical={"g": ["c"] * 4_000},
            rng=np.random.default_rng(4),
        )
        query = Query(
            AggregateFunction.AVG, "x", SamplesTaken(8_000), predicate=Eq("g", "c")
        )
        conn = connect(scramble, delta=1e-6, max_queries=1, rng=np.random.default_rng(5))
        result = conn.query(query).result()
        group = result.scalar()
        assert group.interval.lo - 1e-6 <= 500.0 <= group.interval.hi + 1e-6
