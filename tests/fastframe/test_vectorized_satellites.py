"""Satellite optimizations around the vectorized core.

Covers the O(1) dictionary reverse lookup, per-column-object predicate code
caching, the scramble-cached combined group codes, and the multi-code
``probe_batch_any`` bitmap probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.fastframe.bitmap import BlockBitmapIndex
from repro.fastframe.executor import QueryRun
from repro.fastframe.predicate import Eq, In
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import CategoricalColumn, Table
from repro.stopping.conditions import AbsoluteAccuracy
from tests.fastframe.scan_reference import probe_batch


@pytest.fixture()
def small_scramble():
    rng = np.random.default_rng(0)
    n = 5_000
    table = Table(
        continuous={"x": rng.normal(10.0, 2.0, n)},
        categorical={"g": rng.integers(0, 12, n).astype(str)},
    )
    return Scramble(table, rng=np.random.default_rng(1))


class TestCodeOfReverseLookup:
    def test_code_of_round_trips(self):
        column = CategoricalColumn.encode(["b", "a", "c", "a", "b"])
        for code, value in enumerate(column.dictionary):
            assert column.code_of(value) == code

    def test_code_of_missing_raises_keyerror(self):
        column = CategoricalColumn.encode(["a", "b"])
        with pytest.raises(KeyError):
            column.code_of("zzz")

    def test_extended_maintains_reverse_lookup(self):
        column = CategoricalColumn.encode(["a", "b"])
        extended = column.extended(["c", "a", "d"])
        assert extended.code_of("a") == column.code_of("a")
        assert extended.code_of("c") == 2
        assert extended.code_of("d") == 3
        # The original column's lookup is untouched.
        with pytest.raises(KeyError):
            column.code_of("c")

    def test_lookup_is_constant_time_shape(self):
        """The reverse index exists and covers the whole dictionary."""
        values = [f"v{i}" for i in range(500)]
        column = CategoricalColumn.encode(values)
        assert len(column._code_index) == column.cardinality
        assert column._code_index[column.dictionary[499]] == 499


class TestPredicateCodeCache:
    def test_eq_resolves_once_per_column_object(self, monkeypatch):
        table = Table(categorical={"g": ["a", "b", "a", "c"]})
        predicate = Eq("g", "b")
        column = table.categorical("g")
        calls = {"n": 0}
        original = CategoricalColumn.code_of

        def counting(self, value):
            calls["n"] += 1
            return original(self, value)

        monkeypatch.setattr(CategoricalColumn, "code_of", counting)
        for _ in range(5):
            predicate.mask(table)
            predicate.categorical_requirements(table)
        assert calls["n"] == 1
        # A new column object (append) invalidates the cache.
        table._categorical["g"] = column.extended(["b"])
        table._num_rows += 1
        predicate.mask(table)
        assert calls["n"] == 2

    def test_in_resolves_once_and_matches(self, monkeypatch):
        table = Table(categorical={"g": ["a", "b", "a", "c"]})
        predicate = In("g", ("a", "c"))
        calls = {"n": 0}
        original = CategoricalColumn.code_of

        def counting(self, value):
            calls["n"] += 1
            return original(self, value)

        monkeypatch.setattr(CategoricalColumn, "code_of", counting)
        mask = predicate.mask(table)
        assert mask.tolist() == [True, False, True, True]
        predicate.mask(table)
        predicate.categorical_requirements(table)
        assert calls["n"] == 2  # one resolution per IN value, once total

    def test_eq_results_stable_across_tables(self):
        first = Table(categorical={"g": ["a", "b"]})
        second = Table(categorical={"g": ["b", "a"]})  # different code order
        predicate = Eq("g", "b")
        assert predicate.mask(first).tolist() == [False, True]
        assert predicate.mask(second).tolist() == [True, False]


class TestCombinedCodeCache:
    def test_group_ranks_cached_on_scramble(self, small_scramble):
        """The scramble caches each row's pool row in the narrowest
        unsigned dtype, not the int64 combined codes it is built from."""
        ranks = small_scramble.group_ranks(("g",))
        assert ("ranks", ("g",)) in small_scramble.metadata_cache
        assert not any(key[0] == "combined" for key in small_scramble.metadata_cache)
        assert small_scramble.group_ranks(("g",)) is ranks  # not recomputed
        assert ranks.dtype == np.uint8
        domain = small_scramble.group_domain(("g",))
        combined = small_scramble.combined_codes(("g",))
        np.testing.assert_array_equal(domain[ranks], combined)

    def test_cache_shared_across_executors(self, small_scramble):
        """Runs with different bounders read one domain, one bitmap index
        and one decoded key list off the scramble."""
        query = Query(
            AggregateFunction.AVG, "x", AbsoluteAccuracy(1.0), group_by=("g",)
        )
        first, second = (
            QueryRun(small_scramble, query, bounder=get_bounder(name), delta=1e-6)
            for name in ("bernstein", "hoeffding")
        )
        assert first.domain is second.domain
        assert first.indexes["g"] is second.indexes["g"]
        assert first.group_keys() is second.group_keys()

    def test_insert_invalidates_cache(self, small_scramble):
        small_scramble.bitmap_index("g")
        small_scramble.group_keys(("g",))
        assert len(small_scramble.metadata_cache) == 4
        small_scramble.insert_rows(
            continuous={"x": np.array([1.0])},
            categorical={"g": ["0"]},
            rng=np.random.default_rng(5),
        )
        assert small_scramble.metadata_cache == {}
        fresh = small_scramble.group_ranks(("g",))
        assert fresh.size == small_scramble.num_rows


class TestProbeBatchAny:
    @pytest.fixture()
    def index(self, small_scramble):
        return BlockBitmapIndex(small_scramble, "g")

    def test_matches_or_of_single_code_probes(self, index, small_scramble):
        window = np.arange(small_scramble.num_blocks, dtype=np.int64)
        codes = [0, 3, 7]
        expected = np.zeros(window.shape, dtype=bool)
        for code in codes:
            expected |= probe_batch(index, window, code)
        got = index.probe_batch_any(window, codes)
        assert got.tolist() == expected.tolist()

    def test_empty_code_list_matches_nothing(self, index):
        window = np.array([0, 1, 2])
        assert index.probe_batch_any(window, []).tolist() == [False, False, False]

    def test_single_code_equivalent_to_probe_batch(self, index, small_scramble):
        window = np.arange(min(64, small_scramble.num_blocks), dtype=np.int64)
        lone = probe_batch(index, window, 5)
        any_mask = index.probe_batch_any(window, [5])
        assert any_mask.tolist() == lone.tolist()
