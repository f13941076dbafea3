"""Tests for block bitmap indexes (§4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fastframe.bitmap import BlockBitmapIndex, block_view_table
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from tests.fastframe.scan_reference import probe, probe_batch


@pytest.fixture()
def scramble(rng):
    table = Table(
        continuous={"v": np.arange(1_000, dtype=float)},
        categorical={
            "g": rng.choice(["a", "b", "c", "d"], 1_000, p=[0.6, 0.25, 0.1, 0.05]),
            "h": rng.choice(["x", "y"], 1_000),
        },
    )
    return Scramble(table, block_size=10, rng=rng)


@pytest.fixture()
def index(scramble):
    return BlockBitmapIndex(scramble, "g")


class TestConstruction:
    def test_blocks_of_matches_data(self, scramble, index):
        codes = scramble.table.categorical("g").codes
        for code in range(index.cardinality):
            expected = np.unique(np.flatnonzero(codes == code) // 10)
            np.testing.assert_array_equal(index.blocks_of(code), expected)

    def test_block_count_of(self, index):
        for code in range(index.cardinality):
            assert index.block_count_of(code) == index.blocks_of(code).size

    def test_blocks_of_out_of_range(self, index):
        with pytest.raises(IndexError):
            index.blocks_of(99)


class TestProbes:
    """The reference loops' single-block and window probes (the oracle
    active scanning is tested against) read the index correctly."""

    def test_probe_agrees_with_data(self, scramble, index):
        codes = scramble.table.categorical("g").codes
        for block in range(0, scramble.num_blocks, 7):
            block_codes = set(codes[scramble.block_rows(block)].tolist())
            for code in range(index.cardinality):
                assert probe(index, block, code) == (code in block_codes)

    def test_probe_batch_matches_scalar(self, scramble, index):
        blocks = np.arange(scramble.num_blocks)
        for code in range(index.cardinality):
            batch = probe_batch(index, blocks, code)
            scalar = np.array([probe(index, int(b), code) for b in blocks])
            np.testing.assert_array_equal(batch, scalar)


class TestGroupPresence:
    def test_empty_value_block_list(self, rng):
        """A value occurring in no blocks (possible after filtering) must
        probe to all-False, not crash."""
        table = Table(
            continuous={"v": np.arange(10, dtype=float)},
            categorical={"g": ["a"] * 10},
        )
        scramble = Scramble(table, block_size=5, rng=rng)
        index = BlockBitmapIndex(scramble, "g")
        assert index.cardinality == 1
        np.testing.assert_array_equal(
            index.probe_batch_any(np.array([0, 1]), [0]), [True, True]
        )


def present_views(scramble, group_by, block):
    """Brute force: domain views whose every per-column code the block holds."""
    rows = scramble.block_rows(block)
    held = [
        set(scramble.table.categorical(column).codes[rows].tolist())
        for column in group_by
    ]
    codes, _ = scramble.group_keys(group_by)
    return [
        view
        for view, view_codes in enumerate(codes)
        if all(code in column for code, column in zip(view_codes, held))
    ]


class TestBlockViewTable:
    @pytest.mark.parametrize("group_by", [("g",), ("h", "g"), ("g", "h", "k")])
    def test_lists_every_possibly_present_view(self, rng, group_by):
        table = Table(
            continuous={"v": np.zeros(600)},
            categorical={
                "g": rng.choice(["a", "b", "c", "d"], 600, p=[0.6, 0.25, 0.1, 0.05]),
                "h": rng.choice(["x", "y"], 600, p=[0.9, 0.1]),
                "k": rng.choice(["p", "q", "r"], 600),
            },
        )
        scramble = Scramble(table, block_size=7, rng=rng)
        indptr, views, _ = block_view_table(scramble, group_by)
        assert indptr.dtype == views.dtype == np.int32
        assert indptr.size == scramble.num_blocks + 1
        for block in range(scramble.num_blocks):
            listed = sorted(views[indptr[block] : indptr[block + 1]].tolist())
            assert listed == present_views(scramble, group_by, block)
            assert listed  # every block lists a view of its own rows

    def test_cached_on_scramble_and_dropped_on_insert(self, scramble):
        table = scramble.block_views(("g", "h"))
        assert scramble.block_views(("g", "h")) is table
        scramble.insert_rows(
            continuous={"v": np.array([1.0])},
            categorical={"g": ["a"], "h": ["x"]},
            rng=np.random.default_rng(5),
        )
        assert ("block_views", ("g", "h")) not in scramble.metadata_cache
        indptr, _, _ = scramble.block_views(("g", "h"))
        assert indptr.size == scramble.num_blocks + 1
