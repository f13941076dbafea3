"""Tests for block bitmap indexes (§4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fastframe.bitmap import BlockBitmapIndex
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table


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
    def test_probe_agrees_with_data(self, scramble, index):
        codes = scramble.table.categorical("g").codes
        for block in range(0, scramble.num_blocks, 7):
            block_codes = set(codes[scramble.block_rows(block)].tolist())
            for code in range(index.cardinality):
                assert index.probe(block, code) == (code in block_codes)

    def test_probe_counts_charged(self, index):
        index.reset_counters()
        index.probe(0, 0)
        index.probe(1, 1)
        assert index.probe_count == 2
        assert index.batch_probe_count == 0

    def test_probe_batch_matches_scalar(self, scramble, index):
        blocks = np.arange(scramble.num_blocks)
        for code in range(index.cardinality):
            batch = index.probe_batch(blocks, code)
            scalar = np.array([index.probe(int(b), code) for b in blocks])
            np.testing.assert_array_equal(batch, scalar)

    def test_batch_probe_counts_once_per_call(self, index):
        index.reset_counters()
        index.probe_batch(np.arange(50), 0)
        assert index.batch_probe_count == 1

    def test_reset_counters(self, index):
        index.probe(0, 0)
        index.reset_counters()
        assert index.probe_count == 0


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
            index.probe_batch(np.array([0, 1]), 0), [True, True]
        )
