"""Tests for the sampling strategies (Scan / ActiveSync / ActivePeek)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fastframe.bitmap import BlockBitmapIndex
from repro.fastframe.scan import (
    ActivePeekStrategy,
    ActiveSyncStrategy,
    ScanContext,
    ScanStrategy,
    get_strategy,
)
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table


@pytest.fixture()
def scramble(rng):
    table = Table(
        continuous={"v": np.arange(2_000, dtype=float)},
        categorical={"g": rng.choice(["a", "b", "c"], 2_000, p=[0.8, 0.15, 0.05])},
    )
    return Scramble(table, block_size=10, rng=rng)


def make_context(scramble, active_values=(), predicate_values=()):
    index = BlockBitmapIndex(scramble, "g")
    categorical = scramble.table.categorical("g")
    return ScanContext(
        indexes={"g": index},
        predicate_requirements=(
            {"g": {categorical.code_of(v) for v in predicate_values}}
            if predicate_values
            else {}
        ),
        group_columns=("g",) if active_values else (),
        active_groups=[(categorical.code_of(v),) for v in active_values],
    )


def make_two_column_context(rng, active_groups, scramble=None):
    """A ``GROUP BY g, h`` context: fresh indexes, so probe counters start
    at zero; ``active_groups`` are (g, h) value pairs."""
    if scramble is None:
        table = Table(
            continuous={"v": np.arange(1_000, dtype=float)},
            categorical={
                "g": rng.choice(["a", "b", "c", "d"], 1_000, p=[0.6, 0.25, 0.1, 0.05]),
                "h": rng.choice(["x", "y"], 1_000, p=[0.85, 0.15]),
            },
        )
        scramble = Scramble(table, block_size=10, rng=rng)
    g = scramble.table.categorical("g")
    h = scramble.table.categorical("h")
    context = ScanContext(
        indexes={
            "g": BlockBitmapIndex(scramble, "g"),
            "h": BlockBitmapIndex(scramble, "h"),
        },
        predicate_requirements={},
        group_columns=("g", "h"),
        active_groups=[(g.code_of(gv), h.code_of(hv)) for gv, hv in active_groups],
    )
    return scramble, context


class TestGetStrategy:
    def test_lookup(self):
        assert isinstance(get_strategy("scan"), ScanStrategy)
        assert isinstance(get_strategy("ActiveSync"), ActiveSyncStrategy)
        assert isinstance(get_strategy("activepeek"), ActivePeekStrategy)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_strategy("turbo")


class TestScanStrategy:
    def test_reads_everything_without_predicate(self, scramble):
        context = make_context(scramble)
        window = np.arange(scramble.num_blocks)
        mask = ScanStrategy().select_blocks(window, context)
        assert mask.all()

    def test_skips_predicate_empty_blocks(self, scramble):
        context = make_context(scramble, predicate_values=("c",))
        window = np.arange(scramble.num_blocks)
        mask = ScanStrategy().select_blocks(window, context)
        codes = scramble.table.categorical("g").codes
        c_code = scramble.table.categorical("g").code_of("c")
        for block in window:
            has_c = bool(np.any(codes[scramble.block_rows(int(block))] == c_code))
            assert mask[block] == has_c

    def test_ignores_active_groups(self, scramble):
        """Scan never consults activeness (§5.2)."""
        sparse = make_context(scramble, active_values=("c",))
        window = np.arange(scramble.num_blocks)
        assert ScanStrategy().select_blocks(window, sparse).all()
        assert not ScanStrategy.uses_active_groups


class TestActiveStrategies:
    @pytest.mark.parametrize("strategy_cls", [ActiveSyncStrategy, ActivePeekStrategy])
    def test_skips_blocks_without_active_groups(self, scramble, strategy_cls):
        context = make_context(scramble, active_values=("c",))
        window = np.arange(scramble.num_blocks)
        mask = strategy_cls().select_blocks(window, context)
        codes = scramble.table.categorical("g").codes
        c_code = scramble.table.categorical("g").code_of("c")
        for block in window:
            has_c = bool(np.any(codes[scramble.block_rows(int(block))] == c_code))
            assert mask[block] == has_c

    @pytest.mark.parametrize("strategy_cls", [ActiveSyncStrategy, ActivePeekStrategy])
    def test_no_active_groups_reads_nothing(self, scramble, strategy_cls):
        context = make_context(scramble, active_values=())
        context = ScanContext(
            indexes=context.indexes,
            predicate_requirements={},
            group_columns=("g",),
            active_groups=[],
        )
        window = np.arange(20)
        mask = strategy_cls().select_blocks(window, context)
        assert not mask.any()

    def test_sync_and_peek_agree(self, scramble):
        """Both compute the same skipping decision — they differ only in
        probe cost (per-block vs batched)."""
        for active in (("a",), ("b", "c"), ("a", "b", "c")):
            context_sync = make_context(scramble, active_values=active)
            context_peek = make_context(scramble, active_values=active)
            window = np.arange(scramble.num_blocks)
            sync_mask = ActiveSyncStrategy().select_blocks(window, context_sync)
            peek_mask = ActivePeekStrategy().select_blocks(window, context_peek)
            np.testing.assert_array_equal(sync_mask, peek_mask)

    def test_probe_cost_asymmetry(self, scramble):
        """ActiveSync charges per-block probes; ActivePeek charges batched
        probes — the §5.2 overhead model."""
        context_sync = make_context(scramble, active_values=("c",))
        window = np.arange(scramble.num_blocks)
        ActiveSyncStrategy().select_blocks(window, context_sync)
        sync_index = context_sync.indexes["g"]
        assert sync_index.probe_count >= scramble.num_blocks  # >= 1 per block
        assert sync_index.batch_probe_count == 0

        context_peek = make_context(scramble, active_values=("c",))
        ActivePeekStrategy().select_blocks(window, context_peek)
        peek_index = context_peek.indexes["g"]
        assert peek_index.probe_count == 0
        assert peek_index.batch_probe_count <= 4  # O(active groups), not O(blocks)

    def test_combined_predicate_and_group_skipping(self, scramble):
        context = make_context(
            scramble, active_values=("b",), predicate_values=("c",)
        )
        window = np.arange(scramble.num_blocks)
        mask = ActivePeekStrategy().select_blocks(window, context)
        codes = scramble.table.categorical("g").codes
        categorical = scramble.table.categorical("g")
        b_code, c_code = categorical.code_of("b"), categorical.code_of("c")
        for block in window:
            rows = scramble.block_rows(int(block))
            expected = bool(np.any(codes[rows] == b_code)) and bool(
                np.any(codes[rows] == c_code)
            )
            assert mask[block] == expected

    @pytest.mark.parametrize("strategy_cls", [ActiveSyncStrategy, ActivePeekStrategy])
    def test_multi_column_conjunction_is_conservative(self, rng, strategy_cls):
        """A two-column group is possibly present in a block iff both its
        values are: a block lacking either is certified group-free, and
        one holding both is fetched even if no single row carries both."""
        scramble, context = make_two_column_context(rng, [("a", "y")])
        window = np.arange(scramble.num_blocks)
        mask = strategy_cls().select_blocks(window, context)
        g_codes = scramble.table.categorical("g").codes
        h_codes = scramble.table.categorical("h").codes
        (g_code, h_code), = context.active_groups
        for block in window:
            rows = scramble.block_rows(int(block))
            has_g = bool(np.any(g_codes[rows] == g_code))
            has_h = bool(np.any(h_codes[rows] == h_code))
            assert mask[block] == (has_g and has_h)
            if np.any((g_codes[rows] == g_code) & (h_codes[rows] == h_code)):
                assert mask[block]  # never misses a real group row
        assert 0 < mask.sum() < window.size

    def test_sync_and_peek_agree_on_multi_column_groups(self, rng):
        scramble, context = make_two_column_context(
            rng, [("b", "x"), ("d", "y"), ("c", "y")]
        )
        _, context_peek = make_two_column_context(
            rng, [("b", "x"), ("d", "y"), ("c", "y")], scramble=scramble
        )
        window = np.arange(0, scramble.num_blocks, 3)
        sync_mask = ActiveSyncStrategy().select_blocks(window, context)
        peek_mask = ActivePeekStrategy().select_blocks(window, context_peek)
        np.testing.assert_array_equal(sync_mask, peek_mask)
        assert context.indexes["g"].batch_probe_count == 0
        assert context_peek.indexes["g"].probe_count == 0

    def test_never_skips_needed_block(self, scramble, rng):
        """Soundness: every block holding a row of an active group is
        fetched, for random active sets."""
        categorical = scramble.table.categorical("g")
        codes = scramble.table.categorical("g").codes
        window = np.arange(scramble.num_blocks)
        for _ in range(5):
            active = tuple(
                rng.choice(categorical.dictionary, rng.integers(1, 3), replace=False)
            )
            context = make_context(scramble, active_values=active)
            mask = ActivePeekStrategy().select_blocks(window, context)
            active_codes = {categorical.code_of(v) for v in active}
            for block in window:
                rows = scramble.block_rows(int(block))
                if any(c in active_codes for c in codes[rows]):
                    assert mask[block]
