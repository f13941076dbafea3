"""Tests for the sampling strategies (Scan and active scanning).

:class:`ActiveStrategy` is checked against the per-block and per-group
probe loops it replaced (``tests/fastframe/scan_reference.py``): the same
mask on every window, and ActiveSync's modelled ``index_probes`` equal to
the probes the per-block loop issues.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.bounders import get_bounder
from repro.datasets import make_flights_scramble
from repro.datasets.queries import build_query
from repro.fastframe.predicate import In
from repro.fastframe.query import AggregateFunction, Query
from repro.fastframe.scan import (
    ActiveStrategy,
    SamplingStrategy,
    ScanCursor,
    ScanStrategy,
    get_strategy,
)
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.stopping import AbsoluteAccuracy
from tests.fastframe.scan_reference import ReferencePeek, ReferenceSync
from tests.support import RUN_CLASSES

SYNC, PEEK = ActiveStrategy("ActiveSync"), ActiveStrategy("ActivePeek")


@pytest.fixture()
def scramble(rng):
    table = Table(
        continuous={"v": np.arange(2_000, dtype=float)},
        categorical={"g": rng.choice(["a", "b", "c"], 2_000, p=[0.8, 0.15, 0.05])},
    )
    return Scramble(table, block_size=10, rng=rng)


@pytest.fixture()
def two_column_scramble(rng):
    table = Table(
        continuous={"v": np.arange(1_000, dtype=float)},
        categorical={
            "g": rng.choice(["a", "b", "c", "d"], 1_000, p=[0.6, 0.25, 0.1, 0.05]),
            "h": rng.choice(["x", "y"], 1_000, p=[0.85, 0.15]),
        },
    )
    return Scramble(table, block_size=10, rng=rng)


def make_run(scramble, group_by=(), active=None, predicate=None, engine="pool"):
    """A COUNT run over ``scramble`` whose active views are the group keys
    in ``active`` (every view when ``None``): the state a strategy reads."""
    query = Query(
        AggregateFunction.COUNT,
        None,
        AbsoluteAccuracy(1e-9),
        group_by=group_by,
        **({} if predicate is None else {"predicate": predicate}),
    )
    run = RUN_CLASSES[engine](
        scramble, query, bounder=get_bounder("hoeffding"), delta=1e-6, strategy=PEEK
    )
    if active is not None:
        set_active(run, [key in active for key in run.group_keys()])
    return run


def set_active(run, flags) -> None:
    flags = np.asarray(flags, dtype=bool)
    run._set_active(np.arange(flags.size), flags)


def charged(strategy: SamplingStrategy, window, run):
    """``(mask, index probes, batch probes)`` of one selection."""
    before = run.metrics.index_probes, run.metrics.batch_probes
    mask = strategy.select_blocks(window, run)
    return (
        mask,
        run.metrics.index_probes - before[0],
        run.metrics.batch_probes - before[1],
    )


def holds(scramble, column, value):
    """Per block: does it hold a row with ``column = value``?"""
    categorical = scramble.table.categorical(column)
    code = categorical.code_of(value)
    return np.array([
        bool(np.any(categorical.codes[scramble.block_rows(block)] == code))
        for block in range(scramble.num_blocks)
    ])


class TestGetStrategy:
    def test_lookup(self):
        assert isinstance(get_strategy("scan"), ScanStrategy)
        for name, label in (("ActiveSync", "ActiveSync"), ("activepeek", "ActivePeek")):
            strategy = get_strategy(name)
            assert isinstance(strategy, ActiveStrategy)
            assert strategy.name == label

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_strategy("turbo")


class TestScanStrategy:
    def test_reads_everything_without_predicate(self, scramble):
        window = np.arange(scramble.num_blocks)
        assert ScanStrategy().select_blocks(window, make_run(scramble)).all()

    def test_skips_predicate_empty_blocks(self, scramble):
        run = make_run(scramble, predicate=In("g", ["c"]))
        window = np.arange(scramble.num_blocks)
        mask, index_probes, batch_probes = charged(ScanStrategy(), window, run)
        np.testing.assert_array_equal(mask, holds(scramble, "g", "c"))
        assert (index_probes, batch_probes) == (0, 1)

    def test_ignores_active_groups(self, scramble):
        """Scan never consults activeness (§5.2)."""
        run = make_run(scramble, ("g",), active={("c",)})
        window = np.arange(scramble.num_blocks)
        assert ScanStrategy().select_blocks(window, run).all()
        assert not ScanStrategy.uses_active_groups


class TestActiveStrategies:
    @pytest.mark.parametrize("strategy", [SYNC, PEEK], ids=["ActiveSyncStrategy", "ActivePeekStrategy"])
    def test_skips_blocks_without_active_groups(self, scramble, strategy):
        run = make_run(scramble, ("g",), active={("c",)})
        mask = strategy.select_blocks(np.arange(scramble.num_blocks), run)
        np.testing.assert_array_equal(mask, holds(scramble, "g", "c"))

    @pytest.mark.parametrize("strategy", [SYNC, PEEK], ids=["ActiveSyncStrategy", "ActivePeekStrategy"])
    def test_no_active_groups_reads_nothing(self, scramble, strategy):
        run = make_run(scramble, ("g",), active=set())
        mask, index_probes, batch_probes = charged(strategy, np.arange(20), run)
        assert not mask.any()
        assert (index_probes, batch_probes) == (0, 0)

    def test_sync_and_peek_agree(self, scramble):
        """Both compute the same skipping decision — they differ only in
        the probe cost they charge."""
        window = np.arange(scramble.num_blocks)
        for active in ({("a",)}, {("b",), ("c",)}, {("a",), ("b",), ("c",)}):
            run = make_run(scramble, ("g",), active=active)
            np.testing.assert_array_equal(
                SYNC.select_blocks(window, run), PEEK.select_blocks(window, run)
            )

    def test_probe_cost_asymmetry(self, scramble):
        """ActiveSync's modelled per-block probes against ActivePeek's one
        batched probe per window — the §5.2 overhead model."""
        window = np.arange(scramble.num_blocks)
        run = make_run(scramble, ("g",), active={("c",)})
        _, reference_probes, _ = charged(ReferenceSync(), window, run)
        _, index_probes, batch_probes = charged(SYNC, window, run)
        assert index_probes == reference_probes
        assert index_probes == scramble.num_blocks  # one active group: 1 each
        assert batch_probes == 0
        _, index_probes, batch_probes = charged(PEEK, window, run)
        assert (index_probes, batch_probes) == (0, 1)

    def test_sync_probes_follow_frequency_order(self, scramble):
        """A block is charged 1 + the rank of its first present active
        group, most-blocks-first, or every active group when none is."""
        window = np.arange(scramble.num_blocks)
        run = make_run(scramble, ("g",), active={("a",), ("c",)})
        has_a, has_c = holds(scramble, "g", "a"), holds(scramble, "g", "c")
        assert has_a.sum() > has_c.sum()  # "a" is probed first
        expected = np.where(has_a, 1, 2).sum()
        _, index_probes, _ = charged(SYNC, window, run)
        assert index_probes == expected

    def test_combined_predicate_and_group_skipping(self, scramble):
        run = make_run(scramble, ("g",), active={("b",)}, predicate=In("g", ["c"]))
        mask = PEEK.select_blocks(np.arange(scramble.num_blocks), run)
        expected = holds(scramble, "g", "b") & holds(scramble, "g", "c")
        np.testing.assert_array_equal(mask, expected)

    @pytest.mark.parametrize("strategy", [SYNC, PEEK], ids=["ActiveSyncStrategy", "ActivePeekStrategy"])
    def test_multi_column_conjunction_is_conservative(
        self, two_column_scramble, strategy
    ):
        """A two-column group is possibly present in a block iff both its
        values are: a block lacking either is certified group-free, and
        one holding both is fetched even if no single row carries both."""
        scramble = two_column_scramble
        run = make_run(scramble, ("g", "h"), active={("a", "y")})
        window = np.arange(scramble.num_blocks)
        mask = strategy.select_blocks(window, run)
        np.testing.assert_array_equal(
            mask, holds(scramble, "g", "a") & holds(scramble, "h", "y")
        )
        g = scramble.table.categorical("g")
        h = scramble.table.categorical("h")
        for block in window:
            rows = scramble.block_rows(int(block))
            if np.any(
                (g.codes[rows] == g.code_of("a")) & (h.codes[rows] == h.code_of("y"))
            ):
                assert mask[block]  # never misses a real group row
        assert 0 < mask.sum() < window.size

    def test_sync_and_peek_agree_on_multi_column_groups(self, two_column_scramble):
        scramble = two_column_scramble
        run = make_run(scramble, ("g", "h"), active={("b", "x"), ("d", "y"), ("c", "y")})
        window = np.arange(0, scramble.num_blocks, 3)
        reference, reference_probes, _ = charged(ReferenceSync(), window, run)
        sync_mask, index_probes, batch_probes = charged(SYNC, window, run)
        peek_mask, peek_index_probes, peek_batch_probes = charged(PEEK, window, run)
        np.testing.assert_array_equal(sync_mask, reference)
        np.testing.assert_array_equal(peek_mask, reference)
        assert index_probes == reference_probes
        assert (batch_probes, peek_index_probes, peek_batch_probes) == (0, 0, 1)

    def test_never_skips_needed_block(self, scramble, rng):
        """Soundness: every block holding a row of an active group is
        fetched, for random active sets."""
        dictionary = scramble.table.categorical("g").dictionary
        window = np.arange(scramble.num_blocks)
        for _ in range(5):
            active = rng.choice(dictionary, rng.integers(1, 3), replace=False)
            run = make_run(scramble, ("g",), active={(value,) for value in active})
            mask = PEEK.select_blocks(window, run)
            for value in active:
                assert mask[holds(scramble, "g", value)].all()

    def test_reactivated_group_is_fetched_again(self, scramble):
        """No selection state outlives a window: a group the stopping
        condition re-activates is read from the next window on."""
        run = make_run(scramble, ("g",), active={("c",)})
        window = np.arange(scramble.num_blocks)
        set_active(run, [False] * len(run.group_keys()))
        assert not PEEK.select_blocks(window, run).any()
        set_active(run, [key == ("c",) for key in run.group_keys()])
        np.testing.assert_array_equal(
            PEEK.select_blocks(window, run), holds(scramble, "g", "c")
        )

    def test_scalar_query_reads_like_scan(self, scramble):
        run = make_run(scramble, predicate=In("g", ["b"]))
        window = np.arange(scramble.num_blocks)
        for strategy in (SYNC, PEEK):
            np.testing.assert_array_equal(
                strategy.select_blocks(window, run), holds(scramble, "g", "b")
            )


@st.composite
def selection_cases(draw):
    """A small random scramble, a 1–3 column GROUP BY, an optional
    categorical predicate and a sequence of active-view masks."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = draw(st.integers(1, 300))
    cardinalities = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    table = Table(
        continuous={"v": np.zeros(rows)},
        categorical={
            name: rng.integers(0, card, rows).astype(str)
            for name, card in zip("abc", cardinalities)
        },
    )
    scramble = Scramble(table, block_size=draw(st.integers(1, 12)), rng=rng)
    group_by = tuple(draw(st.permutations("abc"))[: draw(st.integers(1, 3))])
    predicate = None
    column = draw(st.sampled_from([None, "a", "b", "c"]))
    if column is not None:
        dictionary = scramble.table.categorical(column).dictionary
        values = draw(st.lists(st.sampled_from(list(dictionary)), min_size=1, unique=True))
        predicate = In(column, values)
    start = draw(st.integers(0, scramble.num_blocks - 1))
    window_blocks = draw(st.integers(1, 40))
    # Bit j of a step activates every view ≡ j (mod 24); successive steps
    # retire and re-activate views.
    steps = draw(st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=6))
    engine = draw(st.sampled_from(["pool", "scalar"]))
    return scramble, group_by, predicate, start, window_blocks, steps, engine


class TestAgainstReferenceLoops:
    @settings(max_examples=80, deadline=None)
    @given(selection_cases())
    def test_masks_and_sync_probes_equal_the_loops(self, case):
        scramble, group_by, predicate, start, window_blocks, steps, engine = case
        run = make_run(scramble, group_by, predicate=predicate, engine=engine)
        views = len(run.group_keys())
        cursor = ScanCursor(scramble, start, window_blocks)
        for step, (window, _) in enumerate(cursor.windows()):
            bits = steps[step % len(steps)]
            set_active(run, [(bits >> (view % 24)) & 1 for view in range(views)])
            reference, reference_probes, predicate_probes = charged(
                ReferenceSync(), window, run
            )
            sync_mask, index_probes, batch_probes = charged(SYNC, window, run)
            np.testing.assert_array_equal(sync_mask, reference)
            assert index_probes == reference_probes
            assert batch_probes == predicate_probes
            peek_mask, _, peek_batch = charged(PEEK, window, run)
            np.testing.assert_array_equal(peek_mask, reference)
            np.testing.assert_array_equal(
                charged(ReferencePeek(), window, run)[0], reference
            )
            assert peek_batch == predicate_probes + bool(run.active_views().any())


@pytest.fixture(scope="module")
def flights():
    # Three-row blocks and 2 000-row rounds: groups retire while blocks
    # remain, so each query below skips blocks at either start.
    return make_flights_scramble(rows=100_000, seed=0, block_size=3)


def trace(scramble, query, strategy, start_block):
    """Every rounds() update and the final result, as comparable bytes."""
    conn = connect(
        scramble,
        bounder="bernstein+rt",
        strategy=strategy,
        delta=1e-9,
        max_queries=1,
        round_rows=2_000,
        rng=np.random.default_rng(0),
    )
    handle = conn.query(query)
    updates = []
    for update in handle.rounds(start_block=start_block):
        columns = update.groups.columns
        updates.append((
            update.round_index,
            update.rows_read,
            *(
                np.ascontiguousarray(array).tobytes()
                for array in (
                    columns.rows, columns.lo, columns.hi, columns.estimate,
                    columns.samples, columns.exhausted,
                )
            ),
        ))
    result = handle.result()
    metrics = result.metrics
    return (
        updates,
        sorted(repr(group) for group in result.groups.values()),
        (metrics.rows_read, metrics.blocks_fetched, metrics.blocks_skipped),
    )


@pytest.mark.parametrize("name", ["F-q5", "F-q6", "F-q9"])
@pytest.mark.parametrize("start_block", [0, 17_000])
def test_strategies_are_byte_identical_end_to_end(flights, name, start_block):
    """``activesync``, ``activepeek`` and the per-group reference loop
    stream the same rounds() updates and the same result."""
    query = build_query(name)
    sync, peek, reference = (
        trace(flights, query, strategy, start_block)
        for strategy in ("activesync", "activepeek", ReferencePeek())
    )
    assert sync == reference
    assert peek == reference
    assert reference[2][2] > 0  # blocks were skipped
