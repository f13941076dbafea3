"""Tests for connect(), Connection, QueryHandle, and the fluent builder."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import Connection, GatherResult, QueryHandle, connect
from repro.bounders import HoeffdingSerflingBounder, get_bounder
from repro.fastframe import (
    AggregateFunction,
    ApproximateExecutor,
    Eq,
    Query,
    Scramble,
    ScanStrategy,
    Table,
)
from repro.stopping import (
    AbsoluteAccuracy,
    GroupsOrdered,
    RelativeAccuracy,
    SamplesTaken,
    ThresholdSide,
    TopKSeparated,
)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    n = 20_000
    return Table(
        continuous={"x": rng.gamma(2.0, 10.0, n)},
        categorical={
            "g": rng.integers(0, 8, n).astype(str),
            "h": rng.integers(0, 3, n).astype(str),
        },
        range_pad=0.1,
    )


@pytest.fixture(scope="module")
def scramble(table):
    return Scramble(table, rng=np.random.default_rng(1))


def _connect(scramble, **kwargs):
    defaults = dict(delta=1e-6, rng=np.random.default_rng(3))
    defaults.update(kwargs)
    return connect(scramble, **defaults)


class TestConnect:
    def test_accepts_scramble(self, scramble):
        conn = _connect(scramble)
        assert isinstance(conn, Connection)
        assert conn.scramble is scramble

    def test_accepts_table(self, table):
        conn = _connect(table)
        assert conn.scramble.num_rows == table.num_rows
        assert conn.scramble is not table

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError, match="Scramble or a Table"):
            connect({"x": [1.0, 2.0]})

    def test_bounder_by_name_or_instance(self, scramble):
        assert _connect(scramble, bounder="hoeffding").bounder.name == "Hoeffding"
        bounder = get_bounder("bernstein+rt")
        assert _connect(scramble, bounder=bounder).bounder is bounder

    def test_rejects_non_ssi_bounder(self, scramble):
        """Every registered bounder is SSI, so only a custom instance can
        declare otherwise — and nothing switches the check off."""

        class Asymptotic(HoeffdingSerflingBounder):
            name = "asymptotic"
            ssi = False

        with pytest.raises(ValueError, match="not SSI"):
            _connect(scramble, bounder=Asymptotic())

    def test_strategy_by_name(self, scramble):
        conn = _connect(scramble, strategy="activepeek")
        assert conn.strategy.name == "ActivePeek"

    @pytest.mark.parametrize("bounder", [3, None])
    def test_rejects_bounder_of_wrong_type(self, scramble, bounder):
        with pytest.raises(TypeError, match="connect\\(\\) bounder"):
            _connect(scramble, bounder=bounder)

    def test_rejects_strategy_of_wrong_type(self, scramble):
        """Checked at connect(), not at the first result()."""
        with pytest.raises(TypeError, match="connect\\(\\) strategy"):
            _connect(scramble, strategy=3)

    def test_bad_bounder_name_fails_before_the_spill(self, table):
        """An unknown name leaves the scramble resident, not store-backed."""
        fresh = Scramble(table, rng=np.random.default_rng(1))
        with pytest.raises(KeyError, match="nope"):
            _connect(fresh, storage="mmap", bounder="nope")
        assert fresh.storage is None

    @pytest.mark.parametrize("round_rows", [0, -1, 1.5, True])
    def test_rejects_bad_round_rows_before_any_charge(self, scramble, round_rows):
        """A bad value surfaces at the first resolution, with no δ spent."""
        conn = _connect(scramble, round_rows=round_rows)
        with pytest.raises(ValueError, match="round_rows"):
            conn.table().avg("x", abs=5.0).result(start_block=0)
        assert conn.spent_delta == 0

    def test_ledger_validation_delegated(self, scramble):
        with pytest.raises(ValueError, match="policy"):
            _connect(scramble, policy="greedy")
        with pytest.raises(ValueError, match="session_delta"):
            _connect(scramble, delta=0.0)
        with pytest.raises(ValueError, match="max_queries"):
            _connect(scramble, max_queries=0)

    @pytest.mark.parametrize(
        "keyword", ["task_timeout", "round_rowz", "alpha", "require_ssi"]
    )
    def test_unknown_executor_keyword_fails_at_connect(self, scramble, keyword):
        """A misspelt or removed keyword fails at connect(), naming
        itself, before any handle is charged — not at the first
        result(), phrased about a class the caller never called."""
        with pytest.raises(TypeError, match=f"connect\\(\\).*'{keyword}'"):
            _connect(scramble, **{keyword: 30})

    def test_executor_keywords_still_accepted(self, scramble):
        conn = _connect(scramble, round_rows=5_000, engine="pool")
        assert conn.executor_kwargs == {"round_rows": 5_000, "engine": "pool"}
        result = conn.table().avg("x", abs=5.0).result(start_block=0)
        assert result.metrics.rows_read > 0


class TestSqlHandles:
    def test_single_statement_returns_one_handle(self, scramble):
        conn = _connect(scramble)
        handle = conn.sql("SELECT g FROM t GROUP BY g HAVING AVG(x) > 20")
        assert isinstance(handle, QueryHandle)
        assert isinstance(handle.stopping, ThresholdSide)
        assert not handle.resolved

    def test_multi_statement_returns_handle_list(self, scramble):
        conn = _connect(scramble)
        handles = conn.sql(
            "SELECT g FROM t GROUP BY g HAVING AVG(x) > 20; "
            "SELECT AVG(x) FROM t WHERE g = '3';",
            stopping=RelativeAccuracy(0.5),
            name="dash",
        )
        assert isinstance(handles, list) and len(handles) == 2
        assert [h.name for h in handles] == ["dash#1", "dash#2"]
        assert isinstance(handles[1].stopping, RelativeAccuracy)

    def test_compile_is_lazy_and_free(self, scramble):
        conn = _connect(scramble)
        conn.sql("SELECT AVG(x) FROM t", stopping=RelativeAccuracy(0.5))
        assert conn.queries_run == 0
        assert conn.spent_delta == 0.0


class TestBuilder:
    def test_fluent_chain_compiles(self, scramble):
        conn = _connect(scramble)
        handle = (
            conn.table()
            .where("h", "1")
            .group_by("g")
            .named("fluent")
            .avg("x", rel=0.05)
        )
        query = handle.query
        assert query.aggregate is AggregateFunction.AVG
        assert query.group_by == ("g",)
        assert query.name == "fluent"
        assert isinstance(query.stopping, RelativeAccuracy)
        assert query.stopping.epsilon == 0.05

    def test_where_forms(self, scramble):
        conn = _connect(scramble)
        base = conn.table().where(Eq("g", "1")).where("h", "2").where("x", ">=", 5)
        handle = base.avg("x", abs=1.0)
        mask = handle.query.predicate.mask(
            scramble.table, np.arange(scramble.num_rows)
        )
        table = scramble.table
        expected = (
            (table.categorical("g").codes == table.categorical("g").code_of("1"))
            & (table.categorical("h").codes == table.categorical("h").code_of("2"))
            & (table.continuous("x") >= 5)
        )
        np.testing.assert_array_equal(mask, expected)

    def test_where_rejects_bad_shapes(self, scramble):
        conn = _connect(scramble)
        with pytest.raises(TypeError, match="where"):
            conn.table().where("x")
        with pytest.raises(TypeError, match="where"):
            conn.table().where("x", "!", 1)

    def test_builder_is_immutable(self, scramble):
        conn = _connect(scramble)
        base = conn.table().group_by("g")
        h1 = base.avg("x", above=20.0)
        h2 = base.count(samples=100)
        assert h1.query.aggregate is AggregateFunction.AVG
        assert h2.query.aggregate is AggregateFunction.COUNT
        assert h1.query.group_by == h2.query.group_by == ("g",)

    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            ({"rel": 0.1}, RelativeAccuracy),
            ({"abs": 2.0}, AbsoluteAccuracy),
            ({"samples": 50}, SamplesTaken),
            ({"above": 10.0}, ThresholdSide),
            ({"below": 10.0}, ThresholdSide),
            ({"top": 3}, TopKSeparated),
            ({"bottom": 2}, TopKSeparated),
            ({"ordered": True}, GroupsOrdered),
            ({"stopping": SamplesTaken(10)}, SamplesTaken),
            ({"top": np.int64(3)}, TopKSeparated),
            ({"rel": np.float64(0.1)}, RelativeAccuracy),
        ],
    )
    def test_stopping_keywords(self, scramble, kwargs, expected):
        conn = _connect(scramble)
        handle = conn.table().group_by("g").avg("x", **kwargs)
        assert isinstance(handle.stopping, expected)

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            ({"ordered": 0}, TypeError),
            ({"ordered": 1}, TypeError),
            ({"ordered": False}, TypeError),
            ({"top": 2.7}, TypeError),
            ({"bottom": 1.5}, TypeError),
            ({"samples": 99.9}, TypeError),
            ({"samples": True}, TypeError),
            ({"top": True}, TypeError),
            ({"rel": True}, TypeError),
            ({"abs": False}, TypeError),
            ({"above": True}, TypeError),
            ({"below": False}, TypeError),
            ({"rel": "0.1"}, TypeError),
            ({"top": 0}, ValueError),
            ({"samples": 0}, ValueError),
            ({"rel": 0.0}, ValueError),
            ({"abs": -1.0}, ValueError),
        ],
    )
    def test_stopping_keywords_are_checked_not_coerced(self, scramble, kwargs, error):
        conn = _connect(scramble)
        (key,) = kwargs
        with pytest.raises(error, match=rf"^{key}= "):
            conn.table().group_by("g").avg("x", **kwargs)

    def test_exactly_one_stopping_specifier(self, scramble):
        conn = _connect(scramble)
        with pytest.raises(TypeError, match="exactly one"):
            conn.table().avg("x")
        with pytest.raises(TypeError, match="exactly one"):
            conn.table().avg("x", rel=0.1, abs=2.0)

    def test_zero_threshold_is_a_real_specifier(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().group_by("g").avg("x", above=0.0)
        assert isinstance(handle.stopping, ThresholdSide)
        assert handle.stopping.threshold == 0.0
        with pytest.raises(TypeError, match="exactly one"):
            conn.table().avg("x", above=0.0, rel=0.5)

    def test_median_terminal(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().group_by("g").median("x", rel=0.2)
        assert handle.query.aggregate is AggregateFunction.MEDIAN
        assert handle.query.percentile is None
        assert handle.query.quantile_p == 0.5

    def test_percentile_terminal(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().percentile("x", 0.95, abs=2.0)
        assert handle.query.aggregate is AggregateFunction.PERCENTILE
        assert handle.query.percentile == 0.95
        with pytest.raises(ValueError, match="percentile"):
            conn.table().percentile("x", 1.5, abs=2.0)

    def test_non_positive_topk_rejected(self, scramble):
        conn = _connect(scramble)
        for bad in ({"top": 0}, {"bottom": 0}, {"top": -2}):
            with pytest.raises(ValueError, match="positive integer"):
                conn.table().group_by("g").avg("x", **bad)


class TestHandleResolution:
    def test_result_charges_once_and_caches(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().where("g", "2").avg("x", rel=0.5)
        first = handle.result(start_block=5)
        assert conn.queries_run == 1
        assert handle.resolved
        assert handle.delta == pytest.approx(conn.session_delta / 100)
        assert first.delta == handle.delta
        assert handle.result() is first
        assert conn.queries_run == 1  # no double charge

    def test_ledger_settles_cost_counters(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().avg("x", rel=0.5)
        result = handle.result(start_block=0)
        entry = conn.audit()[0]
        assert entry.rows_read == result.metrics.rows_read > 0

    def test_even_policy_capacity_enforced(self, scramble):
        conn = _connect(scramble, max_queries=1)
        conn.table().avg("x", rel=0.5).result(start_block=0)
        with pytest.raises(RuntimeError, match="run all of them"):
            conn.table().avg("x", rel=0.5).result(start_block=0)

    def test_rounds_streams_and_seals(self, scramble):
        # Rounds fire between windows; shrink the lookahead window below
        # the (small) test scramble so several rounds occur.
        strategy = ScanStrategy()
        strategy.window_blocks = 160
        conn = _connect(
            scramble,
            round_rows=4_000,
            strategy=strategy,
            rng=np.random.default_rng(11),
        )
        handle = conn.table().group_by("g").avg("x", abs=2.0)
        updates = list(handle.rounds(start_block=2))
        assert len(updates) >= 2
        assert [u.round_index for u in updates] == list(
            range(1, len(updates) + 1)
        )
        assert updates[0].rows_read < updates[-1].rows_read
        for update in updates:
            assert set(map(len, update.groups)) == {1}  # decoded 1-col keys
        # Widths shrink (or stay) as rounds accumulate samples.
        first = max(s.interval.width for s in updates[0].groups.values())
        last = max(s.interval.width for s in updates[-1].groups.values())
        assert last <= first
        # The iteration sealed the handle.
        assert handle.resolved
        assert handle.result().metrics.rounds == len(updates)
        assert conn.queries_run == 1

    def test_rounds_matches_plain_result(self, scramble):
        def kwargs():
            strategy = ScanStrategy()
            strategy.window_blocks = 160
            return dict(
                round_rows=4_000,
                strategy=strategy,
                rng=np.random.default_rng(11),
            )

        conn_a = _connect(scramble, **kwargs())
        conn_b = _connect(scramble, **kwargs())
        h_a = conn_a.table().group_by("g").avg("x", abs=2.0)
        h_b = conn_b.table().group_by("g").avg("x", abs=2.0)
        list(h_a.rounds(start_block=2))
        streamed = h_a.result()
        plain = h_b.result(start_block=2)
        assert set(streamed.groups) == set(plain.groups)
        for key in streamed.groups:
            assert streamed.groups[key].interval.lo == pytest.approx(
                plain.groups[key].interval.lo, rel=1e-9, abs=1e-9
            )
            assert streamed.groups[key].interval.hi == pytest.approx(
                plain.groups[key].interval.hi, rel=1e-9, abs=1e-9
            )
        assert streamed.metrics.rows_read == plain.metrics.rows_read

    def test_abandoned_rounds_blocks_reexecution(self, scramble):
        conn = _connect(scramble, round_rows=2_000)
        handle = conn.table().group_by("g").avg("x", abs=2.0)
        iterator = handle.rounds(start_block=0)
        next(iterator)  # charge, then abandon
        iterator.close()
        with pytest.raises(RuntimeError, match="charged but never"):
            handle.result()

    def test_rounds_on_resolved_handle_refuses(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().avg("x", rel=0.5)
        handle.result(start_block=0)
        with pytest.raises(RuntimeError, match="already resolved"):
            next(iter(handle.rounds(start_block=0)))
        assert conn.queries_run == 1  # no second charge

    def test_rounds_validates_at_call_time_not_first_iteration(self, scramble):
        # The consumed-handle contract: rounds() is eager — a resolved
        # handle raises at the call itself, before any iteration.
        conn = _connect(scramble)
        handle = conn.table().avg("x", rel=0.5)
        handle.result(start_block=0)
        with pytest.raises(RuntimeError, match="already resolved"):
            handle.rounds(start_block=0)  # never iterated
        assert conn.queries_run == 1

    def test_rounds_charges_delta_at_call_time(self, scramble):
        conn = _connect(scramble)
        handle = conn.table().group_by("g").avg("x", abs=2.0)
        iterator = handle.rounds(start_block=0)
        # δ is committed the moment rounds() returns, not at first next().
        assert conn.queries_run == 1
        assert handle.delta is not None
        # An un-iterated but charged handle is spent, like an abandoned one.
        with pytest.raises(RuntimeError, match="charged but never"):
            handle.result()
        for _ in iterator:
            pass
        assert handle.resolved


class TestAbandonedRoundsMetrics:
    """Regression: an abandoned rounds() iterator must not leak its cost
    counters into the next execution's ExecutionMetrics.

    The bitmap-index probe counters live on the scramble's cached indexes
    and are merged-and-reset into a run's metrics at finalize().  An
    abandoned rounds() iterator never reached finalize(), so its probes
    sat on the shared indexes and the *next* query over the same scramble
    double-counted them.  rounds() now seals the abandoned run's
    accounting when the generator is closed.
    """

    @staticmethod
    def _make_scramble():
        # > 1 lookahead window (25,600 rows at the default geometry), so a
        # rounds() iterator can be abandoned before the scan is exhausted.
        rng = np.random.default_rng(17)
        n = 60_000
        table = Table(
            continuous={"x": rng.gamma(2.0, 10.0, n)},
            categorical={
                "g": rng.integers(0, 8, n).astype(str),
                "h": rng.integers(0, 3, n).astype(str),
            },
            range_pad=0.1,
        )
        return Scramble(table, rng=np.random.default_rng(18))

    @staticmethod
    def _connect(scramble, strategy, parallelism):
        # ActivePeek probes the bitmap index every window — the counters
        # whose attribution the regression is about.  The scan+parallel
        # leg instead probes through the predicate mask and abandons the
        # threaded driver.
        return connect(
            scramble,
            delta=1e-6,
            strategy=strategy,
            round_rows=5_000,
            engine="pool",
            parallelism=parallelism,
            rng=np.random.default_rng(3),
        )

    def _victim(self, conn):
        # An unachievable target: the iterator cannot complete on its
        # own, so closing it after one update abandons it mid-scan; the
        # WHERE clause gives the scan strategy predicate probes.
        return conn.table().where("h", "1").group_by("g").avg("x", abs=1e-9)

    def _follow_up_metrics(self, strategy, parallelism, abandon: bool):
        scramble = self._make_scramble()
        conn = self._connect(scramble, strategy, parallelism)
        if abandon:
            iterator = self._victim(conn).rounds(start_block=0)
            next(iterator)
            iterator.close()
        return self._victim(conn).result(start_block=0).metrics

    @pytest.mark.parametrize(
        "strategy,parallelism",
        [("activepeek", 1), ("scan", 2)],
        ids=["activepeek-serial", "scan-parallel"],
    )
    def test_abandoned_rounds_does_not_double_count_next_metrics(
        self, strategy, parallelism
    ):
        clean = self._follow_up_metrics(strategy, parallelism, abandon=False)
        after_abandonment = self._follow_up_metrics(
            strategy, parallelism, abandon=True
        )
        assert clean.batch_probes > 0  # the counters under test exist
        assert after_abandonment.batch_probes == clean.batch_probes
        assert after_abandonment.index_probes == clean.index_probes
        assert after_abandonment.blocks_fetched == clean.blocks_fetched
        assert after_abandonment.values_gathered == clean.values_gathered
        assert after_abandonment.rows_read == clean.rows_read

    @pytest.mark.parametrize("entry", ["result", "execute"])
    def test_scan_that_raises_does_not_double_count_next_metrics(
        self, monkeypatch, entry
    ):
        """result() and execute() seal a run whose scan raises, as rounds()
        and gather() do: the probes its windows made before the error must
        not be charged to the next query over the same scramble."""
        import repro.fastframe.executor as executor_module

        clean = self._follow_up_metrics("scan", 1, abandon=False)
        scramble = self._make_scramble()
        conn = self._connect(scramble, "scan", 1)
        calls = itertools.count()
        kernel = executor_module.partition_ingest

        def failing(*args, **kwargs):
            if next(calls) == 1:  # the second window's ingest
                raise KeyError("injected kernel error")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(executor_module, "partition_ingest", failing)
        victim = self._victim(conn)
        with pytest.raises(KeyError, match="injected kernel error"):
            if entry == "result":
                victim.result(start_block=0)
            else:
                ApproximateExecutor(
                    scramble,
                    conn.bounder,
                    strategy=conn.strategy,
                    delta=1e-6,
                    round_rows=5_000,
                    engine="pool",
                    config=conn.config,
                ).execute(victim.query, start_block=0)
        monkeypatch.undo()

        after_failure = self._victim(conn).result(start_block=0).metrics
        assert clean.batch_probes > 0
        assert after_failure.batch_probes == clean.batch_probes
        assert after_failure.index_probes == clean.index_probes

    def test_abandonment_still_poisons_the_handle(self):
        scramble = self._make_scramble()
        conn = self._connect(scramble, "activepeek", 1)
        handle = conn.table().group_by("g").avg("x", abs=1e-9)
        iterator = handle.rounds(start_block=0)
        next(iterator)
        iterator.close()
        # Sealing the abandoned run's accounting must not resolve the
        # handle: its δ is spent and re-execution stays refused.
        assert not handle.resolved
        with pytest.raises(RuntimeError, match="charged but never"):
            handle.result()


class TestGather:
    def _handles(self, conn):
        return [
            conn.sql("SELECT g FROM t GROUP BY g HAVING AVG(x) > 20"),
            conn.table().where("g", "3").avg("x", rel=0.3),
            conn.table().group_by("g").count(abs=2_000.0),
        ]

    def test_gather_resolves_all_handles(self, scramble):
        conn = _connect(scramble)
        handles = self._handles(conn)
        batch = conn.gather(handles, start_block=7)
        assert isinstance(batch, GatherResult)
        assert len(batch) == 3
        for handle, result in zip(handles, batch):
            assert handle.resolved
            assert handle.result() is result
        assert conn.queries_run == 3

    def test_shared_cursor_reads_fewer_rows(self, scramble):
        conn = _connect(scramble)
        batch = conn.gather(self._handles(conn), start_block=7)
        assert batch.rows_read_shared < batch.rows_read_sequential
        assert 0.0 < batch.savings < 1.0
        # The union can never beat the most expensive single query.
        assert batch.rows_read_shared >= max(
            r.metrics.rows_read for r in batch.results
        )

    def test_gather_rejects_foreign_and_spent_handles(self, scramble):
        conn = _connect(scramble)
        other = _connect(scramble)
        with pytest.raises(ValueError, match="at least one"):
            conn.gather([])
        with pytest.raises(ValueError, match="different connection"):
            conn.gather([other.table().avg("x", rel=0.5)])
        spent = conn.table().avg("x", rel=0.5)
        spent.result(start_block=0)
        with pytest.raises(RuntimeError, match="already executed"):
            conn.gather([spent])
        duplicate = conn.table().avg("x", rel=0.5)
        with pytest.raises(ValueError, match="distinct"):
            conn.gather([duplicate, duplicate])

    def test_invalid_query_charges_nothing_and_poisons_nothing(self, scramble):
        """Lazy handles surface bad columns at resolution; the failure
        must not spend δ or strand the co-gathered valid handles."""
        conn = _connect(scramble)
        valid = conn.table().group_by("g").avg("x", abs=2.0)
        bogus = conn.table().avg("nonexistent", rel=0.5)
        with pytest.raises(KeyError):
            conn.gather([valid, bogus], start_block=0)
        assert conn.queries_run == 0
        assert conn.spent_delta == 0.0
        assert valid.result(start_block=0).groups  # still usable
        with pytest.raises(KeyError):
            conn.table().avg("nonexistent", rel=0.5).result(start_block=0)
        assert conn.queries_run == 1  # only the valid resolution charged

    def test_capacity_overflow_charges_nothing(self, scramble):
        conn = _connect(scramble, max_queries=2)
        handles = [conn.table().avg("x", rel=0.5) for _ in range(3)]
        with pytest.raises(RuntimeError, match="only 2 left"):
            conn.gather(handles, start_block=0)
        # The whole-batch pre-check fired before any charge: the budget is
        # untouched and every handle is still freshly usable.
        assert conn.queries_run == 0
        assert conn.spent_delta == 0.0
        assert conn.gather(handles[:2], start_block=0).results

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_batch_bounds_recomputed_counts_fixed_sample_runs(
        self, scramble, parallelism
    ):
        """Fixed-sample runs issue their one bound recomputation inside
        finalize(); every run is sealed inside the scan loop, so the batch
        sum taken at the end of the scan already includes it."""
        conn = _connect(scramble, parallelism=parallelism)
        handles = [
            conn.table().group_by("g").avg("x", samples=200),
            conn.table().avg("x", samples=200),
        ]
        batch = conn.gather(handles, start_block=3)
        per_run = [result.metrics.bounds_recomputed for result in batch.results]
        assert all(count > 0 for count in per_run)
        assert batch.metrics.bounds_recomputed == sum(per_run)

    def test_gather_accepts_a_bare_handle(self, scramble):
        """conn.gather(conn.sql(text)) must work whatever the statement
        count — sql() returns a bare handle for one-statement scripts."""
        conn = _connect(scramble)
        batch = conn.gather(
            conn.sql("SELECT g FROM t GROUP BY g HAVING AVG(x) > 20"),
            start_block=4,
        )
        assert len(batch) == 1 and batch.handles[0].resolved

    def test_single_handle_gather_matches_sequential(self, scramble):
        conn_a = _connect(scramble)
        conn_b = _connect(scramble)
        batch = conn_a.gather(
            [conn_a.table().group_by("g").avg("x", abs=2.0)], start_block=4
        )
        solo = conn_b.table().group_by("g").avg("x", abs=2.0).result(start_block=4)
        gathered = batch[0]
        assert gathered.metrics.rows_read == solo.metrics.rows_read
        assert batch.rows_read_shared == solo.metrics.rows_read
        for key in solo.groups:
            assert gathered.groups[key].interval.lo == pytest.approx(
                solo.groups[key].interval.lo, rel=1e-9, abs=1e-9
            )



#: Every ``repro`` module ``import repro.api`` loads.  A new entry is a
#: deliberate widening of the served path's import surface; the experiment
#: harness, the CLI and the dataset generators must never appear here.
API_IMPORTS = (
    "repro", "repro.api", "repro.api.builder", "repro.api.connection",
    "repro.api.ledger", "repro.bounders", "repro.bounders.anderson",
    "repro.bounders.base", "repro.bounders.bernstein",
    "repro.bounders.hoeffding", "repro.bounders.range_trim",
    "repro.bounders.registry", "repro.cdfbounds", "repro.cdfbounds.dkw",
    "repro.cdfbounds.quantile", "repro.expressions",
    "repro.expressions.bounds", "repro.expressions.expr", "repro.fastframe",
    "repro.fastframe.bitmap", "repro.fastframe.catalog", "repro.fastframe.config",
    "repro.fastframe.count", "repro.fastframe.exact", "repro.fastframe.executor",
    "repro.fastframe.kernels",
    "repro.fastframe.predicate", "repro.fastframe.query", "repro.fastframe.scan",
    "repro.fastframe.scramble", "repro.fastframe.snowflake",
    "repro.fastframe.storage", "repro.fastframe.table", "repro.fastframe.viewpool",
    "repro.fastframe.window", "repro.sql", "repro.sql.ast", "repro.sql.compiler",
    "repro.sql.lexer", "repro.sql.parser", "repro.stats", "repro.stats.delta",
    "repro.stats.streaming", "repro.stopping", "repro.stopping.conditions",
)


def test_import_surface_of_repro_api():
    """A fresh interpreter's ``import repro.api`` loads exactly API_IMPORTS."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    code = (
        "import sys, repro.api\n"
        "print('\\n'.join(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('repro', 'scipy'))))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    # scipy costs about half a second and 45 MB of resident set at import;
    # only convex/concave expression bounds use it, and they import it late.
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]
    assert loaded == sorted(API_IMPORTS)
    assert not [
        name for name in loaded
        if name.startswith(("repro.experiments", "repro.cli", "repro.datasets"))
    ]
