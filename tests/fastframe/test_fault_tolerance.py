"""Chaos suite: injected faults must never change a byte of any answer.

The fault-tolerance contract of :class:`ParallelScanDriver` is the
strongest kind: because worker tasks are pure recomputes folded in
serial (window, query) order, a scan that survives worker crashes,
stragglers, mid-attach failures, or whole-pool death must produce
**byte-identical** ViewPool state, intervals, metrics, and δ spend to
the serial engine — with the recovery visible only in the new
``ExecutionMetrics`` counters.  Every fault here is injected
deterministically through :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.fastframe.config import ExecConfig
from repro.fastframe.executor import ApproximateExecutor, QueryRun, run_shared_scan
from repro.fastframe.parallel import MAX_TASK_ATTEMPTS
from repro.fastframe.query import AggregateFunction, Query, RecoveryCounters
from repro.fastframe.scan import get_strategy
from repro.fastframe.scramble import Scramble
from repro.fastframe.table import Table
from repro.fastframe.window import live_export_segments
from repro.stopping.conditions import AbsoluteAccuracy, RelativeAccuracy
from repro.testing import faults
from repro.testing.faults import (
    FaultPlan,
    POOL_DEATH,
    SHM_ATTACH_FAILURE,
    WORKER_HANG,
    WORKER_RAISE,
)

from tests.support import bounder_pool_bytes

START_BLOCK = 2

#: Straggler sleep: long enough that the 0.3 s deadline always fires
#: first, short enough that the abandoned worker wakes before teardown.
HANG_SECONDS = 1.5
HANG_TIMEOUT = 0.3


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset_faults()
    yield
    faults.reset_faults()


@pytest.fixture(scope="module")
def scramble():
    rng = np.random.default_rng(11)
    n = 40_000
    table = Table(
        continuous={"x": rng.normal(40.0, 12.0, n)},
        categorical={"g": rng.integers(0, 20, n).astype(str)},
        range_pad=0.1,
    )
    return Scramble(table, rng=np.random.default_rng(12))


def _executor(scramble):
    strategy = get_strategy("scan")
    strategy.window_blocks = 256
    return ApproximateExecutor(
        scramble,
        RangeTrimBounder(EmpiricalBernsteinSerflingBounder()),
        strategy=strategy,
        delta=1e-6,
        round_rows=5_000,
        rng=np.random.default_rng(3),
        engine="pool",
    )


def _queries():
    return [
        Query(AggregateFunction.AVG, "x", AbsoluteAccuracy(0.5), group_by=("g",)),
        Query(AggregateFunction.AVG, "x", RelativeAccuracy(0.2)),
    ]


def _pool_snapshot(pool) -> tuple:
    return (
        bounder_pool_bytes(pool.bounder_pool),
        pool.codes.tobytes(),
        pool.sample.count.tobytes(),
        pool.sample.mean.tobytes(),
        pool.sample.m2.tobytes(),
        pool.in_view.tobytes(),
        pool.covered.tobytes(),
        pool.iv_lo.tobytes(),
        pool.iv_hi.tobytes(),
        pool.active.tobytes(),
        pool.exhausted.tobytes(),
    )


def _metrics_snapshot(metrics) -> tuple:
    """Everything deterministic across recovery paths: recovery changes
    where a delta is computed (and so IPC bytes and walls), never the
    scan's shape or any answer."""
    return (
        metrics.rows_read,
        metrics.blocks_fetched,
        metrics.blocks_skipped,
        metrics.index_probes,
        metrics.batch_probes,
        metrics.rounds,
        metrics.values_gathered,
        metrics.bounds_recomputed,
        metrics.stopped_early,
    )


def _run(scramble, parallelism, task_timeout=None):
    """One shared scan; returns (pool snapshots, results, run metrics,
    batch metrics)."""
    executor = _executor(scramble)
    runs = [QueryRun(executor, query) for query in _queries()]
    cursor = executor.cursor(START_BLOCK, window_blocks=runs[0].window_blocks)
    batch = run_shared_scan(
        runs,
        cursor,
        ExecConfig.resolve(parallelism=parallelism, task_timeout=task_timeout),
    )
    results = [run.finalize(merge_index_counters=False) for run in runs]
    return (
        [_pool_snapshot(run.pool) for run in runs],
        results,
        [_metrics_snapshot(run.metrics) for run in runs],
        batch,
    )


def _assert_identical(serial, chaotic, context):
    serial_pools, serial_results, serial_metrics, _ = serial
    chaos_pools, chaos_results, chaos_metrics, _ = chaotic
    assert chaos_pools == serial_pools, f"{context}: ViewPool state diverged"
    assert chaos_metrics == serial_metrics, f"{context}: metrics diverged"
    for left, right in zip(serial_results, chaos_results):
        assert set(left.groups) == set(right.groups), context
        for key, group in left.groups.items():
            other = right.groups[key]
            # Exact equality: recovery recomputes the same float program.
            assert group.interval == other.interval, (context, key)
            assert group.count_interval == other.count_interval, (context, key)
            assert group.estimate == other.estimate, (context, key)
            assert group.samples == other.samples, (context, key)


class TestChaosByteIdentity:
    """ISSUE acceptance: crash, hang, and pool death each recover to
    byte-identical state at parallelism 2, visibly in the counters."""

    @pytest.mark.parametrize(
        "kind, counter, task_timeout",
        [
            (WORKER_RAISE, "tasks_retried", None),
            (SHM_ATTACH_FAILURE, "tasks_retried", None),
            (POOL_DEATH, "pool_rebuilds", None),
            (WORKER_HANG, "tasks_timed_out", HANG_TIMEOUT),
        ],
    )
    def test_injected_fault_recovers_byte_identical(
        self, scramble, kind, counter, task_timeout
    ):
        serial = _run(scramble, parallelism=1)
        faults.install_fault_plan(
            FaultPlan(at_task=2, kinds=(kind,), hang_seconds=HANG_SECONDS)
        )
        chaotic = _run(scramble, parallelism=2, task_timeout=task_timeout)
        faults.reset_faults()
        _assert_identical(serial, chaotic, kind)
        batch = chaotic[3]
        recovery = batch.recovery_snapshot()
        assert recovery, f"{kind}: no recovery recorded"
        assert getattr(recovery, counter) >= 1, (kind, recovery)
        # Serial runs never touch the recovery machinery.
        assert not serial[3].recovery_snapshot()

    def test_retry_exhaustion_falls_back_inline(self, scramble):
        """rate=1.0 faults every dispatch: every offloaded task exhausts
        its attempts and recomputes inline — still byte-identical."""
        serial = _run(scramble, parallelism=1)
        faults.install_fault_plan(FaultPlan(rate=1.0, kinds=(WORKER_RAISE,)))
        chaotic = _run(scramble, parallelism=2)
        faults.reset_faults()
        _assert_identical(serial, chaotic, "retry-exhaustion")
        recovery = chaotic[3].recovery_snapshot()
        assert recovery.inline_fallbacks >= 1
        # Each fallback burned the full dispatch budget first.
        assert recovery.tasks_retried >= (
            recovery.inline_fallbacks * (MAX_TASK_ATTEMPTS - 1)
        )
        # Inline recompute ships nothing over IPC for the fallen-back
        # windows; with every task faulted, nothing ships at all.
        assert chaotic[3].delta_bytes_returned == 0


class TestShmLeakRegression:
    def test_no_segments_leak_after_attach_failure(self, scramble):
        """A worker dying mid-attach (holding a mapped segment) must not
        strand the export: the driver's close + unlink audit runs every
        window, so no segment of ours survives the scan."""
        faults.install_fault_plan(FaultPlan(at_task=1, kinds=(SHM_ATTACH_FAILURE,)))
        _, _, _, batch = _run(scramble, parallelism=2)
        faults.reset_faults()
        assert batch.recovery_snapshot().tasks_retried >= 1
        assert live_export_segments() == ()
        assert batch.shm_cleanup_failures == 0

    def test_no_segments_leak_after_pool_death(self, scramble):
        faults.install_fault_plan(FaultPlan(at_task=1, kinds=(POOL_DEATH,)))
        _, _, _, batch = _run(scramble, parallelism=2)
        faults.reset_faults()
        assert batch.recovery_snapshot().pool_rebuilds >= 1
        assert live_export_segments() == ()


class TestConnectionLevelRecovery:
    """The same contract through the public API: results AND δ spend."""

    def _gather(self, scramble, parallelism, task_timeout=None):
        from repro.api import connect

        strategy = get_strategy("scan")
        strategy.window_blocks = 256
        conn = connect(
            scramble,
            delta=1e-6,
            round_rows=5_000,
            engine="pool",
            strategy=strategy,
            rng=np.random.default_rng(3),
            parallelism=parallelism,
            task_timeout=task_timeout,
        )
        handles = [conn.query(query) for query in _queries()]
        batch = conn.gather(handles, start_block=START_BLOCK)
        return conn, batch

    def test_gather_delta_spend_identical_under_faults(self, scramble):
        serial_conn, serial_batch = self._gather(scramble, parallelism=1)
        faults.install_fault_plan(FaultPlan(at_task=2, kinds=(WORKER_RAISE,)))
        chaos_conn, chaos_batch = self._gather(scramble, parallelism=2)
        faults.reset_faults()
        # δ accounting is bit-identical: same allocations, same spend.
        assert chaos_conn.spent_delta == serial_conn.spent_delta
        assert [entry.delta for entry in chaos_conn.audit()] == [
            entry.delta for entry in serial_conn.audit()
        ]
        for left, right in zip(serial_batch, chaos_batch):
            assert left.delta == right.delta
            for key, group in left.groups.items():
                other = right.groups[key]
                assert group.interval == other.interval
                assert group.estimate == other.estimate
                assert group.samples == other.samples
        assert chaos_batch.metrics.recovery_snapshot().tasks_retried >= 1

    def test_rounds_surface_recovery_counters(self, scramble):
        from repro.api import connect

        strategy = get_strategy("scan")
        strategy.window_blocks = 256
        conn = connect(
            scramble,
            delta=1e-6,
            round_rows=5_000,
            engine="pool",
            strategy=strategy,
            rng=np.random.default_rng(3),
            parallelism=2,
        )
        faults.install_fault_plan(FaultPlan(at_task=1, kinds=(WORKER_RAISE,)))
        handle = conn.table().group_by("g").avg("x", abs=0.5)
        updates = list(handle.rounds(start_block=START_BLOCK))
        faults.reset_faults()
        assert updates
        assert all(isinstance(u.recovery, RecoveryCounters) for u in updates)
        # Counters are cumulative: once the retry happened, every later
        # snapshot carries it.
        assert updates[-1].recovery.tasks_retried >= 1

    def test_rounds_serial_has_no_recovery(self, scramble):
        from repro.api import connect

        strategy = get_strategy("scan")
        strategy.window_blocks = 256
        conn = connect(
            scramble,
            delta=1e-6,
            round_rows=5_000,
            engine="pool",
            strategy=strategy,
            rng=np.random.default_rng(3),
            parallelism=1,
        )
        handle = conn.table().group_by("g").avg("x", abs=0.5)
        updates = list(handle.rounds(start_block=START_BLOCK))
        assert updates
        assert all(u.recovery is None for u in updates)


class TestFaultPlanDeterminism:
    def _draw_sequence(self, plan, draws=30):
        faults.install_fault_plan(plan)
        sequence = tuple(
            (d or {}).get("kind") for d in (faults.draw_task_fault() for _ in range(draws))
        )
        faults.reset_faults()
        return sequence

    def test_same_seed_same_sequence(self):
        plan = FaultPlan(rate=0.4, seed=5, kinds=(WORKER_RAISE, POOL_DEATH))
        first = self._draw_sequence(plan)
        second = self._draw_sequence(plan)
        assert first == second
        assert any(kind is not None for kind in first)

    def test_different_seed_different_sequence(self):
        base = FaultPlan(rate=0.4, seed=5)
        other = FaultPlan(rate=0.4, seed=6)
        assert self._draw_sequence(base) != self._draw_sequence(other)

    def test_at_task_pins_exactly_one_fault(self):
        plan = FaultPlan(at_task=3, kinds=(WORKER_HANG,))
        sequence = self._draw_sequence(plan, draws=10)
        assert sequence[2] == WORKER_HANG
        assert all(kind is None for i, kind in enumerate(sequence) if i != 2)

    def test_max_faults_caps_injections(self):
        plan = FaultPlan(rate=1.0, max_faults=2)
        sequence = self._draw_sequence(plan, draws=10)
        assert sum(kind is not None for kind in sequence) == 2

    def test_zero_rate_plan_draws_but_never_fires(self):
        plan = FaultPlan(rate=0.0)
        sequence = self._draw_sequence(plan, draws=10)
        assert all(kind is None for kind in sequence)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kinds=())
        with pytest.raises(ValueError):
            FaultPlan(kinds=("made-up",))
        with pytest.raises(TypeError):
            faults.install_fault_plan({"rate": 1.0})

    def test_env_driven_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        monkeypatch.setenv(
            "REPRO_FAULT_KINDS", "worker-raise, shm-attach-failure"
        )
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "0.5")
        plan = faults.active_fault_plan()
        assert plan == FaultPlan(
            rate=0.25,
            seed=9,
            kinds=(WORKER_RAISE, SHM_ATTACH_FAILURE),
            hang_seconds=0.5,
        )
        # Installed plans win over the environment.
        pinned = faults.install_fault_plan(FaultPlan(at_task=1))
        assert faults.active_fault_plan() is pinned

    def test_env_chaos_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
        assert faults.active_fault_plan() is None
        assert faults.draw_task_fault() is None

