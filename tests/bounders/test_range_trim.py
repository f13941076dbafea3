"""Tests for the RangeTrim meta-bounder (Algorithms 4 and 6) — §3."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounders.base import ErrorBounder
from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.hoeffding import HoeffdingSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.bounders.registry import get_bounder
from repro.datasets.synthetic import DATASET_GENERATORS
from repro.stats.streaming import MomentState

value_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=120,
)


@pytest.fixture(params=["bernstein", "hoeffding"])
def trimmed(request):
    inner = (
        EmpiricalBernsteinSerflingBounder()
        if request.param == "bernstein"
        else HoeffdingSerflingBounder()
    )
    return RangeTrimBounder(inner)


class TestStateSemantics:
    def test_name_suffix(self, trimmed):
        assert trimmed.name.endswith("+RT")

    def test_first_sample_only_seeds_extrema(self, trimmed):
        """Algorithm 4 lines 3-4: sample 1 initializes a', b' and is not
        fed to the inner bounders."""
        state = trimmed.init_state()
        trimmed.update(state, 42.0)
        assert state.count == 1
        assert state.extrema.min == state.extrema.max == 42.0
        assert trimmed.inner.sample_count(state.left) == 0
        assert trimmed.inner.sample_count(state.right) == 0

    def test_inner_sees_m_minus_one(self, trimmed):
        state = trimmed.init_state()
        for value in (1.0, 2.0, 3.0, 4.0):
            trimmed.update(state, value)
        assert trimmed.sample_count(state) == 4
        assert trimmed.inner.sample_count(state.left) == 3
        assert trimmed.inner.sample_count(state.right) == 3

    def test_clipping_uses_prior_extrema(self):
        """Algorithm 4 lines 7-8: value i is clipped at the extrema of
        values < i, not including itself."""
        inner = EmpiricalBernsteinSerflingBounder()
        trimmed = RangeTrimBounder(inner)
        state = trimmed.init_state()
        trimmed.update(state, 10.0)   # seeds a'=b'=10
        trimmed.update(state, 50.0)   # clipped to min(50, 10) = 10 for left
        assert state.left.mean == pytest.approx(10.0)
        assert state.right.mean == pytest.approx(50.0)  # max(50, 10)
        trimmed.update(state, 0.0)    # left: min(0, 50)=0; right: max(0, 10)=10
        assert state.left.mean == pytest.approx((10.0 + 0.0) / 2)
        assert state.right.mean == pytest.approx((50.0 + 10.0) / 2)

    def test_empty_state_trivial_bounds(self, trimmed):
        state = trimmed.init_state()
        assert trimmed.lbound(state, -1, 1, 100, 0.1) == -1
        assert trimmed.rbound(state, -1, 1, 100, 0.1) == 1

    def test_single_sample_trivial_bounds(self, trimmed):
        state = trimmed.init_state()
        trimmed.update(state, 0.3)
        assert trimmed.lbound(state, 0, 1, 100, 0.1) == 0
        assert trimmed.rbound(state, 0, 1, 100, 0.1) == 1

    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_property_batch_equals_sequential(self, values):
        inner = EmpiricalBernsteinSerflingBounder()
        seq = RangeTrimBounder(inner)
        seq_state = seq.init_state()
        for value in values:
            seq.update(seq_state, value)
        batch = RangeTrimBounder(inner)
        batch_state = batch.init_state()
        batch.update_batch(batch_state, np.array(values))
        assert batch_state.count == seq_state.count
        assert batch_state.extrema.min == seq_state.extrema.min
        assert batch_state.extrema.max == seq_state.extrema.max
        assert batch_state.left.mean == pytest.approx(seq_state.left.mean, abs=1e-9)
        assert batch_state.right.mean == pytest.approx(seq_state.right.mean, abs=1e-9)
        assert batch_state.left.m2 == pytest.approx(seq_state.left.m2, abs=1e-6)

    def test_batch_split_points_do_not_matter(self, rng, trimmed):
        values = rng.normal(0, 10, 500)
        one_shot = trimmed.init_state()
        trimmed.update_batch(one_shot, values)
        chunked = trimmed.init_state()
        for chunk in np.array_split(values, 13):
            trimmed.update_batch(chunked, chunk)
        assert chunked.extrema.max == one_shot.extrema.max
        assert chunked.left.mean == pytest.approx(one_shot.left.mean, rel=1e-12)


class TestPhosElimination:
    def test_lbound_independent_of_b(self, rng, trimmed):
        """Definition 3 / §3.2: the trimmed Lbound never reads b."""
        state = trimmed.init_state()
        trimmed.update_batch(state, rng.uniform(10, 20, 300))
        assert trimmed.lbound(state, 0, 100, 10_000, 0.05) == trimmed.lbound(
            state, 0, 1_000_000, 10_000, 0.05
        )

    def test_rbound_independent_of_a(self, rng, trimmed):
        state = trimmed.init_state()
        trimmed.update_batch(state, rng.uniform(10, 20, 300))
        assert trimmed.rbound(state, 0, 100, 10_000, 0.05) == trimmed.rbound(
            state, -1_000_000, 100, 10_000, 0.05
        )

    def test_tighter_than_inner_when_effective_range_small(self, rng):
        """The headline effect: when (MAX−MIN) ≪ (b−a), RangeTrim's interval
        is tighter — by up to 2×, since each trimmed side still keeps one
        catalog endpoint (§5.4.1: PHOS costs 'roughly twice as many
        samples' for bottleneck groups)."""
        inner = EmpiricalBernsteinSerflingBounder()
        trimmed = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
        values = rng.uniform(45, 55, 2_000)  # effective range 10 vs 1000
        a, b, n, delta = 0.0, 1_000.0, 1_000_000, 1e-10
        plain_state = inner.init_state()
        inner.update_batch(plain_state, values)
        trim_state = trimmed.init_state()
        trimmed.update_batch(trim_state, values)
        half = delta / 2.0
        plain_width = inner.rbound(plain_state, a, b, n, half) - inner.lbound(
            plain_state, a, b, n, half
        )
        trim_width = trimmed.rbound(trim_state, a, b, n, half) - trimmed.lbound(
            trim_state, a, b, n, half
        )
        assert trim_width < plain_width / 1.5
        # The trimmed lower bound (range [a, max S]) improves most here.
        assert trimmed.lbound(trim_state, a, b, n, half) > inner.lbound(
            plain_state, a, b, n, half
        )

    def test_never_much_worse_than_inner(self, rng):
        """Worst case (data spanning the full range): RangeTrim costs only
        the one withheld sample and the δ bookkeeping — 'without ever
        hurting performance in the worst case' (§7)."""
        inner = HoeffdingSerflingBounder()
        trimmed = RangeTrimBounder(HoeffdingSerflingBounder())
        values = rng.choice([0.0, 1.0], 2_000)
        plain_state = inner.init_state()
        inner.update_batch(plain_state, values)
        trim_state = trimmed.init_state()
        trimmed.update_batch(trim_state, values)
        plain_ci = inner.confidence_interval(plain_state, 0, 1, 100_000, 0.05)
        trim_ci = trimmed.confidence_interval(trim_state, 0, 1, 100_000, 0.05)
        assert trim_ci.width <= plain_ci.width * 1.01

    @pytest.mark.parametrize("regime,seed,slack", [
        ("outlier", 23, 1.01), ("two-point", 29, 1.05),
    ])
    def test_realized_widths_by_regime(self, regime, seed, slack):
        """5 000 of 500 000 rows at δ = 1e-9.  In the outlier-inflated range
        Bernstein is under half Hoeffding's width (no PMA); in both regimes,
        Hoeffding's optimal two-point case included, RangeTrim stays within
        ``slack`` of its plain bounder."""
        data, a, b = DATASET_GENERATORS[regime](500_000, np.random.default_rng(seed))
        sample = data[np.random.default_rng(0).permutation(data.size)[:5_000]]
        widths = {}
        for name in ("hoeffding", "hoeffding+rt", "bernstein", "bernstein+rt"):
            bounder = get_bounder(name)
            state = bounder.init_state()
            bounder.update_batch(state, sample)
            interval = bounder.confidence_interval(state, a, b, data.size, 1e-9)
            widths[name] = interval.width
        for plain in ("hoeffding", "bernstein"):
            assert widths[plain + "+rt"] <= widths[plain] * slack, widths
        if regime == "outlier":
            assert widths["bernstein"] < widths["hoeffding"] / 2, widths


class TestCorrectness:
    def test_bounds_bracket_dataset_mean_typical(self, rng, trimmed):
        data = rng.lognormal(0, 1, 50_000).clip(0, 50)
        sample = rng.choice(data, 3_000, replace=False)
        state = trimmed.init_state()
        trimmed.update_batch(state, sample)
        ci = trimmed.confidence_interval(state, 0, 50, data.size, 0.05)
        assert ci.lo <= data.mean() <= ci.hi

    def test_estimate_close_to_sample_mean(self, rng, trimmed):
        values = rng.normal(5, 2, 1_000)
        state = trimmed.init_state()
        trimmed.update_batch(state, values)
        assert trimmed.estimate(state) == pytest.approx(values.mean(), abs=0.5)

    def test_estimate_raises_on_empty(self, trimmed):
        with pytest.raises(ValueError):
            trimmed.estimate(trimmed.init_state())

    def test_dataset_size_monotonicity(self, rng, trimmed):
        state = trimmed.init_state()
        trimmed.update_batch(state, rng.uniform(0, 1, 200))
        lb = [trimmed.lbound(state, 0, 1, n, 0.05) for n in (400, 4_000, 400_000)]
        rb = [trimmed.rbound(state, 0, 1, n, 0.05) for n in (400, 4_000, 400_000)]
        assert lb[0] >= lb[1] >= lb[2]
        assert rb[0] <= rb[1] <= rb[2]

    def test_composes_with_any_range_based_bounder(self):
        """§3.2: RangeTrim wraps *any* range-based bounder, including
        already-wrapped ones (double wrapping is valid, if pointless)."""
        double = RangeTrimBounder(RangeTrimBounder(HoeffdingSerflingBounder()))
        state = double.init_state()
        double.update_batch(state, np.linspace(0, 1, 50))
        ci = double.confidence_interval(state, 0, 1, 1_000, 0.1)
        assert 0.0 <= ci.lo <= ci.hi <= 1.0


class _RecordingBounder(ErrorBounder):
    """Inner bounder whose state is the list of values it was fed.

    Scalar interface only, so ``RangeTrimBounder(_RecordingBounder())``
    exposes the exact clipped streams: per-element through ``update``, per
    batch through ``update_batch``, per window through the loop fall-back
    of ``update_pool``.
    """

    def init_state(self):
        return []

    def update(self, state, value):
        state.append(value)

    def update_batch(self, state, values):
        state.extend(np.asarray(values, dtype=np.float64).tolist())

    def sample_count(self, state):
        return len(state)

    def lbound(self, state, a, b, n, delta):
        return a

    def rbound(self, state, a, b, n, delta):
        return b


#: Few distinct values (ties, repeated records) mixed with arbitrary floats
#: and the infinities (which become +-inf carries for later windows).
_clip_values = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, float("inf"), float("-inf")]),
    st.floats(allow_nan=False, width=32),
)
_window = st.lists(st.tuples(st.integers(0, 3), _clip_values), max_size=40)


def _sorted_stream(window):
    """``(indices, values)`` sorted by view with ties in stream order."""
    views = np.array([view for view, _ in window], dtype=np.int64)
    values = np.array([value for _, value in window], dtype=np.float64)
    order = np.argsort(views, kind="stable")
    return views[order], values[order]


def _assert_pool_equals_states(pool, states):
    for slot, state in enumerate(states):
        assert pool.left[slot] == state.left
        assert pool.right[slot] == state.right
        assert pool.count[slot] == state.count
        assert pool.max[slot] == state.extrema.max
        assert pool.min[slot] == state.extrema.min


class TestRecordOnlyClip:
    """The record-only clip is the per-element Algorithm 6, element for
    element (``==``): clipped streams, which elements feed, extrema, counts."""

    @given(st.lists(_window, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_property_pool_and_batch_equal_per_element_update(self, windows):
        trimmed = RangeTrimBounder(_RecordingBounder())
        pool = trimmed.init_pool(4)
        batched = [trimmed.init_state() for _ in range(4)]
        reference = [trimmed.init_state() for _ in range(4)]
        for window in windows:
            indices, values = _sorted_stream(window)
            trimmed.update_pool(pool, indices, values)
            for slot in range(4):
                segment = values[indices == slot]
                trimmed.update_batch(batched[slot], segment)
                for value in segment:
                    trimmed.update(reference[slot], float(value))
            _assert_pool_equals_states(pool, reference)
            for state, expected in zip(batched, reference):
                assert state == expected

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_monotone_stream_is_all_records(self, direction):
        """Sorted input: every element is a record on one side, none on
        the other — the all-candidates worst case."""
        trimmed = RangeTrimBounder(_RecordingBounder())
        values = direction * np.arange(50.0)
        state = trimmed.init_state()
        trimmed.update_batch(state, values[:20])
        trimmed.update_batch(state, values[20:])
        clipped, raw = (state.left, state.right) if direction > 0 else (
            state.right, state.left
        )
        assert clipped == values[:-1].tolist()  # each clipped to its predecessor
        assert raw == values[1:].tolist()
        assert state.count == 50

    def test_fresh_views_seed_and_single_element_segments(self):
        trimmed = RangeTrimBounder(_RecordingBounder())
        pool = trimmed.init_pool(3)
        # Every segment is a single element of a fresh view: all seeds.
        trimmed.update_pool(pool, np.array([0, 1, 2]), np.array([5.0, 6.0, 7.0]))
        assert pool.left == [[], [], []] and pool.right == [[], [], []]
        assert pool.count.tolist() == [1, 1, 1]
        assert pool.max.tolist() == pool.min.tolist() == [5.0, 6.0, 7.0]
        # Single-element segments of seeded views: a record, a tie, no record.
        trimmed.update_pool(pool, np.array([0, 1, 2]), np.array([9.0, 6.0, 7.0]))
        assert pool.left == [[5.0], [6.0], [7.0]]
        assert pool.right == [[9.0], [6.0], [7.0]]
        assert pool.max.tolist() == [9.0, 6.0, 7.0]

    def test_empty_input_is_a_noop(self):
        trimmed = RangeTrimBounder(_RecordingBounder())
        pool = trimmed.init_pool(2)
        trimmed.update_pool(pool, np.zeros(0, dtype=np.int64), np.zeros(0))
        state = trimmed.init_state()
        trimmed.update_batch(state, np.zeros(0))
        assert pool.count.tolist() == [0, 0] and pool.left == [[], []]
        assert state == trimmed.init_state()


class TestSharedMoments:
    """The scalar engine reduces a segment once and hands the moments to
    every consumer; each must end up bit-equal to reducing it itself."""

    @pytest.mark.parametrize("inner_cls", [
        EmpiricalBernsteinSerflingBounder, HoeffdingSerflingBounder,
    ])
    def test_no_record_batch_bit_equal_to_independent_updates(self, rng, inner_cls):
        trimmed = RangeTrimBounder(inner_cls())
        history = rng.normal(0.0, 10.0, 300)
        batch = rng.uniform(history.min(), history.max(), 200)  # no record
        shared_rt, alone_rt = trimmed.init_state(), trimmed.init_state()
        shared = [MomentState(), MomentState()]
        alone = [MomentState(), MomentState()]
        for state in (shared_rt, alone_rt):
            trimmed.update_batch(state, history)
        for moments in (*shared, *alone):
            moments.update_batch(history)

        handed = MomentState.batch_moments(batch)
        for moments in shared:
            moments.merge_moments(*handed)
        trimmed.update_batch_with_moments(shared_rt, batch, handed)
        for moments in alone:
            moments.update_batch(batch)
        trimmed.inner.update_batch(alone_rt.left, batch)
        trimmed.inner.update_batch(alone_rt.right, batch)

        assert shared == alone
        assert shared_rt.left == alone_rt.left
        assert shared_rt.right == alone_rt.right
        assert shared_rt.extrema == alone_rt.extrema
        assert shared_rt.count == alone_rt.count + batch.size

    def test_batch_with_a_record_ignores_the_hand_down(self, rng):
        """A record makes the clipped streams differ from the batch, so the
        handed-down moments (of the raw batch) must not reach the inners."""
        trimmed = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
        history = rng.normal(0.0, 1.0, 100)
        batch = np.append(rng.normal(0.0, 1.0, 50), 1e6)
        expected, got = trimmed.init_state(), trimmed.init_state()
        for state in (expected, got):
            trimmed.update_batch(state, history)
        trimmed.update_batch(expected, batch)
        trimmed.update_batch_with_moments(
            got, batch, MomentState.batch_moments(batch)
        )
        assert got == expected
        assert got.left.mean < 1e3 < got.right.mean

    def test_seed_batch_ignores_the_hand_down(self, rng):
        """A fresh state's first element only seeds the extrema, so the
        moments of the whole batch do not describe what the inners see."""
        trimmed = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
        batch = np.full(20, 3.0)
        batch[0] = 4.0
        expected, got = trimmed.init_state(), trimmed.init_state()
        trimmed.update_batch(expected, batch)
        trimmed.update_batch_with_moments(
            got, batch, MomentState.batch_moments(batch)
        )
        assert got == expected
        assert got.right.count == 19
