"""RangeTrim's two sides derived from a window's moments by correction.

A window folds into RangeTrim by correcting the window's per-view (count,
mean, M2) for each view's dropped seed and strict new records
(``range_trim._fold_sides``), on the pool path (``ViewPool.apply_ingest``
over a stream-order window, frozen views masked out) and on the scalar
path (``update_batch_with_moments`` per view).  Both must agree with the
per-element Algorithm 6 loop, ``RangeTrimBounder.update``: each side's
(count, mean, M2) and every CI endpoint within the ≤ 1e-9 parity
tolerance, the extrema and counts exactly — on heavy tails, a lone 1e12
outlier record, sorted input (every row a record), constant data, fresh
views of one and two rows, and windows in which some views are frozen.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounders.bernstein import EmpiricalBernsteinSerflingBounder
from repro.bounders.hoeffding import HoeffdingSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.fastframe.kernels import IngestDelta
from repro.fastframe.viewpool import ViewPool
from repro.stats.streaming import MomentState

RTOL = ATOL = 1e-9
DELTA = 1e-6
KINDS = ("heavy", "outlier", "ascending", "descending", "constant", "tiny")


def _close(got, expected, context):
    assert got == pytest.approx(expected, rel=RTOL, abs=ATOL), context


def _values(kind, rng, n, window, draw):
    if kind == "heavy":
        df = draw(st.sampled_from([1.0, 1.5, 2.5]))
        return rng.standard_t(df, n) * 10.0 ** draw(st.integers(0, 6))
    if kind == "outlier":
        # One 1e12 record in the whole stream, in its first window: any
        # second one of either sign would make every summation order
        # disagree in the low digits.
        values = rng.normal(5.0, 1.0, n)
        if n and window == 0:
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1e12, -1e12]))
        return values
    if kind in ("ascending", "descending"):
        values = np.sort(rng.normal(0.0, 3.0, n)) + 10.0 * window
        return values if kind == "ascending" else -values
    if kind == "constant":
        return np.full(n, draw(st.sampled_from([0.0, -3.5, 1e6])))
    return rng.normal(0.0, 2.0, n)  # tiny


@st.composite
def _cases(draw):
    """``(size, windows)``: each window ``(views, values, frozen)`` in
    stream order, ``frozen`` the views that do not take it."""
    size = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(KINDS))
    windows = []
    for window in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "tiny" and window == 0:
            # Fresh views of one and two rows.
            views = rng.permutation(np.repeat(np.arange(size), rng.integers(1, 3, size)))
        else:
            views = rng.integers(0, size, draw(st.integers(0, 60)))
        values = _values(kind, rng, views.size, window, draw)
        frozen = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        if window == 0 or not draw(st.booleans()):
            frozen[:] = False
        windows.append((views.astype(np.intp), values, frozen))
    return size, windows


def _fold_all(bounder, size, windows):
    """The pool, the scalar states and the per-element reference states
    after every window."""
    pool = ViewPool.build(np.arange(size), [(v,) for v in range(size)], bounder)
    scalar = [bounder.init_state() for _ in range(size)]
    reference = [bounder.init_state() for _ in range(size)]
    for views, values, frozen in windows:
        pool.active[:] = ~frozen
        delta = IngestDelta(views.size, views.size, views, values)
        pool.apply_ingest(bounder, delta, views.size, freezes_groups=True)
        for view in np.flatnonzero(~frozen):
            segment = values[views == view]
            if segment.size:
                bounder.update_batch_with_moments(
                    scalar[view], segment, MomentState.batch_moments(segment)
                )
            for value in segment:
                bounder.update(reference[view], float(value))
    return pool.bounder_pool, scalar, reference


def _side_of(pool, name, view):
    side = getattr(pool, name)
    return side.count[view], side.mean[view], side.m2[view]


@pytest.mark.parametrize(
    "inner", [EmpiricalBernsteinSerflingBounder, HoeffdingSerflingBounder]
)
@settings(max_examples=300, deadline=None)
@given(case=_cases())
def test_pool_and_scalar_sides_match_per_element_update(inner, case):
    size, windows = case
    bounder = RangeTrimBounder(inner())
    pool, scalar, reference = _fold_all(bounder, size, windows)
    values = np.concatenate([window[1] for window in windows])
    a = float(values.min(initial=0.0)) - 1.0
    b = float(values.max(initial=0.0)) + 1.0
    n_plus = np.full(size, 10 * values.size + 10)
    lo, hi = bounder.confidence_interval_batch(pool, a, b, n_plus, DELTA)
    for view, (state, expected) in enumerate(zip(scalar, reference)):
        assert pool.count[view] == state.count == expected.count
        assert pool.min[view] == state.extrema.min == expected.extrema.min
        assert pool.max[view] == state.extrema.max == expected.extrema.max
        for name in ("left", "right"):
            want = getattr(expected, name)
            for got, path in (
                (_side_of(pool, name, view), "pool"),
                ((getattr(state, name).count, getattr(state, name).mean,
                  getattr(state, name).m2), "scalar"),
            ):
                context = (path, name, view)
                assert got[0] == want.count, context
                _close(got[1], want.mean, context)
                _close(got[2], want.m2, context)
        want_iv = bounder.confidence_interval(expected, a, b, int(n_plus[view]), DELTA)
        got_iv = bounder.confidence_interval(state, a, b, int(n_plus[view]), DELTA)
        for got_lo, got_hi, path in ((lo[view], hi[view], "pool"), (*got_iv, "scalar")):
            _close(got_lo, want_iv.lo, (path, "lo", view))
            _close(got_hi, want_iv.hi, (path, "hi", view))


def test_lone_outlier_record_leaves_the_left_side_untouched():
    """A 1e12 record of a view holding samples is clipped to the prior
    max on the left side; the cancellation guard reduces that view
    directly, so the left side keeps the digits of the O(1) data."""
    bounder = RangeTrimBounder(EmpiricalBernsteinSerflingBounder())
    rng = np.random.default_rng(7)
    history = rng.normal(5.0, 1.0, 200)
    window = rng.normal(5.0, 1.0, 50)
    window[17] = 1e12
    state, reference = bounder.init_state(), bounder.init_state()
    for batch in (history, window):
        bounder.update_batch(state, batch)
        for value in batch:
            bounder.update(reference, float(value))
    assert state.left.mean == pytest.approx(reference.left.mean, rel=1e-12)
    assert state.left.m2 == pytest.approx(reference.left.m2, rel=1e-12)
