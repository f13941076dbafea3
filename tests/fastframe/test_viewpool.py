"""ViewPool unit regressions: checked lookup, per-endpoint snapshot clamp,
and the incremental snapshot cache's mark_dirty contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from repro.fastframe.kernels import lookup_codes
from repro.fastframe.viewpool import ViewPool


def _pool(domain=(2, 5, 9)):
    codes = np.array(domain, dtype=np.int64)
    key_codes = [(int(code),) for code in codes]
    return ViewPool.build(codes, key_codes, get_bounder("bernstein+rt"))


class TestCheckedLookup:
    def test_in_domain_codes_resolve(self):
        pool = _pool()
        np.testing.assert_array_equal(
            lookup_codes(pool.codes, np.array([2, 9, 5, 2])), [0, 2, 1, 0]
        )

    def test_empty_lookup_is_fine(self):
        pool = _pool()
        assert lookup_codes(pool.codes, np.array([], dtype=np.int64)).size == 0

    def test_out_of_domain_between_codes_raises(self):
        # Pre-fix, searchsorted silently mapped 3 onto the row of code 5 —
        # corrupting a neighboring view's counters.
        pool = _pool()
        with pytest.raises(KeyError, match=r"\[3\]"):
            lookup_codes(pool.codes, np.array([5, 3]))

    def test_below_domain_raises(self):
        pool = _pool()
        with pytest.raises(KeyError):
            lookup_codes(pool.codes, np.array([1]))

    def test_above_domain_raises(self):
        # searchsorted returns len(codes) here; unguarded, that index is
        # out of bounds for every downstream scatter.
        pool = _pool()
        with pytest.raises(KeyError):
            lookup_codes(pool.codes, np.array([11]))

    def test_miss_does_not_corrupt_neighbor(self):
        pool = _pool()
        before = pool.in_view.copy()
        with pytest.raises(KeyError):
            lookup_codes(pool.codes, np.array([3]))
        np.testing.assert_array_equal(pool.in_view, before)


class TestSnapshotClamp:
    def test_trivial_interval_reports_full_range(self):
        pool = _pool()
        columns = pool.snapshot_columns(0.0, 10.0)
        np.testing.assert_array_equal(columns.lo, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(columns.hi, [10.0, 10.0, 10.0])

    def test_half_finite_interval_keeps_certified_bound(self):
        # Pre-fix, a half-finite certified interval was treated as trivial
        # and BOTH endpoints were replaced with the value range.
        pool = _pool()
        pool.iv_lo[1] = 3.0  # certified lower bound; upper still trivial
        pool.mark_dirty(np.array([False, True, False]))
        columns = pool.snapshot_columns(0.0, 10.0)
        assert columns.lo[1] == 3.0
        assert columns.hi[1] == 10.0
        pool.iv_hi[0] = 7.5  # certified upper bound; lower still trivial
        pool.mark_dirty(np.array([True, False, False]))
        columns = pool.snapshot_columns(0.0, 10.0)
        assert columns.lo[0] == 0.0
        assert columns.hi[0] == 7.5

    def test_finite_interval_untouched_and_estimate_midpoint(self):
        pool = _pool()
        pool.iv_lo[2] = 4.0
        pool.iv_hi[2] = 6.0
        pool.mark_dirty(np.array([False, False, True]))
        columns = pool.snapshot_columns(0.0, 10.0)
        assert (columns.lo[2], columns.hi[2]) == (4.0, 6.0)
        assert columns.estimate[2] == 5.0  # no samples yet → midpoint

    def test_dropped_rows_excluded_and_rows_attr_maps_back(self):
        pool = _pool()
        pool.dropped[1] = True
        columns = pool.snapshot_columns(0.0, 10.0)
        np.testing.assert_array_equal(columns.rows, [0, 2])
        np.testing.assert_array_equal(columns.keys, [2, 9])


class TestSnapshotCache:
    def test_direct_writes_need_mark_dirty(self):
        # The documented contract: snapshot columns are cached per row and
        # refreshed only for rows flagged via mark_dirty.
        pool = _pool()
        pool.snapshot_columns(0.0, 10.0)
        pool.iv_lo[0] = 2.0
        stale = pool.snapshot_columns(0.0, 10.0)
        assert stale.lo[0] == 0.0  # cache not invalidated
        pool.mark_dirty(np.array([True, False, False]))
        fresh = pool.snapshot_columns(0.0, 10.0)
        assert fresh.lo[0] == 2.0

    def test_changing_bounds_invalidates_cache(self):
        pool = _pool()
        first = pool.snapshot_columns(0.0, 10.0)
        assert first.hi[0] == 10.0
        second = pool.snapshot_columns(0.0, 20.0)
        assert second.hi[0] == 20.0
