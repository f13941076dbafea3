"""The reference-answer gate: no time counts before its answer is checked.

Per distinct statement the truth is one ``ExactExecutor`` run, computed
untimed in the prepare stage.  An op fails if it raised, if any group's
certified interval excludes that truth, or — on the non-reference
dashboards — if any interval endpoint or ``rows_read`` differs (``==``)
from ``dashboard_resident``'s result for the same (statement, start_block).
"""

from __future__ import annotations

import math
import time

#: Relative slack on containment: the exact answer and the approximate
#: estimate sum the same floats in different orders.
CONTAINMENT_RTOL = 1e-9


def truth_key(query) -> str:
    """What a statement asks, without how it decides to stop.

    F-q1 at three epsilons, or F-q2 at three thresholds, share one exact
    answer; only the stopping condition differs.
    """
    return query.describe().split(" STOP WHEN ")[0]


def compute_truths(scramble, queries) -> dict:
    """``truth_key`` -> {"values": {group key: exact value}, "exact_ms": ...}."""
    from repro import ExactExecutor

    exact = ExactExecutor(scramble)
    truths: dict = {}
    for query in queries:
        key = truth_key(query)
        if key in truths:
            continue
        start = time.perf_counter()
        result = exact.execute(query)
        elapsed = time.perf_counter() - start
        truths[key] = {
            "values": {k: g.estimate for k, g in result.groups.items()},
            "exact_ms": elapsed * 1e3,
        }
    return truths


def width_scale(query, scramble) -> float:
    """What a certified interval's width is a fraction of.

    The aggregated column's catalog range for AVG / MEDIAN / PERCENTILE;
    the table size for COUNT; their product for SUM.
    """
    rows = float(scramble.num_rows)
    if query.aggregate.value == "COUNT":
        return rows
    bounds = scramble.table.catalog.bounds(query.column)
    if query.aggregate.value == "SUM":
        return rows * max(abs(bounds.a), abs(bounds.b))
    return bounds.b - bounds.a


def digest(result) -> tuple:
    """Everything parity compares: rows_read and every interval endpoint."""
    groups = sorted(
        ((key, g.interval.lo, g.interval.hi) for key, g in result.groups.items()),
        key=lambda item: repr(item[0]),
    )
    return (result.metrics.rows_read, tuple(groups))


def excluded_groups(result, truth_values: dict) -> list:
    """Group keys whose certified interval excludes the exact answer.

    A group the exact answer does not have holds no row, so its aggregate
    is undefined and any interval is vacuous — except COUNT, where the
    truth is 0.
    """
    is_count = result.query.aggregate.value == "COUNT"
    bad = []
    for key, group in result.groups.items():
        truth = truth_values.get(key, 0.0 if is_count else None)
        if truth is None:
            continue
        slack = CONTAINMENT_RTOL * max(1.0, abs(truth))
        lo, hi = group.interval
        if not (lo - slack <= truth <= hi + slack) or math.isnan(lo) or math.isnan(hi):
            bad.append(key)
    return bad


def check_record(record, truths: dict, reference: dict | None) -> str | None:
    """Why this op failed, or ``None`` if every answer checks out.

    ``reference`` maps start_block -> per-statement digests from
    ``dashboard_resident`` (``None`` on workloads with no parity contract).
    """
    if record.error is not None:
        return record.error
    for result in record.results:
        bad = excluded_groups(result, truths[truth_key(result.query)]["values"])
        if bad:
            return (
                f"{truth_key(result.query)}: certified interval excludes the "
                f"exact answer for {len(bad)} group(s), e.g. {bad[0]!r}"
            )
    if reference is not None:
        expected = reference[record.op.start_block]
        for position, result in enumerate(record.results):
            if digest(result) != expected[position]:
                return (
                    f"{truth_key(result.query)}: differs from dashboard_resident "
                    f"at start_block {record.op.start_block}"
                )
    return None
