"""Regenerate the paper's evaluation: Tables 5-6 and Figures 6-8 (§5).

Every cell runs one of the nine Flights queries (compiled from Figure 5's
SQL by :mod:`repro.datasets.queries`) on a fresh single-query connection,
``connect(...).query(q).result()``, and checks its answer against the
Exact baseline before it is scored::

    PYTHONPATH=src python benchmarks/paper.py table5 --rows 100000 --reps 1
    PYTHONPATH=src python benchmarks/paper.py fig7a --delta 1e-6

``table5`` / ``table6``
    The speedup tables (bounder ablation / sampling-strategy ablation).
``fig6`` / ``fig7a`` / ``fig7b`` / ``fig8``
    The parameter sweeps behind each figure.

Every command accepts ``--rows``, ``--seed`` and ``--delta``.  Defaults
are laptop-scale (500k rows); the paper-shape contrasts sharpen with
``--rows 2000000`` or more.  ``table5``, ``table6`` and ``fig7a`` check
their paper claim (answers match Exact, actual error ≤ requested) and exit
1 with one ``repro: claim failed: …`` stderr line when it fails; bad input
exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.api import connect
from repro.bounders.registry import EVALUATED_BOUNDERS, get_bounder
from repro.cli import _add_delta_arg, _add_scramble_args, _positive_int
from repro.datasets import airports_by_selectivity, make_flights_scramble
from repro.datasets.queries import FIGURE5_SQL, GROUP_BY_QUERIES, build_query
from repro.fastframe.exact import ExactExecutor
from repro.fastframe.query import Query, QueryResult
from repro.fastframe.scan import EVALUATED_STRATEGIES, get_strategy
from repro.fastframe.scramble import Scramble
from repro.stats.delta import DEFAULT_DELTA
from repro.stopping.conditions import (
    GroupsOrdered,
    RelativeAccuracy,
    ThresholdSide,
    TopKSeparated,
)

# One cell: run, check


@dataclass
class ApproachMeasurement:
    """Averaged metrics for one (query, approach) cell."""

    approach: str
    wall_time_s: float
    rows_read: float
    blocks_fetched: float
    correct: bool
    speedup_wall: float = float("nan")
    speedup_blocks: float = float("nan")


@dataclass
class QueryMeasurement:
    """One row of Table 5 / Table 6: a query and its per-approach cells."""

    query_name: str
    baseline: ApproachMeasurement
    approaches: list[ApproachMeasurement] = field(default_factory=list)


def warm(scramble: Scramble, query: Query) -> None:
    """Build the load-time metadata ``query`` needs (bitmaps, domains).

    They are load-time artifacts in a real deployment (§4); building them
    inside the first timed run would misattribute their cost to it.
    ``rounds()`` plans a handle at call time and scans nothing until it
    is iterated, so a throwaway connection's ``rounds(0)`` builds them.
    """
    connect(scramble, max_queries=1).query(query).rounds(0)


def run_query_once(
    scramble: Scramble,
    query: Query,
    bounder_name: str,
    strategy_name: str = "scan",
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> QueryResult:
    """One approximate run on a fresh connection that spends all of ``delta``."""
    conn = connect(
        scramble,
        bounder=bounder_name,
        strategy=strategy_name,
        delta=delta,
        policy="even",
        max_queries=1,
        rng=np.random.default_rng(seed),
    )
    return conn.query(query).result()


def check_correctness(
    query: Query, approx: QueryResult, exact: QueryResult, epsilon_slack: float = 0.0
) -> bool:
    """Does the approximate answer match the exact one for this query?

    The notion of "answer" follows each query's downstream semantics
    (§5.3's correctness metric):

    * threshold queries — the certified above/below partitions match;
    * top-/bottom-K queries — the selected K keys match (as sets);
    * groups-ordered queries — the full ordering matches;
    * accuracy-contract queries — every group's interval encloses the
      exact value (within ``epsilon_slack`` for exhausted fp ties).
    """
    stopping = query.stopping
    if isinstance(stopping, ThresholdSide):
        v = stopping.threshold
        exact_above = {k for k, g in exact.groups.items() if g.estimate > v}
        # Undetermined groups (interval straddling v) count as incorrect
        # only if the scan terminated claiming success; compare certified
        # sides directly.
        return (
            approx.keys_above(v) == exact_above
            and approx.keys_below(v)
            == {k for k, g in exact.groups.items() if g.estimate < v}
        )
    if isinstance(stopping, TopKSeparated):
        return set(approx.top_k(stopping.k, stopping.largest)) == set(
            exact.top_k(stopping.k, stopping.largest)
        )
    if isinstance(stopping, GroupsOrdered):
        return approx.ordering() == exact.ordering()
    if isinstance(stopping, RelativeAccuracy):
        for key, exact_group in exact.groups.items():
            if key not in approx.groups:
                return False
            interval = approx.groups[key].interval
            slack = epsilon_slack * max(1.0, abs(exact_group.estimate))
            if not (
                interval.lo - slack <= exact_group.estimate <= interval.hi + slack
            ):
                return False
        return True
    # Fallback: every exact value enclosed by its interval.
    return all(
        key in approx.groups
        and approx.groups[key].interval.lo - 1e-9
        <= group.estimate
        <= approx.groups[key].interval.hi + 1e-9
        for key, group in exact.groups.items()
    )


# Tables 5 and 6


def _average(
    scramble: Scramble,
    query: Query,
    exact_result: QueryResult,
    bounder_name: str,
    strategy_name: str,
    reps: int,
    delta: float,
    label: str,
) -> ApproachMeasurement:
    times, rows, blocks = [], [], []
    correct = True
    for rep in range(reps):
        result = run_query_once(
            scramble, query, bounder_name, strategy_name, delta=delta, seed=rep
        )
        times.append(result.metrics.wall_time_s)
        rows.append(result.metrics.rows_read)
        blocks.append(result.metrics.blocks_fetched)
        correct = correct and check_correctness(
            query, result, exact_result, epsilon_slack=1e-9
        )
    return ApproachMeasurement(
        approach=label,
        wall_time_s=float(np.mean(times)),
        rows_read=float(np.mean(rows)),
        blocks_fetched=float(np.mean(blocks)),
        correct=correct,
    )


def _set_speedups(cell: ApproachMeasurement, baseline: ApproachMeasurement) -> None:
    cell.speedup_wall = baseline.wall_time_s / max(cell.wall_time_s, 1e-12)
    cell.speedup_blocks = baseline.blocks_fetched / max(cell.blocks_fetched, 1e-12)


def run_table5(
    scramble: Scramble,
    query_names: tuple[str, ...] | None = None,
    bounders: tuple[str, ...] = EVALUATED_BOUNDERS,
    reps: int = 3,
    delta: float = DEFAULT_DELTA,
) -> list[QueryMeasurement]:
    """Table 5: per-query speedups of each error bounder over Exact.

    All approximate runs use the Scan strategy, isolating the error
    bounder's effect (the paper's §5.4.1 ablation).
    """
    exact = ExactExecutor(scramble)
    measurements = []
    for name in query_names or tuple(FIGURE5_SQL):
        query = build_query(name)
        warm(scramble, query)
        exact_result = exact.execute(query)
        baseline = ApproachMeasurement(
            approach="Exact",
            wall_time_s=exact_result.metrics.wall_time_s,
            rows_read=exact_result.metrics.rows_read,
            blocks_fetched=exact_result.metrics.blocks_fetched,
            correct=True,
        )
        row = QueryMeasurement(query_name=name, baseline=baseline)
        for bounder_name in bounders:
            cell = _average(
                scramble, query, exact_result, bounder_name, "scan", reps, delta,
                label=get_bounder(bounder_name).name,
            )
            _set_speedups(cell, baseline)
            row.approaches.append(cell)
        measurements.append(row)
    return measurements


def run_table6(
    scramble: Scramble,
    query_names: tuple[str, ...] = GROUP_BY_QUERIES,
    strategies: tuple[str, ...] = EVALUATED_STRATEGIES,
    bounder_name: str = "bernstein+rt",
    reps: int = 3,
    delta: float = DEFAULT_DELTA,
) -> list[QueryMeasurement]:
    """Table 6: sampling-strategy ablation on GROUP BY queries.

    All runs use the best error bounder (Bernstein+RT, as in the paper);
    the baseline of each row is the Scan strategy.
    """
    exact = ExactExecutor(scramble)
    measurements = []
    for name in query_names:
        query = build_query(name)
        warm(scramble, query)
        exact_result = exact.execute(query)
        baseline = _average(
            scramble, query, exact_result, bounder_name, "scan", reps, delta,
            label="Scan",
        )
        row = QueryMeasurement(query_name=name, baseline=baseline)
        for strategy_name in strategies:
            if strategy_name == "scan":
                continue
            cell = _average(
                scramble, query, exact_result, bounder_name, strategy_name,
                reps, delta, label=get_strategy(strategy_name).name,
            )
            _set_speedups(cell, baseline)
            row.approaches.append(cell)
        measurements.append(row)
    return measurements


# Figures 6, 7a, 7b, 8: one template parameter swept per figure


@dataclass
class SweepSeries:
    """One plotted line: an approach and its y-values over the sweep."""

    approach: str
    values: list[float] = field(default_factory=list)


@dataclass
class SweepResult:
    """A figure's data: the x-axis and one series per approach."""

    figure: str
    x_label: str
    y_label: str
    x_values: list[float]
    series: list[SweepSeries]
    annotations: dict = field(default_factory=dict)

    def series_by_name(self, approach: str) -> SweepSeries:
        for series in self.series:
            if series.approach == approach:
                return series
        raise KeyError(f"no series {approach!r} in {self.figure}")


def sweep_fig6_selectivity(
    scramble: Scramble,
    epsilon: float = 0.5,
    bounders: tuple[str, ...] = EVALUATED_BOUNDERS,
    num_airports: int = 8,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> tuple[SweepResult, SweepResult]:
    """Figure 6: wall time and blocks fetched vs. F-q1 filter selectivity.

    Returns ``(wall_time_result, blocks_fetched_result)`` over airports of
    varying selectivity (most→least popular).
    """
    airports = airports_by_selectivity(scramble, num_airports)
    time_series = [SweepSeries(name) for name in bounders]
    block_series = [SweepSeries(name) for name in bounders]
    for airport, _ in airports:
        query = build_query("F-q1", airport=airport, epsilon=epsilon)
        for t_series, b_series in zip(time_series, block_series):
            result = run_query_once(
                scramble, query, t_series.approach, delta=delta, seed=seed
            )
            t_series.values.append(result.metrics.wall_time_s)
            b_series.values.append(float(result.metrics.blocks_fetched))
    x_values = [selectivity for _, selectivity in airports]
    return (
        SweepResult(
            figure="Figure 6 (wall time)",
            x_label="query selectivity",
            y_label="wall time (s)",
            x_values=x_values,
            series=time_series,
        ),
        SweepResult(
            figure="Figure 6 (blocks fetched)",
            x_label="query selectivity",
            y_label="blocks fetched",
            x_values=x_values,
            series=block_series,
        ),
    )


def sweep_fig7a_relative_error(
    scramble: Scramble,
    epsilons: tuple[float, ...] = (2.0, 1.5, 1.0, 0.75, 0.5, 0.25, 0.1, 0.05),
    bounders: tuple[str, ...] = EVALUATED_BOUNDERS,
    airport: str = "ORD",
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> SweepResult:
    """Figure 7(a): requested max relative error vs. actual relative error.

    The actual error of each run's point estimate is measured against the
    Exact aggregate; the paper's correctness claim is that it always falls
    below the requested bound.
    """
    exact = ExactExecutor(scramble)
    truth = exact.execute(build_query("F-q1", airport=airport)).scalar().estimate
    series = [SweepSeries(name) for name in bounders]
    for epsilon in epsilons:
        query = build_query("F-q1", airport=airport, epsilon=epsilon)
        for line in series:
            result = run_query_once(scramble, query, line.approach, delta=delta, seed=seed)
            estimate = result.scalar().estimate
            line.values.append(abs(estimate - truth) / abs(truth))
    return SweepResult(
        figure="Figure 7(a)",
        x_label="max relative error eps (requested)",
        y_label="actual relative error",
        x_values=list(epsilons),
        series=series,
        annotations={"truth": truth},
    )


def _blocks_sweep(
    scramble: Scramble, name: str, parameter: str, x_values, bounders, delta, seed
) -> list[SweepSeries]:
    """Blocks fetched by query ``name`` per bounder as ``parameter`` varies."""
    series = [SweepSeries(bounder) for bounder in bounders]
    for x in x_values:
        query = build_query(name, **{parameter: float(x)})
        for line in series:
            result = run_query_once(scramble, query, line.approach, delta=delta, seed=seed)
            line.values.append(float(result.metrics.blocks_fetched))
    return series


def sweep_fig7b_having_threshold(
    scramble: Scramble,
    thresholds: tuple[float, ...] | None = None,
    bounders: tuple[str, ...] = EVALUATED_BOUNDERS,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> SweepResult:
    """Figure 7(b): blocks fetched vs. F-q2's HAVING threshold.

    The annotation carries each airline's exact aggregate (the horizontal
    bar overlay in the paper's figure): thresholds near an aggregate
    require far more data to certify the group's side.
    """
    exact = ExactExecutor(scramble)
    aggregates = {
        key[0]: group.estimate
        for key, group in exact.execute(build_query("F-q2")).groups.items()
    }
    if thresholds is None:
        hi = max(aggregates.values())
        thresholds = tuple(np.round(np.linspace(0.0, hi + 1.0, 13), 2))
    return SweepResult(
        figure="Figure 7(b)",
        x_label="HAVING threshold for AVG delay",
        y_label="blocks fetched",
        x_values=list(map(float, thresholds)),
        series=_blocks_sweep(
            scramble, "F-q2", "thresh", thresholds, bounders, delta, seed
        ),
        annotations={"group_aggregates": aggregates},
    )


def sweep_fig8_min_dep_time(
    scramble: Scramble,
    min_dep_times: tuple[float, ...] = (1000, 1250, 1500, 1750, 2000, 2250),
    bounders: tuple[str, ...] = EVALUATED_BOUNDERS,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> SweepResult:
    """Figure 8: blocks fetched vs. F-q3's minimum departure time.

    Later departure-time filters both sparsify the airline groups and
    spread their mean delays apart, so blocks fetched trends downward
    while the RangeTrim advantage over the plain bounders grows.
    """
    return SweepResult(
        figure="Figure 8",
        x_label="minimum departure time",
        y_label="blocks fetched",
        x_values=list(map(float, min_dep_times)),
        series=_blocks_sweep(
            scramble, "F-q3", "min_dep_time", min_dep_times, bounders, delta, seed
        ),
    )


# Plain-text rendering in the paper's layouts


def _format_speedup_table(rows: list[QueryMeasurement], baseline_label: str) -> str:
    approaches = [cell.approach for cell in rows[0].approaches] if rows else []
    header = (
        f"{'Query':10s} | {baseline_label + ' (s)':>12s} | "
        + " | ".join(f"{name:>22s}" for name in approaches)
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        # The paper's Table 5 cell format: ``12.34x (0.56)``.
        cells = " | ".join(
            f"{cell.speedup_wall:8.2f}x ({cell.wall_time_s:.3f})"
            + ("" if cell.correct else " !WRONG")
            for cell in row.approaches
        )
        lines.append(f"{row.query_name:10s} | {row.baseline.wall_time_s:12.3f} | {cells}")
    lines.append("")
    lines.append("blocks-fetched speedups (CPU-independent metric, §5.3):")
    for row in rows:
        cells = " | ".join(
            f"{cell.approach}: {cell.speedup_blocks:7.2f}x" for cell in row.approaches
        )
        lines.append(f"  {row.query_name:10s} {cells}")
    return "\n".join(lines)


def format_table5(rows: list[QueryMeasurement]) -> str:
    """Render Table 5: speedups over Exact per error bounder."""
    title = "Table 5: Avg speedup over Exact (raw time in (s))"
    return title + "\n" + _format_speedup_table(rows, "Exact")


def format_table6(rows: list[QueryMeasurement]) -> str:
    """Render Table 6: speedups over Scan per sampling strategy."""
    title = "Table 6: Avg speedup over Scan, Bernstein+RT (raw time in (s))"
    return title + "\n" + _format_speedup_table(rows, "Scan")


def format_sweep(result: SweepResult, width: int = 12) -> str:
    """Render a figure sweep as an x-by-series table."""
    lines = [f"{result.figure}: {result.y_label} vs {result.x_label}"]
    header = f"{result.x_label[:width]:>{width}s} | " + " | ".join(
        f"{series.approach:>14s}" for series in result.series
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(result.x_values):
        cells = " | ".join(
            f"{series.values[i]:14.6g}" for series in result.series
        )
        lines.append(f"{x:{width}.6g} | {cells}")
    for key, value in result.annotations.items():
        lines.append(f"  [{key}]: {value}")
    return "\n".join(lines)


# Command line


def _claim(failures: list[str], claim: str) -> int:
    """0, or 1 after one stderr line naming every cell that broke ``claim``."""
    if not failures:
        return 0
    print(f"repro: claim failed: {claim}: {', '.join(failures)}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paper.py",
        description="Regenerate Tables 5-6 and Figures 6-8 of the paper's §5",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table5 = commands.add_parser("table5", help="bounder-ablation speedup table")
    _add_scramble_args(table5)
    _add_delta_arg(table5)
    table5.add_argument(
        "--queries", default=None,
        help="comma-separated subset (default: all nine)",
    )
    table5.add_argument("--reps", type=_positive_int, default=3, help="runs per cell")

    table6 = commands.add_parser("table6", help="sampling-strategy ablation table")
    _add_scramble_args(table6)
    _add_delta_arg(table6)
    table6.add_argument("--reps", type=_positive_int, default=3, help="runs per cell")

    for figure in ("fig6", "fig7a", "fig7b", "fig8"):
        sub = commands.add_parser(figure, help=f"parameter sweep behind {figure}")
        _add_scramble_args(sub)
        _add_delta_arg(sub)
    return parser


def _check_answers(rows: list[QueryMeasurement]) -> int:
    wrong = [f"{row.query_name}/{cell.approach}" for row in rows
             for cell in (row.baseline, *row.approaches) if not cell.correct]
    return _claim(wrong, "answer differs from Exact")


def _cmd_table5(args, out) -> int:
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    names = tuple(args.queries.split(",")) if args.queries else None
    rows = run_table5(scramble, query_names=names, reps=args.reps, delta=args.delta)
    print(format_table5(rows), file=out)
    return _check_answers(rows)


def _cmd_table6(args, out) -> int:
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    rows = run_table6(scramble, reps=args.reps, delta=args.delta)
    print(format_table6(rows), file=out)
    return _check_answers(rows)


def _cmd_figure(args, out) -> int:
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    if args.command == "fig6":
        wall, blocks = sweep_fig6_selectivity(scramble, delta=args.delta, seed=args.seed)
        print(format_sweep(wall), file=out)
        print("", file=out)
        print(format_sweep(blocks), file=out)
        return 0
    sweep = {
        "fig7a": sweep_fig7a_relative_error,
        "fig7b": sweep_fig7b_having_threshold,
        "fig8": sweep_fig8_min_dep_time,
    }[args.command]
    result = sweep(scramble, delta=args.delta, seed=args.seed)
    print(format_sweep(result), file=out)
    if args.command != "fig7a":
        return 0
    over = [f"{line.approach}@eps={eps:g} ({actual:.3g})" for line in result.series
            for eps, actual in zip(result.x_values, line.values) if actual > eps]
    return _claim(over, "actual relative error above the requested one")


_COMMANDS = {
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "fig6": _cmd_figure,
    "fig7a": _cmd_figure,
    "fig7b": _cmd_figure,
    "fig8": _cmd_figure,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code.

    An unknown ``--queries`` name prints one ``repro: error: …`` line to
    stderr and returns 2, argparse's usage-error status; a failed paper
    claim returns 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out or sys.stdout)
    except KeyError as exc:
        print(f"repro: error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
