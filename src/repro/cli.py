"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's evaluation artifacts and answers ad-hoc SQL queries
against the synthetic flights scramble from a terminal:

``list``
    Available experiments, bounders, and sampling strategies.
``table5`` / ``table6``
    The speedup tables (bounder ablation / sampling-strategy ablation).
``fig6`` / ``fig7a`` / ``fig7b`` / ``fig8``
    The parameter sweeps behind each figure.
``coverage``
    The SSI-vs-asymptotic miss-rate experiment (the §1 motivation).
``query "SELECT …"``
    Parse, compile, and run one SQL query with certified intervals.
``dashboard "SELECT …; SELECT …"``
    Run a ``;``-separated multi-query script off **one** shared scan
    (:meth:`repro.api.Connection.gather`), with a joint δ budget and a
    printed ledger + shared-cursor savings report.

Every command accepts ``--rows`` and ``--seed`` for the scramble size and
reproducibility; table/figure commands accept ``--delta``.  Defaults are
laptop-scale (500k rows); the paper-shape contrasts sharpen with
``--rows 2000000`` or more.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bounders.registry import available_bounders
from repro.datasets import make_flights_scramble
from repro.experiments import (
    ALL_QUERIES,
    build_query,
    format_sweep,
    format_table5,
    format_table6,
    run_table5,
    run_table6,
    sweep_fig6_selectivity,
    sweep_fig7a_relative_error,
    sweep_fig7b_having_threshold,
    sweep_fig8_min_dep_time,
    warm_metadata,
)
from repro.experiments.coverage import (
    DEFAULT_COVERAGE_BOUNDERS,
    run_coverage_experiment,
)
from repro.api import connect
from repro.fastframe.config import STORAGE_BACKENDS
from repro.fastframe.scan import EVALUATED_STRATEGIES
from repro.sql import parse_query, parse_statements
from repro.stopping import AbsoluteAccuracy, RelativeAccuracy, SamplesTaken

__all__ = ["main", "build_parser", "parse_stopping"]

_DEFAULT_DELTA = 1e-9  # see benchmarks/conftest.py for the rationale


def parse_stopping(spec: str):
    """Parse a ``kind:value`` stopping spec (``rel:0.5``, ``abs:2``,
    ``samples:10000``)."""
    kind, _, raw = spec.partition(":")
    kind = kind.strip().lower()
    if not raw:
        raise argparse.ArgumentTypeError(
            f"stopping spec {spec!r} must look like rel:0.5, abs:2.0, or samples:10000"
        )
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad stopping value in {spec!r}") from None
    if kind in ("rel", "relative"):
        return RelativeAccuracy(value)
    if kind in ("abs", "absolute"):
        return AbsoluteAccuracy(value)
    if kind == "samples":
        return SamplesTaken(int(value))
    raise argparse.ArgumentTypeError(
        f"unknown stopping kind {kind!r}; expected rel, abs, or samples"
    )


def _add_scramble_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rows", type=int, default=500_000, help="flights scramble size"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def _add_delta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--delta", type=float, default=_DEFAULT_DELTA,
        help="query error probability (paper: 1e-15)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Rapid Approximate Aggregation with "
            "Distribution-Sensitive Interval Guarantees' (ICDE 2021)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="available experiments/bounders/strategies")

    table5 = commands.add_parser("table5", help="bounder-ablation speedup table")
    _add_scramble_args(table5)
    _add_delta_arg(table5)
    table5.add_argument(
        "--queries", default=None,
        help="comma-separated subset (default: all nine)",
    )
    table5.add_argument("--reps", type=int, default=3, help="runs per cell")

    table6 = commands.add_parser("table6", help="sampling-strategy ablation table")
    _add_scramble_args(table6)
    _add_delta_arg(table6)
    table6.add_argument("--reps", type=int, default=3, help="runs per cell")

    for figure in ("fig6", "fig7a", "fig7b", "fig8"):
        sub = commands.add_parser(figure, help=f"parameter sweep behind {figure}")
        _add_scramble_args(sub)
        _add_delta_arg(sub)

    coverage = commands.add_parser(
        "coverage", help="SSI vs asymptotic bounder miss rates"
    )
    coverage.add_argument("--trials", type=int, default=400)
    coverage.add_argument("--seed", type=int, default=0)

    query = commands.add_parser("query", help="run one SQL query")
    query.add_argument("sql", help="the SQL text (quote it)")
    _add_scramble_args(query)
    _add_delta_arg(query)
    query.add_argument(
        "--stopping", type=parse_stopping, default=None,
        help="fallback stopping condition, e.g. rel:0.5 / abs:2 / samples:10000",
    )
    query.add_argument(
        "--bounder", default="bernstein+rt", choices=sorted(available_bounders()),
    )
    query.add_argument(
        "--strategy", default="scan", choices=sorted(EVALUATED_STRATEGIES),
    )

    dashboard = commands.add_parser(
        "dashboard",
        help="run a ';'-separated SQL script off one shared scan",
    )
    dashboard.add_argument("sql", help="the multi-statement SQL script (quote it)")
    _add_scramble_args(dashboard)
    _add_delta_arg(dashboard)
    dashboard.add_argument(
        "--stopping", type=parse_stopping, default=None,
        help="fallback stopping condition for statements that imply none",
    )
    dashboard.add_argument(
        "--bounder", default="bernstein+rt", choices=sorted(available_bounders()),
    )
    dashboard.add_argument(
        "--strategy", default="scan", choices=sorted(EVALUATED_STRATEGIES),
    )
    dashboard.add_argument(
        "--policy", default="harmonic", choices=("even", "harmonic"),
        help="per-query delta allocation policy for the joint budget",
    )
    # The three execution settings: connect() resolves them once into the
    # connection's ExecConfig (flag, else environment variable, else
    # default — repro.fastframe.config.ExecConfig documents each).
    # None of them changes a result.
    dashboard.add_argument(
        "--parallelism", type=int, default=None,
        help="ingest threads (ExecConfig.parallelism)",
    )
    dashboard.add_argument(
        "--storage", default=None, choices=STORAGE_BACKENDS,
        help="column storage backend (ExecConfig.storage)",
    )
    dashboard.add_argument(
        "--cache-bytes", type=int, default=None,
        help="private block-cache byte budget (ExecConfig.cache_bytes)",
    )
    return parser


def _cmd_list(args, out) -> int:
    print("queries: ", ", ".join(sorted(ALL_QUERIES)), file=out)
    print("bounders:", ", ".join(sorted(available_bounders())), file=out)
    print("strategies:", ", ".join(sorted(EVALUATED_STRATEGIES)), file=out)
    print(
        "tables/figures: table5, table6, fig6, fig7a, fig7b, fig8, coverage",
        file=out,
    )
    return 0


def _cmd_table5(args, out) -> int:
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    names = tuple(args.queries.split(",")) if args.queries else None
    rows = run_table5(scramble, query_names=names, reps=args.reps, delta=args.delta)
    print(format_table5(rows), file=out)
    return 0


def _cmd_table6(args, out) -> int:
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    rows = run_table6(scramble, reps=args.reps, delta=args.delta)
    print(format_table6(rows), file=out)
    return 0


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
    print(format_sweep(sweep(scramble, delta=args.delta, seed=args.seed)), file=out)
    return 0


def _cmd_coverage(args, out) -> int:
    cells = run_coverage_experiment(trials=args.trials, seed=args.seed)
    header = f"{'bounder':<16} {'SSI':<4} {'m':>5} {'miss rate':>10} {'mean width':>11}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for cell in cells:
        print(
            f"{cell.bounder:<16} {'yes' if cell.ssi else 'NO':<4} "
            f"{cell.sample_size:>5d} {cell.miss_rate:>9.1%} {cell.mean_width:>11.2f}",
            file=out,
        )
    return 0


def _print_groups(result, out) -> None:
    for key, group in sorted(result.groups.items(), key=lambda kv: -kv[1].estimate):
        label = ", ".join(map(str, key)) if key else "(all)"
        print(
            f"  {label:<24} estimate={group.estimate:>10.3f}  "
            f"CI=[{group.interval.lo:.3f}, {group.interval.hi:.3f}]  "
            f"samples={group.samples:,}",
            file=out,
        )


def _cmd_query(args, out) -> int:
    query = parse_query(args.sql, stopping=args.stopping, name="cli")
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    warm_metadata(scramble, query)
    # A single-query connection hands the whole δ to the one query —
    # identical accounting to the pre-connection eager executor path.
    # require_ssi=False: ad-hoc single queries may use non-SSI bounders.
    conn = connect(
        scramble,
        bounder=args.bounder,
        delta=args.delta,
        policy="even",
        max_queries=1,
        strategy=args.strategy,
        rng=np.random.default_rng(args.seed),
        require_ssi=False,
    )
    result = conn.query(query).result()
    print(f"stopping: {query.stopping!r}", file=out)
    print(
        f"rows read: {result.metrics.rows_read:,} / {scramble.num_rows:,} "
        f"({result.metrics.rows_read / scramble.num_rows:.1%}); "
        f"blocks fetched: {result.metrics.blocks_fetched:,}",
        file=out,
    )
    _print_groups(result, out)
    return 0


def _cmd_dashboard(args, out) -> int:
    queries = parse_statements(args.sql, stopping=args.stopping)
    scramble = make_flights_scramble(rows=args.rows, seed=args.seed)
    for query in queries:
        warm_metadata(scramble, query)
    conn = connect(
        scramble,
        bounder=args.bounder,
        delta=args.delta,
        policy=args.policy,
        max_queries=max(len(queries), 1),
        strategy=args.strategy,
        rng=np.random.default_rng(args.seed),
        parallelism=args.parallelism,
        storage=args.storage,
        cache_bytes=args.cache_bytes,
    )
    handles = [conn.query(query) for query in queries]
    batch = conn.gather(handles)
    for handle, result in zip(handles, batch):
        print(f"-- {handle.describe()}", file=out)
        _print_groups(result, out)
    print(
        f"\nshared scan: {batch.rows_read_shared:,} rows fetched vs "
        f"{batch.rows_read_sequential:,} sequential "
        f"({batch.savings:.1%} saved); lookahead windows: "
        f"{batch.metrics.rounds}; values gathered once per shared "
        f"window: {batch.values_gathered:,} elements",
        file=out,
    )
    storage = batch.metrics.storage_snapshot()
    if storage:
        print(
            f"out-of-core storage: {storage.blocks_read} block(s) read "
            f"({storage.bytes_read:,} bytes), {storage.cache_hits} cache "
            f"hit(s), {storage.cache_evictions} eviction(s), "
            f"{storage.prefetch_hits} prefetch hit(s) — results "
            "byte-identical to in-memory execution",
            file=out,
        )
    print("delta ledger (union bound over the whole dashboard):", file=out)
    for entry in conn.audit():
        print(
            f"  #{entry.index} {entry.name:<12} delta={entry.delta:.3e} "
            f"rows={entry.rows_read:,} early_stop={entry.stopped_early}",
            file=out,
        )
    print(
        f"spent {conn.spent_delta:.3e} of the {conn.session_delta:.0e} budget",
        file=out,
    )
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "fig6": _cmd_figure,
    "fig7a": _cmd_figure,
    "fig7b": _cmd_figure,
    "fig8": _cmd_figure,
    "coverage": _cmd_coverage,
    "query": _cmd_query,
    "dashboard": _cmd_dashboard,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
