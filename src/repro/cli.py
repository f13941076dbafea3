"""Command-line interface: ``python -m repro <command>``.

Answers ad-hoc SQL queries against the synthetic flights scramble from a
terminal:

``list``
    Available bounders and sampling strategies.
``query "SELECT …"``
    Parse, compile, and run one SQL query with certified intervals.
``dashboard "SELECT …; SELECT …"``
    Run a ``;``-separated multi-query script off **one** shared scan
    (:meth:`repro.api.Connection.gather`), with a joint δ budget and a
    printed ledger + shared-cursor savings report.

``query`` and ``dashboard`` accept ``--rows``, ``--seed`` and ``--delta``
for the scramble size, reproducibility and error probability; bad input
exits 2 with one ``repro: error: …`` line.  The paper's Tables 5-6 and
Figures 6-8 are regenerated by ``benchmarks/paper.py``, which reuses this
module's argument types.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from repro.bounders.registry import available_bounders
from repro.datasets import make_flights_scramble
from repro.api import connect
from repro.fastframe.config import STORAGE_BACKENDS
from repro.fastframe.scan import EVALUATED_STRATEGIES
from repro.sql import SqlCompileError, SqlSyntaxError, parse_query, parse_statements
from repro.stopping import AbsoluteAccuracy, RelativeAccuracy, SamplesTaken

__all__ = ["main", "build_parser", "parse_stopping"]

#: Not the paper's 1e-15, whose extra log factor turns early-stoppable
#: queries into full scans at laptop scale and hides the bounder contrasts.
_DEFAULT_DELTA = 1e-9


def _positive_int(text: str) -> int:
    """argparse type of the counts: ``--rows``, ``--parallelism``,
    ``--cache-bytes`` (and ``benchmarks/paper.py``'s ``--reps``)."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _delta(text: str) -> float:
    """argparse type of ``--delta``: a finite probability in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}")
    return value


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
        if kind in ("rel", "relative"):
            return RelativeAccuracy(value)
        if kind in ("abs", "absolute"):
            return AbsoluteAccuracy(value)
        if kind == "samples":
            # 1e4 is a count, 1.5 / inf / nan are rejected by SamplesTaken.
            return SamplesTaken(int(value) if value.is_integer() else value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad stopping value in {spec!r}: {error}"
        ) from None
    raise argparse.ArgumentTypeError(
        f"unknown stopping kind {kind!r}; expected rel, abs, or samples"
    )


def _add_scramble_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rows", type=_positive_int, default=500_000, help="flights scramble size"
    )
    parser.add_argument("--seed", type=_seed, default=0, help="generator seed")


def _add_delta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--delta", type=_delta, default=_DEFAULT_DELTA,
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

    commands.add_parser("list", help="available bounders/strategies")

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
        "--parallelism", type=_positive_int, default=None,
        help="ingest threads (ExecConfig.parallelism)",
    )
    dashboard.add_argument(
        "--storage", default=None, choices=STORAGE_BACKENDS,
        help="column storage backend (ExecConfig.storage)",
    )
    dashboard.add_argument(
        "--cache-bytes", type=_positive_int, default=None,
        help="private block-cache byte budget (ExecConfig.cache_bytes)",
    )
    return parser


def _cmd_list(args, out) -> int:
    print("bounders:", ", ".join(sorted(available_bounders())), file=out)
    print("strategies:", ", ".join(sorted(EVALUATED_STRATEGIES)), file=out)
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
    # A single-query connection hands the whole δ to the one query —
    # identical accounting to the pre-connection eager executor path.
    conn = connect(
        scramble,
        bounder=args.bounder,
        delta=args.delta,
        policy="even",
        max_queries=1,
        strategy=args.strategy,
        rng=np.random.default_rng(args.seed),
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
            f"hit(s), {storage.cache_evictions} eviction(s) — results "
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
    "query": _cmd_query,
    "dashboard": _cmd_dashboard,
}


#: Errors a command raises on bad user input (unparsable SQL, no stopping
#: condition, an unknown column or dictionary value).
_USER_INPUT_ERRORS = (SqlSyntaxError, SqlCompileError, KeyError)


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    A user-input error prints one ``repro: error: …`` message to stderr
    and returns 2, argparse's usage-error status, instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out or sys.stdout)
    except _USER_INPUT_ERRORS as exc:
        print(f"repro: error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
