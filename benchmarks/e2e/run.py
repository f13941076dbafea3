"""End-to-end + per-layer benchmark: SQL text in -> certified intervals out.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--seconds T | --cycles N] [--trace [0|1|both]] [--rows N]
        [--repeat K] [--out FILE] [--smoke]

One closed-loop client thread per workload.  The process layout keeps every
measurement honest about what it holds in memory and what it warmed:

* this process only orchestrates (it never imports ``repro``);
* a *prepare* subprocess generates the fixed table, spills it for the mmap
  workloads, and computes — untimed — the ``ExactExecutor`` truths and the
  ``dashboard_resident`` parity reference;
* each workload runs in its own subprocess, so ``setup_s`` and
  ``peak_rss_mb`` are per workload, the mmap workloads never hold the
  resident table, and one workload's fork pool or block cache cannot warm
  another's.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures the per-layer metrics (an untraced pass, then the same ops with
``trace.py`` installed); ``--trace`` / ``--trace both`` does both.  With
``--workload`` the last line of output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — and a non-zero failure rate makes the
exit status non-zero.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import workloads as wl  # noqa: E402

RUN_SECONDS = 10
SMOKE_ROWS = 200_000
#: A child that has not finished by then is killed: the driver allows 180 s.
CHILD_TIMEOUT_S = 170

# ----------------------------------------------------------------------
# Prepare stage (subprocess): fixed inputs, truths, parity reference
# ----------------------------------------------------------------------


def stage_prepare(args) -> None:
    import numpy as np

    import check
    from repro import parse_statements, write_block_store
    from repro.datasets import generate_flights
    from repro.experiments.sweeps import airports_by_selectivity
    from repro.fastframe.scramble import Scramble

    selected = [wl.WORKLOADS[name] for name in args.workload]
    start = time.perf_counter()
    table = generate_flights(rows=args.rows, seed=wl.DATA_SEED)
    generated = time.perf_counter()
    # Same derivation as make_flights_scramble, split so each half is timed.
    scramble = Scramble(table, rng=np.random.default_rng(wl.DATA_SEED + 1))
    scrambled = time.perf_counter()
    airports = [name for name, _ in airports_by_selectivity(scramble, 8)]
    prepared = {
        "rows": scramble.num_rows,
        "num_blocks": scramble.num_blocks,
        "airports": airports,
        "generate_s": generated - start,
        "scramble_s": scrambled - generated,
        "stores": [],
        "spill_s": [],
    }

    if any(w.storage == "mmap" for w in selected):
        # One store per set-up repeat: stores are shared per directory, so
        # re-opening one directory would make the later repeats warm.
        for repeat in range(wl.SETUP_REPEATS):
            directory = os.path.join(args.work, f"store-{repeat}")
            start = time.perf_counter()
            write_block_store(directory, scramble, block_rows=wl.STORE_BLOCK_ROWS)
            prepared["spill_s"].append(time.perf_counter() - start)
            prepared["stores"].append(directory)
        prepared["disk_bytes"] = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(prepared["stores"][0])
            for name in names
        )

    queries = []
    for workload in selected:
        for text, rel in wl.statements(workload, airports):
            queries.extend(parse_statements(text, stopping=wl.stopping_for(rel)))
    prepared["truths"] = check.compute_truths(scramble, queries)

    # dashboard_resident is the reference configuration: its results for
    # the seed's start blocks are what the other dashboards must equal, and
    # its latency is the base of parallel.efficiency.
    if any(w.name in wl.PARITY_WORKLOADS for w in selected):
        reference = wl.WORKLOADS["dashboard_resident"]
        client = wl.Client(reference, scramble)
        cycles = wl.cycle_stream(reference, args.seed, airports, scramble.num_blocks)
        for op in next(cycles):  # warm-up
            client.run(op)
        prepared["reference"], latencies = {}, []
        for op in next(cycles):  # one op per start block of the seed's pool
            record = client.run(op)
            if record.error is not None:
                raise RuntimeError(f"parity reference failed: {record.error}")
            prepared["reference"][op.start_block] = [check.digest(r) for r in record.results]
            latencies.append(record.latency_s)
        prepared["reference_p50_ms"] = statistics.median(latencies) * 1e3

    with open(os.path.join(args.work, "prepare.pkl"), "wb") as handle:
        pickle.dump(prepared, handle)


# ----------------------------------------------------------------------
# Workload stage (subprocess): set-up, warm-up, timed passes, check
# ----------------------------------------------------------------------


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def timed_pass(client, stream, seconds: float, cycles, tracer=None) -> list[list]:
    """Run whole cycles until the clock (or the fixed cycle count) says stop."""
    done: list[list] = []
    start = time.perf_counter()
    while True:
        records = []
        for op in next(stream):
            if tracer is not None:
                tracer.begin_op()
            records.append(client.run(op))
            if tracer is not None:
                tracer.end_op()
        done.append(records)
        if len(done) >= cycles if cycles is not None else time.perf_counter() - start >= seconds:
            return done


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stage_workload(args) -> None:
    import multiprocessing

    import check
    from repro import open_block_scramble
    from repro.datasets import make_flights_scramble

    workload = wl.WORKLOADS[args.workload[0]]
    with open(os.path.join(args.work, "prepare.pkl"), "rb") as handle:
        prepared = pickle.load(handle)
    airports, num_blocks = prepared["airports"], prepared["num_blocks"]
    texts = wl.statements(workload, airports)
    cache_bytes = workload.cache_bytes(args.rows)

    def stream():
        return wl.cycle_stream(workload, args.seed, airports, num_blocks)

    # -- set-up, repeated; the median is reported ----------------------
    setup_s, open_s, warm_s = [], [], []
    for repeat in range(wl.SETUP_REPEATS):
        start = time.perf_counter()
        if workload.storage == "mmap":
            source = open_block_scramble(prepared["stores"][repeat], cache_bytes=cache_bytes)
        else:
            source = make_flights_scramble(rows=args.rows, seed=wl.DATA_SEED)
        opened = time.perf_counter()
        client = wl.Client(workload, source)
        client.warm_catalog(texts)
        warmed = time.perf_counter()
        open_s.append(opened - start)
        warm_s.append(warmed - opened)
        # The spill is the mmap workloads' share of building the source.
        spill = prepared["spill_s"][repeat] if workload.storage == "mmap" else 0.0
        setup_s.append(spill + warmed - start)
        if repeat < wl.SETUP_REPEATS - 1 and workload.storage == "mmap":
            source.storage.close()
    setup = {
        "setup_s": statistics.median(setup_s),
        "open_ms": statistics.median(open_s) * 1e3,
        "warm_s": statistics.median(warm_s),
    }

    timed_pass(client, stream(), 0.0, workload.warmup_cycles)  # discarded

    # -- timed passes --------------------------------------------------
    tracer, traced = None, []
    if args.trace == "1":
        import trace

        cycles = timed_pass(client, stream(), args.seconds / 2, args.cycles)
        tracer = trace.Tracer()
        tracer.install()
        # The same ops again, on a fresh client, with the wrappers in place.
        traced = timed_pass(wl.Client(workload, source), stream(), 0.0, len(cycles), tracer)
        traced = [r for c in traced for r in c]
    else:
        cycles = timed_pass(client, stream(), args.seconds, args.cycles)
    records = [r for c in cycles for r in c]

    if workload.workers > 1:
        from repro.fastframe.parallel import shutdown_worker_pool

        shutdown_worker_pool()
        # Reap the workers: their peak RSS only counts once waited for.
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)

    # -- check every answer (clock stopped) ----------------------------
    reference = prepared["reference"] if workload.name in wl.PARITY_WORKLOADS else None
    verdicts = {
        id(r): check.check_record(r, prepared["truths"], reference)
        for r in records + traced
    }
    failures = [why for why in verdicts.values() if why is not None]
    # A cycle with a failed op gives no timing.
    cycles = [c for c in cycles if all(verdicts[id(r)] is None for r in c)]
    traced = [r for r in traced if verdicts[id(r)] is None]
    out = {
        "workload": workload.name,
        "attempted": len(verdicts),
        "failed": len(failures),
        "failures": failures[:5],
        "e2e": {},
        "layers": {},
        "info": {
            "ops": len(records),
            "tail_percentile": workload.tail_percentile,
            "workers": workload.workers,
            "nproc": os.cpu_count(),
            "cache_bytes": cache_bytes,
            "storage": workload.storage,
        },
    }
    if cycles and (traced or tracer is None):
        out["e2e"], pooled = e2e_metrics(workload, cycles, source, setup["setup_s"])
        out["e2e"]["wall_s"] = sum(r.latency_s for r in records)
        out["e2e"]["failure_rate"] = sum(
            verdicts[id(r)] is not None for r in records
        ) / len(records)
        out["info"].update(pooled)
        out["layers"] = layer_metrics(
            workload, prepared, [r for c in cycles for r in c], traced, tracer,
            out["e2e"], setup,
        )
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


def e2e_metrics(workload, cycles: list[list], source, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced pass, and the pooled percentiles.

    Every cycle holds the same op mix, so a cycle is one replicate: each
    timing is computed per cycle and the decile of the cycles on the fast
    side is reported.  This box slows by 20-60 % for seconds at a time (a
    neighbour's load), a third of the cycles in a bad minute; that only ever
    slows a cycle down, so the fast decile is the undisturbed machine, while
    a pooled percentile — or the median over cycles — moves with every such
    episode.  A change to the code slows every cycle and moves the fast
    decile just as much.  The pooled percentiles are printed beside it.
    """
    import resource

    import check

    passed = [r for c in cycles for r in c]

    def over_cycles(stat, fast_is_high: bool = False) -> float:
        values = [stat(c) for c in cycles]
        if len(values) < 2:
            return values[0]
        deciles = statistics.quantiles(values, n=10)
        return deciles[-1] if fast_is_high else deciles[0]

    def tail(values) -> float:
        return percentile(sorted(values), workload.tail_percentile)

    latencies = [r.latency_s for r in passed]
    widths = [
        (g.interval.hi - g.interval.lo) / check.width_scale(result.query, source)
        for r in passed
        for result in r.results
        for g in result.groups.values()
    ]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": over_cycles(
            lambda c: statistics.median(r.latency_s for r in c)) * 1e3,
        "latency_tail_ms": over_cycles(lambda c: tail(r.latency_s for r in c)) * 1e3,
        "first_round_p50_ms": over_cycles(
            lambda c: statistics.median(r.first_round_s for r in c)) * 1e3
        if workload.mode == "rounds" else None,
        "rows_per_s": over_cycles(
            lambda c: sum(r.metrics.rows_read for r in c) / sum(r.latency_s for r in c),
            fast_is_high=True),
        "peak_rss_mb": usage / 1024,
        "rows_read_per_op": mean(r.metrics.rows_read for r in passed),
        "blocks_fetched_per_op": mean(r.metrics.blocks_fetched for r in passed),
        "ci_width_frac_p50": statistics.median(widths),
    }
    pooled = {
        "samples": len(passed),
        "sample_cycles": len(cycles),
        "pooled_p50_ms": statistics.median(latencies) * 1e3,
        "pooled_tail_ms": tail(latencies) * 1e3,
        "pooled_tail_samples_beyond": len(latencies)
        - math.ceil(workload.tail_percentile / 100 * len(latencies)),
    }
    return e2e, pooled


def layer_metrics(workload, prepared, passed, traced, tracer, e2e, setup) -> dict:
    """Every per-layer metric: counts from the untraced pass (they repeat
    exactly at a fixed seed and cycle count), self times from the traced one."""

    import check
    import trace

    def per_op(field: str) -> float:
        return mean(getattr(r.metrics, field) for r in passed)

    statement_rows = mean(sum(x.metrics.rows_read for x in r.results) for r in passed)
    fetched, skipped = per_op("blocks_fetched"), per_op("blocks_skipped")
    hits, reads = per_op("cache_hits"), per_op("blocks_read")
    statements = [x for r in passed for x in r.results]
    # What answering each op exactly would cost: one full scan per statement.
    exact_ms = mean(
        sum(prepared["truths"][check.truth_key(x.query)]["exact_ms"] for x in r.results)
        for r in passed
    )
    layers = {
        "api.first_round_p50_ms": e2e["first_round_p50_ms"],
        "scan.blocks_fetched": fetched,
        "scan.blocks_skipped": skipped,
        "scan.batch_probes": per_op("batch_probes"),
        "scan.skip_ratio": skipped / (fetched + skipped) if fetched + skipped else 0.0,
        "scan.rows_read": e2e["rows_read_per_op"],
        "executor.ci_width_frac_p50": e2e["ci_width_frac_p50"],
        "window.values_gathered": per_op("values_gathered"),
        "window.share_ratio": statement_rows / e2e["rows_read_per_op"]
        if e2e["rows_read_per_op"] else 0.0,
        "kernels.rows_partitioned": statement_rows,
        "viewpool.views": mean(sum(len(x.groups) for x in r.results) for r in passed),
        "bounders.bounds_recomputed": per_op("bounds_recomputed"),
        "stopping.rounds": mean(sum(x.metrics.rounds for x in r.results) for r in passed),
        "stopping.stopped_early_ratio": mean(x.metrics.stopped_early for x in statements),
        "storage.cache_hits": hits,
        "storage.hit_ratio": hits / (hits + reads) if hits + reads else 0.0,
        "storage.blocks_read": reads,
        "storage.bytes_read": per_op("bytes_read"),
        "storage.cache_evictions": per_op("cache_evictions"),
        "storage.prefetch_hits": per_op("prefetch_hits"),
        "parallel.partition_wall_ms": per_op("partition_wall_s") * 1e3,
        "parallel.merge_wall_ms": per_op("merge_wall_s") * 1e3,
        "parallel.delta_bytes": per_op("delta_bytes_returned"),
        "parallel.tasks_retried": per_op("tasks_retried"),
        "parallel.inline_fallbacks": per_op("inline_fallbacks"),
        "parallel.workers": workload.workers,
        "datasets.generate_s": prepared["generate_s"],
        "scramble.build_s": prepared["scramble_s"],
        "catalog.warm_s": setup["warm_s"],
        "exact.query_ms": exact_ms,
        "exact.speedup": exact_ms / e2e["latency_p50_ms"],
    }
    if workload.storage == "mmap":
        spill_s = statistics.median(prepared["spill_s"])
        user_bytes = prepared["rows"] * wl.USER_BYTES_PER_ROW
        layers.update({
            "storage.spill_s": spill_s,
            "storage.spill_mb_per_s": user_bytes / 1e6 / spill_s,
            "storage.disk_bytes_per_user_byte": prepared["disk_bytes"] / user_bytes,
            "storage.open_ms": setup["open_ms"],
        })
    if workload.workers > 1:
        layers["parallel.efficiency"] = prepared["reference_p50_ms"] / (
            e2e["latency_p50_ms"] * workload.workers
        )
    if tracer is None:
        return layers

    ops = len(traced)
    self_ms = tracer.self_times_ms()
    # "<span>_ms" is the span's self time per op; what is left of the op
    # span itself is what no wrapper covers.
    for span in tracer.present:
        layers[f"{span}_ms"] = self_ms.get(span, 0.0) / ops
    for span in tracer.absent:
        layers[f"{span}_ms"] = None
    layers["trace.untraced_ms"] = self_ms[trace.OP_SPAN] / ops
    traced_rows = mean(sum(x.metrics.rows_read for x in r.results) for r in traced)
    traced_bounds = mean(r.metrics.bounds_recomputed for r in traced)
    partition_ms = layers["kernels.partition_ms"] or 0.0
    if workload.workers > 1:  # the workers partition; the client only folds
        partition_ms = mean(r.metrics.partition_wall_s for r in traced) * 1e3
    layers["kernels.ns_per_row"] = partition_ms * 1e6 / traced_rows if traced_rows else 0.0
    layers["bounders.ns_per_bound"] = (
        (layers["bounders.bound_ms"] or 0.0) * 1e6 / traced_bounds if traced_bounds else 0.0
    )
    bytes_read = sum(r.metrics.bytes_read for r in traced)
    layers["storage.read_amplification"] = (
        bytes_read / tracer.bytes_gathered if tracer.bytes_gathered else 0.0
    )
    traced_wall = sum(r.latency_s for r in traced)
    layers["trace.op_ms"] = traced_wall / ops * 1e3
    layers["trace.overhead_pct"] = (
        traced_wall / sum(r.latency_s for r in passed) - 1.0
    ) * 100
    return layers


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------


def child(stage: str, work: str, args, names: list[str], **extra) -> None:
    command = [
        sys.executable, os.path.abspath(__file__), "--stage", stage, "--work", work,
        "--rows", str(args.rows), "--seed", str(args.seed),
    ]
    for name in names:
        command += ["--workload", name]
    for key, value in extra.items():
        if value is not None:
            command += [f"--{key}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    subprocess.run(command, env=env, check=True, timeout=CHILD_TIMEOUT_S)


def measure(work: str, args, name: str, trace: str, seconds: float, cycles) -> dict:
    result = os.path.join(work, f"{name}.trace{trace}.json")
    spans = f"{args.out}.{name}.spans.jsonl" if args.out and trace == "1" else None
    child(
        "workload", work, args, [name], trace=trace, seconds=seconds, cycles=cycles,
        result=result, spans=spans,
    )
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def run_suite(args, names: list[str]) -> dict:
    """One prepare + one subprocess per (workload, measurement)."""
    # Spill and hand-over files live under a tempfile directory inside the
    # checkout, removed on exit — also when a stage fails.
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        child("prepare", work, args, names)
        suite = {}
        for name in names:
            entry: dict = {"e2e": {}, "layers": {}, "info": {}, "attempted": 0,
                           "failed": 0, "failures": []}
            if args.trace in ("0", "both"):
                got = measure(work, args, name, "0", args.seconds, args.cycles)
                entry.update(e2e=got["e2e"], info=got["info"])
                tally(entry, got)
            if args.trace in ("1", "both"):
                # Alongside an end-to-end run the traced one is a quarter of
                # its length per pass; on its own it gets the whole budget.
                short = args.trace == "both"
                got = measure(
                    work, args, name, "1",
                    args.seconds / 2 if short else args.seconds,
                    args.cycles and (max(args.cycles // 4, 1) if short else args.cycles),
                )
                entry["layers"] = got["layers"]
                entry["info"] = entry["info"] or got["info"]
                tally(entry, got)
            suite[name] = entry
    return suite


def tally(entry: dict, got: dict) -> None:
    entry["attempted"] += got["attempted"]
    entry["failed"] += got["failed"]
    entry["failures"] += got["failures"]


def report(suite: dict) -> None:
    for name, entry in suite.items():
        info = entry["info"]
        print(f"== {name}: {wl.WORKLOADS[name].why}")
        print(
            f"   ops={info.get('ops')} samples={info.get('samples')} in "
            f"{info.get('sample_cycles')} cycles, tail_percentile=p{info.get('tail_percentile')}; "
            f"pooled over ops: p50 {info.get('pooled_p50_ms', 0):.4g} ms, "
            f"p{info.get('tail_percentile')} {info.get('pooled_tail_ms', 0):.4g} ms "
            f"({info.get('pooled_tail_samples_beyond')} samples beyond)"
        )
        print(
            f"   workers={info.get('workers')} nproc={info.get('nproc')} "
            f"storage={info.get('storage')} cache_bytes={info.get('cache_bytes')}"
        )
        for section, specs in (("e2e", compare.E2E_METRICS), ("layers", compare.LAYER_METRICS)):
            for metric, spec in specs.items():
                if metric not in entry[section]:
                    continue
                value = entry[section][metric]
                shown = "absent" if value is None else f"{value:.6g} {spec[0]}"
                print(f"   {metric:32s} {shown}")
        print(f"   {'failed / attempted':32s} {entry['failed']} / {entry['attempted']}")
        for why in entry["failures"]:
            print(f"   FAILED: {why}")


def driver_line(entry: dict, trace: str) -> str:
    """The one-line JSON result the driver reads (single workload only)."""
    if trace == "1":
        specs = {name: spec[0] for name, spec in compare.LAYER_METRICS.items()}
        values = entry["layers"]
    else:
        specs = {name: compare.E2E_METRICS[name][0] for name in compare.DRIVER_E2E}
        values = entry["e2e"]
    metrics = {
        # A layer this workload does not use (or an absent wrap target) is 0.
        name: {"value": values.get(name) or 0.0, "unit": unit}
        for name, unit in specs.items()
    }
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def contract_drift() -> list[str]:
    """Where the root BENCHMARK.json disagrees with what this file emits."""
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    emitted = {
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n in compare.DRIVER_E2E
            for unit, better, bound in [compare.E2E_METRICS[n]]
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, (unit, better, _) in compare.LAYER_METRICS.items()
        ],
    }
    return [key for key, value in emitted.items() if doc.get(key) != value]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(wl.WORKLOADS),
                        help="run only this workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the generated inputs only; the data seed is fixed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measure each workload for this long (whole op cycles)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="run exactly this many op cycles instead (counts then repeat exactly)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--rows", type=int, default=wl.ROWS)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole suite this many times (gives compare.py a spread)")
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help=f"exercise the harness: {SMOKE_ROWS} rows, 1 s per workload, traced")
    for hidden in ("--stage", "--work", "--result", "--spans"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The benchmark states every knob explicitly: no REPRO_* leaks in, here
    # or (they inherit this environment) in any subprocess.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if args.stage == "prepare":
        stage_prepare(args)
        return 0
    if args.stage == "workload":
        stage_workload(args)
        return 0

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.rows, args.seconds, args.trace = SMOKE_ROWS, 1.0, "both"
    names = args.workload or list(wl.WORKLOADS)
    meta = {
        "rows": args.rows, "seed": args.seed, "data_seed": wl.DATA_SEED,
        "seconds": args.seconds, "cycles": args.cycles, "trace": args.trace,
        "bounder": wl.BOUNDER, "delta": wl.DELTA, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "parallelism": {n: wl.WORKLOADS[n].workers for n in names},
        "cache_bytes": {n: wl.WORKLOADS[n].cache_bytes(args.rows) for n in names},
    }
    print("meta:", json.dumps(meta))
    runs = []
    for _ in range(args.repeat):
        runs.append(run_suite(args, names))
        report(runs[-1])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "runs": runs}, handle, indent=1)
    failed = sum(entry["failed"] for run in runs for entry in run.values())
    if args.smoke and (drift := contract_drift()):
        print(f"BENCHMARK.json disagrees with run.py on: {', '.join(drift)}")
        failed += 1
    if len(names) == 1 and args.trace != "both":
        print(driver_line(runs[-1][names[0]], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
