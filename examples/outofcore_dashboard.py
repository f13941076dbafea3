"""Out-of-core dashboard: a block-store scramble bigger than its cache.

The storage layer (PR 10) lets a connection serve queries from a
scramble that never lives in memory: ``write_block_store`` spills the
permuted columns to per-column block files, ``open_block_scramble``
serves them back through zero-copy ``np.memmap`` views, and an LRU block
cache with a byte budget sits between the scan and the files.  This
script makes the cache deliberately *smaller than the dataset* — blocks
are evicted mid-scan — and shows that a 6-query dashboard still produces
results **exactly identical** (same estimates, same certified interval
endpoints, same sample counts, same δ spend) to resident in-memory
execution, because the block files round-trip the same float64/int32
bytes the arrays held.

Along the way it prints the block-I/O ledger the connection surfaces on
its round updates: blocks and bytes read from disk, cache hits and
evictions.

Run:  python examples/outofcore_dashboard.py
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

import repro
from repro.datasets import make_flights_scramble
from repro.fastframe.storage import open_block_scramble, write_block_store

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "400000"))
BLOCK_ROWS = 4_096  # small blocks so even modest ROWS spans many of them


def _dashboard(conn):
    """Six concurrent queries over one shared scan (the paper's §4.1
    multi-query session shape)."""
    return [
        conn.table().group_by("Airline").named("having-hi").avg("DepDelay", above=9.0),
        conn.table().group_by("Airline").named("having-lo").avg("DepDelay", above=7.5),
        conn.table().where("Origin", "ORD").named("ord-avg").avg("DepDelay", rel=0.2),
        conn.table().group_by("Airline").named("top3").avg("DepDelay", top=3),
        conn.table().group_by("Airline").named("counts").count(rel=0.05),
        conn.table().named("deptime").avg("DepTime", rel=0.01),
    ]


def _connect(scramble):
    return repro.connect(scramble, delta=1e-6, rng=np.random.default_rng(17))


def _store_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


def main() -> None:
    print(f"building a {ROWS:,}-row flights scramble ...")
    resident = make_flights_scramble(rows=ROWS, seed=1)

    directory = tempfile.mkdtemp(prefix="repro-outofcore-example-")
    try:
        write_block_store(directory, resident, block_rows=BLOCK_ROWS)
        store_bytes = _store_bytes(directory)
        # A budget far below the dataset: blocks must be evicted mid-scan.
        cache_bytes = max(store_bytes // 8, 4 * BLOCK_ROWS * 8)
        print(
            f"spilled {store_bytes:,} bytes of block files to {directory}\n"
            f"cache budget: {cache_bytes:,} bytes "
            f"({100.0 * cache_bytes / store_bytes:.0f}% of the store)"
        )

        # Reference: the same dashboard on the resident in-memory arrays.
        ref_conn = _connect(resident)
        reference = ref_conn.gather(_dashboard(ref_conn))

        # Out-of-core: every gather reads through the mmap block store.
        scramble = open_block_scramble(directory, cache_bytes=cache_bytes)
        try:
            conn = _connect(scramble)
            batch = conn.gather(_dashboard(conn))

            print("\ncertified results (served entirely from block files):")
            for result in batch.results:
                top = sorted(
                    result.groups.items(),
                    key=lambda item: -item[1].estimate,
                )[:3]
                rendered = ", ".join(
                    f"{'/'.join(map(str, key)) or 'all'}: "
                    f"{group.estimate:,.2f} "
                    f"[{group.interval.lo:,.2f}, {group.interval.hi:,.2f}]"
                    for key, group in top
                )
                print(f"  {result.query.name:>9s}  {rendered}")

            exact = True
            for got, want in zip(batch.results, reference.results):
                assert set(got.groups) == set(want.groups)
                for key, group in got.groups.items():
                    other = want.groups[key]
                    exact &= (
                        group.estimate == other.estimate
                        and group.interval.lo == other.interval.lo
                        and group.interval.hi == other.interval.hi
                        and group.samples == other.samples
                    )
            assert exact, "out-of-core results diverged from in-memory"
            print(
                "\nevery estimate, interval endpoint, and sample count is "
                "byte-identical to in-memory execution"
            )

            storage = batch.metrics.storage_snapshot()
            stats = scramble.storage.stats
            assert stats.cache_evictions > 0, "cache never overflowed?"
            print(
                f"\nblock I/O ledger ({len(batch.results)} queries, "
                f"{batch.metrics.rounds} shared windows):\n"
                f"  blocks read from disk : {storage.blocks_read:,} "
                f"({storage.bytes_read:,} bytes)\n"
                f"  cache hits            : {storage.cache_hits:,}\n"
                f"  cache evictions       : {storage.cache_evictions:,} "
                "(budget smaller than the dataset)"
            )
        finally:
            scramble.storage.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
