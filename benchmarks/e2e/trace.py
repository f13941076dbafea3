"""Outside-in span tracer: wraps each layer's public entry points.

Nothing in ``src/`` knows about tracing (the in-``src`` ``StageTimer`` is a
later issue).  ``Tracer.install`` rebinds the entry points listed in
``TARGETS`` to wrappers that record spans — (name, start, end, parent,
op id) — on an in-memory span stack.  A layer's *self* time is its spans'
duration minus the part their child spans cover, so the per-layer numbers
add up to the traced op time; what no wrapper covers is ``untraced``.

A target that no longer exists is reported in ``Tracer.absent`` and never
raises, so the refactors the ROADMAP plans cannot break the end-to-end run.
Spans inside forked ingest workers are not collected (the wrappers switch
themselves off in a forked child); worker-side time comes from
``ExecutionMetrics.partition_wall_s`` / ``merge_wall_s`` instead.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns

#: span name -> (module, dotted attribute) of one public entry point.
TARGETS = (
    ("sql.parse", "repro.sql.compiler", "parse_statements"),
    ("api.plan", "repro.fastframe.executor", "QueryRun.__init__"),
    ("scan.select_blocks", "repro.fastframe.executor", "QueryRun.select_blocks"),
    ("scan.cursor", "repro.fastframe.scan", "ScanCursor.next_window"),
    # consume() is the scalar engine's whole round (small pools) and a thin
    # shell around partition + consume_delta for the pool engine.
    ("executor.round", "repro.fastframe.executor", "QueryRun.consume"),
    ("executor.round", "repro.fastframe.executor", "QueryRun.consume_delta"),
    ("api.snapshot", "repro.fastframe.executor", "QueryRun.group_snapshots"),
    ("api.finalize", "repro.fastframe.executor", "QueryRun.finalize"),
    ("window.frame", "repro.fastframe.window", "WindowFrame.__init__"),
    ("window.gather_values", "repro.fastframe.window", "WindowFrame.values"),
    ("window.combined_codes", "repro.fastframe.window", "WindowFrame.combined_codes"),
    ("window.predicate_mask", "repro.fastframe.window", "WindowFrame.predicate_mask"),
    ("window.export", "repro.fastframe.window", "WindowFrame.export_shared"),
    ("kernels.partition", "repro.fastframe.kernels", "partition_ingest"),
    ("viewpool.merge", "repro.fastframe.viewpool", "ViewPool.apply_ingest"),
    ("viewpool.snapshot", "repro.fastframe.viewpool", "ViewPool.snapshot_columns"),
    ("storage.gather", "repro.fastframe.storage", "BlockedColumnArray.__getitem__"),
    ("storage.block", "repro.fastframe.storage", "MmapBlockStore.block"),
    ("parallel.run", "repro.fastframe.parallel", "ParallelScanDriver.run"),
)

#: span name -> (module, base class, method names): wrapped wherever a class
#: in the family (the base, its subclasses, their mixins) defines them.
FAMILY_TARGETS = (
    (
        "bounders.bound",
        "repro.bounders.base",
        "ErrorBounder",
        (
            "confidence_interval_batch", "lbound_batch", "rbound_batch",
            "confidence_interval", "lbound", "rbound",  # the scalar engine's
        ),
    ),
    (
        "stopping.evaluate",
        "repro.stopping.conditions",
        "StoppingCondition",
        ("active_mask", "satisfied_columns", "active_groups", "satisfied"),
    ),
)

#: Span of one whole op, opened by the runner around ``Client.run``.
OP_SPAN = "op"


def _family(base) -> set:
    """``base``, every subclass, and every class they inherit from."""
    found, frontier = set(), [base]
    while frontier:
        cls = frontier.pop()
        found.update(cls.__mro__[:-1])  # all but ``object``
        frontier.extend(cls.__subclasses__())
    return found


class Tracer:
    """Span stack plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, op id]
        self.spans: list[list] = []
        #: Span names with at least one / with no wrap target installed.
        self.present: list[str] = []
        self.absent: list[str] = []
        #: Bytes returned by ``storage.gather`` spans (for read amplification).
        self.bytes_gathered = 0
        self._stack: list[int] = []
        self._op = -1
        self._enabled = True
        self._thread = threading.get_ident()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_bytes = name == "storage.gather"

        @wraps(fn)
        def traced(*args, **kwargs):
            # Only the client thread owns the span stack: the storage
            # prefetch thread and forked workers call straight through.
            if not self._enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count_bytes:
                self.bytes_gathered += getattr(out, "nbytes", 0)
            return out

        return traced

    def install(self) -> None:
        """Rebind every target that exists; list the rest in ``absent``."""
        os.register_at_fork(after_in_child=self._disable)
        present = set()
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            present.add(name)
            wrapper = self._wrap(name, original)
            if parents:
                setattr(owner, attr, wrapper)
            else:
                # A module-level function is also bound by name wherever it
                # was imported (``from kernels import partition_ingest``).
                for module in list(sys.modules.values()):
                    for key, value in list(getattr(module, "__dict__", {}).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        for name, module_name, base_name, methods in FAMILY_TARGETS:
            try:
                base = getattr(importlib.import_module(module_name), base_name)
            except (ImportError, AttributeError):
                continue
            for cls in _family(base):
                for method in methods:
                    if method in vars(cls):
                        setattr(cls, method, self._wrap(name, vars(cls)[method]))
                        present.add(name)
        names = {target[0] for target in TARGETS + FAMILY_TARGETS}
        self.present, self.absent = sorted(present), sorted(names - present)

    def _disable(self) -> None:
        self._enabled = False

    # -- op scoping -----------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        self.spans.append([OP_SPAN, perf_counter_ns(), 0, -1, self._op])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    # -- reading --------------------------------------------------------

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = (end - start) / 1e6
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write the raw spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
