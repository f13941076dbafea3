"""Execution configuration: how a query is served, never what it returns."""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

__all__ = ["ExecConfig", "STORAGE_BACKENDS"]

STORAGE_BACKENDS = ("memory", "mmap")


def _positive_int(raw) -> int:
    if isinstance(raw, bool):  # operator.index(True) == 1
        raise TypeError
    value = int(raw) if isinstance(raw, str) else operator.index(raw)
    if value < 1:
        raise ValueError
    return value


def _backend(raw) -> str:
    value = str(raw).lower()
    if value not in STORAGE_BACKENDS:
        raise ValueError
    return value


#: field → (environment variable, parser, what a valid value looks like)
_FIELDS = {
    "parallelism": ("REPRO_PARALLELISM", _positive_int, "an integer >= 1"),
    "storage": ("REPRO_STORAGE", _backend, f"one of {STORAGE_BACKENDS}"),
    "cache_bytes": ("REPRO_CACHE_BYTES", _positive_int, "an integer >= 1"),
}


@dataclass(frozen=True)
class ExecConfig:
    """The resolved execution settings of one connection.

    They change wall time and I/O only: every result, δ allocation and
    metric other than wall time is byte-identical across configurations.
    Built once per connection by :meth:`resolve` — the only function in
    the package that reads the process environment — and handed down as
    one object.

    Attributes
    ----------
    parallelism:
        Ingest threads that partition window slices
        (``REPRO_PARALLELISM``, default 1).  Above 1 every resolution path (``result()``,
        ``rounds()``, ``gather()``) is driven by
        :class:`~repro.fastframe.parallel.ParallelScanDriver`; at 1 the
        serial loops run and no thread pool is touched.
    storage:
        ``"memory"`` (resident arrays, the default) or ``"mmap"`` (the
        scramble is spilled to an out-of-core block store, see
        :mod:`repro.fastframe.storage`); ``REPRO_STORAGE``.  On
        ``Connection.config`` this is the backend in effect when the
        connection opened: ``"mmap"`` whenever the scramble was already
        store-backed, whatever was asked for.
    cache_bytes:
        Byte budget of a block cache private to the connection's store
        (``REPRO_CACHE_BYTES``); ``None``, the default, keeps the
        process-wide shared cache
        (:data:`~repro.fastframe.storage.DEFAULT_CACHE_BYTES`).
    """

    parallelism: int = 1
    storage: str = "memory"
    cache_bytes: int | None = None

    @classmethod
    def resolve(
        cls,
        *,
        parallelism: int | None = None,
        storage: str | None = None,
        cache_bytes: int | None = None,
    ) -> "ExecConfig":
        """Explicit keyword, else environment variable, else default.

        ``None`` means *unset* for every keyword.  A value that cannot
        be parsed or is out of range raises :class:`ValueError` naming
        the keyword or variable it came from — a typo never silently
        falls back to the default.
        """
        explicit = dict(
            parallelism=parallelism, storage=storage, cache_bytes=cache_bytes
        )
        resolved = {}
        for name, (variable, parse, expected) in _FIELDS.items():
            raw, source = explicit[name], name
            if raw is None:
                raw, source = os.environ.get(variable, "").strip(), variable
                if not raw:
                    continue
            try:
                resolved[name] = parse(raw)
            except (TypeError, ValueError):
                raise ValueError(f"{source}={raw!r}: expected {expected}") from None
        return cls(**resolved)
