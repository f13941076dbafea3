"""ExecConfig: one resolution function, read once per connection.

Execution settings never change a result, so what is pinned here is the
plumbing: precedence (explicit > environment > default), loud failure
on any unparsable or out-of-range value — a typo in a CI replay leg must
not quietly run the default suite — and that a connection keeps the
config it resolved at ``connect()`` whatever the environment does later.
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

import repro
from repro.datasets import make_flights_scramble
from repro.fastframe.config import ExecConfig
from repro.stopping import SamplesTaken

ENV = {
    "parallelism": "REPRO_PARALLELISM",
    "storage": "REPRO_STORAGE",
    "cache_bytes": "REPRO_CACHE_BYTES",
}

#: field → (good text, its resolved value, garbage texts)
CASES = {
    "parallelism": ("3", 3, ("two", "0", "2.5")),
    "storage": ("MMAP", "mmap", ("tape",)),
    "cache_bytes": ("4096", 4096, ("big", "0", "-1")),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for variable in ENV.values():
        monkeypatch.delenv(variable, raising=False)


def _typed(field, text):
    """The explicit-keyword spelling of an env text (numbers as numbers
    where they parse, so ``parallelism=0`` is tested as an int)."""
    if field == "storage":
        return text
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def test_defaults():
    assert ExecConfig.resolve() == ExecConfig(
        parallelism=1,
        storage="memory",
        cache_bytes=None,
    )


@pytest.mark.parametrize("source", ["explicit", "env"])
@pytest.mark.parametrize("field", sorted(CASES))
def test_good_value_resolves(monkeypatch, field, source):
    text, expected, _ = CASES[field]
    if source == "env":
        monkeypatch.setenv(ENV[field], f" {text} ")
        config = ExecConfig.resolve()
    else:
        config = ExecConfig.resolve(**{field: _typed(field, text)})
    assert getattr(config, field) == expected
    # Only the named field moved.
    assert config == ExecConfig(**{field: expected})


@pytest.mark.parametrize("source", ["explicit", "env"])
@pytest.mark.parametrize(
    "field,text",
    [(field, text) for field in sorted(CASES) for text in CASES[field][2]],
)
def test_garbage_fails_naming_its_source(monkeypatch, field, text, source):
    if source == "env":
        monkeypatch.setenv(ENV[field], text)
        named, kwargs = ENV[field], {}
    else:
        named, kwargs = field, {field: _typed(field, text)}
    with pytest.raises(ValueError) as raised:
        ExecConfig.resolve(**kwargs)
    message = str(raised.value)
    assert message.startswith(f"{named}=")
    assert text in message


@pytest.mark.parametrize("field", sorted(CASES))
def test_explicit_wins_over_environment(monkeypatch, field):
    text, expected, garbage = CASES[field]
    monkeypatch.setenv(ENV[field], garbage[0])  # never even parsed
    assert getattr(ExecConfig.resolve(**{field: _typed(field, text)}), field) == expected


# ----------------------------------------------------------------------
# Resolved once, at connect()
# ----------------------------------------------------------------------

SQL = "SELECT Airline, AVG(DepDelay) FROM flights GROUP BY Airline"


def _handle(conn):
    return conn.sql(SQL, stopping=SamplesTaken(6_000))


def test_connection_ignores_the_environment_after_connect(monkeypatch):
    """Opened under parallelism 2; afterwards the environment holds
    values that would *raise* if anything re-read them."""
    monkeypatch.setenv("REPRO_PARALLELISM", "2")
    scramble = make_flights_scramble(rows=20_000, seed=3)
    conn = repro.connect(
        scramble, delta=1e-6, rng=np.random.default_rng(17), engine="pool"
    )
    assert conn.config == ExecConfig(parallelism=2)
    monkeypatch.setenv("REPRO_PARALLELISM", "two")
    monkeypatch.setenv("REPRO_STORAGE", "tape")

    updates = list(_handle(conn).rounds(start_block=1))
    assert updates
    # Still the parallel driver, still resident arrays.
    assert all(u.storage is None for u in updates)
    assert _handle(conn).result(start_block=1).metrics.delta_bytes_returned > 0
    batch = conn.gather([_handle(conn), _handle(conn)], start_block=1)
    assert batch.metrics.delta_bytes_returned > 0
    assert scramble.storage is None


def test_serial_connection_stays_serial(monkeypatch):
    conn = repro.connect(
        make_flights_scramble(rows=20_000, seed=3),
        delta=1e-6,
        rng=np.random.default_rng(17),
        engine="pool",
    )
    assert conn.config == ExecConfig()
    monkeypatch.setenv("REPRO_PARALLELISM", "2")
    monkeypatch.setenv("REPRO_STORAGE", "mmap")
    updates = list(_handle(conn).rounds(start_block=1))
    assert updates
    assert _handle(conn).result(start_block=1).metrics.delta_bytes_returned == 0
    batch = conn.gather([_handle(conn)], start_block=1)
    assert batch.metrics.delta_bytes_returned == 0
    assert conn.scramble.storage is None


def test_exactly_one_environment_reader_in_src():
    """The next knob must go through ExecConfig.resolve, not add a
    second reader."""
    package = pathlib.Path(repro.__file__).parent
    readers = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"os\.environ|getenv", line)
    ]
    assert len(readers) == 1 and readers[0].startswith("fastframe/config.py:"), readers
