"""Factory registry mapping experiment names to bounder instances.

The evaluation (§5.2) names its error-bounding strategies ``Hoeffding``,
``Hoeffding+RT``, ``Bernstein``, and ``Bernstein+RT``; this registry lets
the experiment harness and benches construct them by name.  Fresh instances
are returned on every call (bounders are stateless, but RangeTrim wrappers
hold an inner-bounder reference, and callers may want to monkeypatch one
without aliasing).
"""

from __future__ import annotations

from typing import Callable

from repro.bounders.anderson import AndersonBounder
from repro.bounders.base import ErrorBounder
from repro.bounders.bernstein import (
    EmpiricalBernsteinBounder,
    EmpiricalBernsteinSerflingBounder,
)
from repro.bounders.hoeffding import HoeffdingSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder

__all__ = [
    "get_bounder",
    "available_bounders",
    "register_bounder",
    "EVALUATED_BOUNDERS",
]

_REGISTRY: dict[str, Callable[[], ErrorBounder]] = {
    "hoeffding": HoeffdingSerflingBounder,
    "hoeffding+rt": lambda: RangeTrimBounder(HoeffdingSerflingBounder()),
    "bernstein": EmpiricalBernsteinSerflingBounder,
    "bernstein+rt": lambda: RangeTrimBounder(EmpiricalBernsteinSerflingBounder()),
    "bernstein-no-fpc": EmpiricalBernsteinBounder,
    "anderson": AndersonBounder,
    "anderson+rt": lambda: RangeTrimBounder(AndersonBounder()),
}

#: The four approximate strategies evaluated head-to-head in Table 5.
EVALUATED_BOUNDERS = ("hoeffding", "hoeffding+rt", "bernstein", "bernstein+rt")


def get_bounder(name: str) -> ErrorBounder:
    """Construct a fresh bounder by registry name (case-insensitive).

    Raises
    ------
    KeyError
        If the name is unknown; the error lists the available names.
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown bounder {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]()


def available_bounders() -> tuple[str, ...]:
    """Names accepted by :func:`get_bounder`.

    Every built-in is SSI and has a vectorized pool flavour; only a
    :func:`register_bounder` factory can add a scalar-only one, which the
    executor's loop fall-backs carry.
    """
    return tuple(sorted(_REGISTRY))


def register_bounder(name: str, factory: Callable[[], ErrorBounder]) -> None:
    """Register a custom bounder factory under ``name``.

    Extension point: any SSI range-based bounder implementing the
    :class:`~repro.bounders.base.ErrorBounder` interface can participate in
    the executor and experiment harness — including RangeTrim-wrapped ones,
    since RangeTrim composes with *any* range-based bounder (§3.2).
    """
    key = name.strip().lower()
    if key in _REGISTRY:
        raise ValueError(f"bounder name {name!r} is already registered")
    _REGISTRY[key] = factory
