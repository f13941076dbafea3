"""Error-probability (δ) budget accounting.

Conservative error bounders give PAC-style guarantees: the returned interval
fails to enclose the true aggregate with probability at most δ.  The paper
composes these guarantees by union bounding in several places:

* across the two CI *sides* — each of ``Lbound`` / ``Rbound`` receives δ/2
  (§2.2.3, combination of one-sided bounds);
* across *aggregate views* in a query — δ must be divided by the number of
  aggregate views, or an upper bound on it (§4.1, after Definition 5);
* across OptStop *rounds* — round ``k`` receives δ′ = (6/π²)·(δ/k²), whose
  sum over k ≥ 1 telescopes back to exactly δ (Algorithm 5, Theorem 4);
* across the *unknown-N* split of Theorem 3 — probability (1−α)·δ is spent
  on the event N > N⁺ and α·δ on the conditional CI (α = 0.99 in §4.1).

:class:`DeltaBudget` makes this composition explicit and auditable, so that
callers cannot silently double-spend error probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DeltaBudget",
    "optstop_round_delta",
    "DEFAULT_DELTA",
    "UNKNOWN_N_ALPHA",
]

#: The paper sets δ = 1e-15 throughout its evaluation (§5.2) so that results
#: are "correct in an effectively deterministic manner".
DEFAULT_DELTA = 1e-15

#: Weight α of Theorem 3's unknown-N split: ``(1 − α)·δ`` for the event
#: N > N⁺, ``α·δ`` for the conditional CI.  The paper uses α = 0.99
#: throughout §5, "giving most of the weight to the confidence interval
#: computation"; :meth:`DeltaBudget.split_unknown_n` and the N⁺ bound of
#: :mod:`repro.fastframe.count` both read it here.
UNKNOWN_N_ALPHA = 0.99

#: 6/π², the normalizer making Σ_{k≥1} δ/k² telescope to δ (Theorem 4).
_BASEL_NORMALIZER = 6.0 / (math.pi ** 2)


def optstop_round_delta(delta: float, round_index: int) -> float:
    """Error probability allotted to OptStop round ``k`` (1-indexed).

    Algorithm 5 line 7: ``δ′ = (6/π²)·(δ/k²)``.  Theorem 4 shows the union
    bound over all rounds sums to exactly δ via the Basel identity
    ``Σ 1/k² = π²/6``.

    Parameters
    ----------
    delta:
        Total error probability for the whole optional-stopping run.
    round_index:
        The 1-indexed round number ``k``.

    Raises
    ------
    ValueError
        If ``round_index`` is not a positive integer or ``delta`` is not in
        (0, 1).
    """
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _BASEL_NORMALIZER * delta / (round_index ** 2)


@dataclass(frozen=True)
class DeltaBudget:
    """An immutable slice of error probability.

    A budget starts from a total δ and is subdivided with the composition
    rules the paper uses; each subdivision returns a new (smaller) budget.
    The ``delta`` attribute of a leaf budget is what gets passed to a
    bounder's ``Lbound`` / ``Rbound``.

    Examples
    --------
    >>> budget = DeltaBudget(1e-15)
    >>> per_view = budget.split_even(10)      # 10 aggregate views (§4.1)
    >>> per_round = per_view.for_round(3)     # OptStop round 3 (Alg. 5)
    >>> lo, hi = per_round.split_sides()      # Lbound / Rbound halves
    >>> lo.delta == per_round.delta / 2
    True
    """

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    def split_even(self, parts: int) -> "DeltaBudget":
        """Divide evenly across ``parts`` independent uses (union bound)."""
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        return DeltaBudget(self.delta / parts)

    def split_sides(self) -> tuple["DeltaBudget", "DeltaBudget"]:
        """Split into (lower-bound, upper-bound) halves."""
        half = DeltaBudget(self.delta / 2.0)
        return half, half

    def for_round(self, round_index: int) -> "DeltaBudget":
        """Budget for OptStop round ``k`` per Algorithm 5's δ-decay."""
        return DeltaBudget(optstop_round_delta(self.delta, round_index))

    def split_unknown_n(self) -> tuple[float, "DeltaBudget"]:
        """Split for the unknown-dataset-size bound of Theorem 3.

        Returns ``(delta_for_n_plus, budget_for_ci)`` where the first
        element, ``(1 − α)·δ``, is spent on the event that the online upper
        bound N⁺ underestimates the true view size, and the returned budget,
        ``α·δ``, is spent on the conditional confidence interval
        (α = :data:`UNKNOWN_N_ALPHA`).
        """
        alpha = UNKNOWN_N_ALPHA
        return (1.0 - alpha) * self.delta, DeltaBudget(alpha * self.delta)
