"""The multi-query δ ledger (§4.1).

A scramble's "up-front shuffling cost need only be paid once in order to
facilitate many queries, although care must be taken to set the error
probability δ small enough when running multiple queries to avoid losing
error bounder guarantees" (§4.1).  The subtlety: the scramble's permutation
is *reused* across queries, so query-level failure events are not
independent; a union bound over every query run in the session is what
keeps the joint guarantee.

:class:`DeltaLedger` packages that bookkeeping.  It is constructed with a
total session-level error probability and a per-query allocation policy:

* ``"even"`` — the session is declared for up to ``max_queries`` queries
  and each receives ``δ_session / max_queries`` (the paper's policy: at
  δ = 1e-15, "union bounding over the number of queries run, the upper
  bound on the error probability will still be sufficiently small … for
  any practical number of queries");
* ``"harmonic"`` — an open-ended session: query ``k`` receives
  ``(6/π²)·δ_session/k²`` (the same Basel-series decay Algorithm 5 uses
  across rounds), so *any* number of queries may be run and the spent
  probability still telescopes to at most ``δ_session``.

Each query is :meth:`~DeltaLedger.charge`\\ d *before* it runs (so batched
and sequential execution spend identically) and
:meth:`~DeltaLedger.settle`\\ d with its cost counters afterwards;
:attr:`~DeltaLedger.spent_delta` and :meth:`~DeltaLedger.audit` expose the
ledger.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.stats.delta import DEFAULT_DELTA, optstop_round_delta

__all__ = ["DeltaLedger", "QueryLedgerEntry", "LEDGER_POLICIES"]

#: Per-query δ allocation policies a ledger supports.
LEDGER_POLICIES = ("even", "harmonic")


@dataclass(frozen=True)
class QueryLedgerEntry:
    """One line of the session's δ ledger."""

    index: int
    name: str
    delta: float
    rows_read: int
    stopped_early: bool


class DeltaLedger:
    """The session-level δ budget: allocation policy + auditable spend.

    Parameters
    ----------
    session_delta:
        Total error probability for *all* queries combined: with
        probability at least ``1 − session_delta`` every interval returned
        by every charged query is simultaneously valid.
    policy:
        ``"even"`` (requires ``max_queries``) or ``"harmonic"`` (open
        ended); see the module docstring.
    max_queries:
        Declared query capacity for the ``"even"`` policy.
    """

    def __init__(
        self,
        session_delta: float = DEFAULT_DELTA,
        policy: str = "even",
        max_queries: int = 100,
    ) -> None:
        if policy not in LEDGER_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected 'even' or 'harmonic'"
            )
        if not 0.0 < session_delta < 1.0:
            raise ValueError(
                f"session_delta must be in (0, 1), got {session_delta}"
            )
        if policy == "even" and max_queries < 1:
            raise ValueError(f"max_queries must be >= 1, got {max_queries}")
        self.session_delta = session_delta
        self.policy = policy
        self.max_queries = max_queries
        self._entries: list[QueryLedgerEntry] = []

    # ------------------------------------------------------------------

    @property
    def queries_run(self) -> int:
        return len(self._entries)

    @property
    def spent_delta(self) -> float:
        """Total error probability consumed so far (union bound)."""
        return sum(entry.delta for entry in self._entries)

    def next_delta(self) -> float:
        """The δ the next charged query will receive under the policy."""
        return self.preview(1)[0]

    def preview(self, count: int) -> tuple[float, ...]:
        """The δs the next ``count`` charges will receive — committing
        nothing.

        Allocation is deterministic in charge order, so callers can build
        and *validate* executions against previewed δs and only charge the
        ledger once nothing can fail any more (a failed query must not
        strand spent δ).
        """
        self.ensure_capacity(count)
        if self.policy == "even":
            return (self.session_delta / self.max_queries,) * count
        return tuple(
            optstop_round_delta(self.session_delta, self.queries_run + k)
            for k in range(1, count + 1)
        )

    def ensure_capacity(self, count: int) -> None:
        """Raise unless ``count`` more queries can be charged.

        Batch callers (``gather``) check the whole batch *before* charging
        anything, so a capacity overflow never strands partially-charged,
        never-run queries on the ledger.
        """
        if (
            self.policy == "even"
            and self.queries_run + count > self.max_queries
        ):
            remaining = self.max_queries - self.queries_run
            shortfall = (
                "run all of them"
                if remaining == 0
                else f"only {remaining} left ({count} requested)"
            )
            raise RuntimeError(
                f"session declared for {self.max_queries} queries has "
                f"{shortfall}; start a new session or use the 'harmonic' "
                f"policy for open-ended sessions"
            )

    def charge(self, name: str) -> QueryLedgerEntry:
        """Allocate the next query's δ and open its ledger line.

        Charging happens *before* execution: the allocation order is the
        charge order, so a batched gather spends exactly what the same
        queries charged sequentially would.  The entry's cost counters
        start at zero until :meth:`settle` fills them in.
        """
        entry = QueryLedgerEntry(
            index=len(self._entries) + 1,
            name=name,
            delta=self.next_delta(),
            rows_read=0,
            stopped_early=False,
        )
        self._entries.append(entry)
        return entry

    def settle(self, index: int, rows_read: int, stopped_early: bool) -> None:
        """Fill in a charged entry's post-execution cost counters."""
        entry = self._entries[index - 1]
        self._entries[index - 1] = dataclasses.replace(
            entry, rows_read=rows_read, stopped_early=stopped_early
        )

    def audit(self) -> tuple[QueryLedgerEntry, ...]:
        """The ledger: per-query δ allocations in charge order."""
        return tuple(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaLedger(policy={self.policy!r}, "
            f"queries_run={self.queries_run}, "
            f"spent={self.spent_delta:.3g} of {self.session_delta:.3g})"
        )
