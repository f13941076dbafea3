"""The nine Flights queries F-q1..F-q9 (Figure 5 / Table 4) as SQL.

Each query is its Figure 5 SQL text; the SQL compiler infers the stopping
condition Table 4 prescribes (HAVING / CASE WHEN → threshold side,
ORDER BY … LIMIT k → top-k separated, ORDER BY alone → groups ordered).
The template parameters (blue in the paper) are ``$airport`` (F-q1),
``$thresh`` (F-q2) and ``$min_dep_time`` (F-q3), with the paper's
defaults.  F-q1's ε is the one parameter that is not SQL: it is the
:class:`~repro.stopping.RelativeAccuracy` the query stops on.
"""

from __future__ import annotations

from string import Template

from repro.fastframe.query import Query
from repro.sql import parse_query
from repro.stopping.conditions import RelativeAccuracy

__all__ = ["FIGURE5_SQL", "GROUP_BY_QUERIES", "build_query"]

#: Figure 5's SQL per query (``$field`` marks a template parameter).
FIGURE5_SQL = {
    "F-q1": "SELECT AVG(DepDelay) FROM flights WHERE Origin = $airport",
    "F-q2": (
        "SELECT Airline FROM flights "
        "GROUP BY Airline HAVING AVG(DepDelay) > $thresh"
    ),
    "F-q3": (
        "SELECT Airline FROM flights WHERE DepTime > $min_dep_time "
        "GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2"
    ),
    "F-q4": (
        "SELECT (CASE WHEN AVG(DepDelay) > 10 THEN 1 ELSE 0 END) "
        "FROM flights WHERE Origin = 'ORD'"
    ),
    "F-q5": (
        "SELECT Origin FROM flights "
        "GROUP BY Origin HAVING AVG(DepDelay) < 0"
    ),
    "F-q6": (
        "SELECT DayOfWeek, Origin FROM flights "
        "WHERE DepTime > 1:50pm GROUP BY DayOfWeek, Origin "
        "ORDER BY AVG(DepDelay) DESC LIMIT 5"
    ),
    "F-q7": (
        "SELECT DayOfWeek, AVG(DepDelay) FROM flights "
        "WHERE Airline = 'HP' GROUP BY DayOfWeek "
        "ORDER BY AVG(DepDelay)"
    ),
    "F-q8": (
        "SELECT Origin FROM flights GROUP BY Origin "
        "ORDER BY AVG(DepDelay) DESC LIMIT 1"
    ),
    "F-q9": (
        "SELECT Airline FROM flights GROUP BY Airline "
        "ORDER BY AVG(DepDelay) DESC LIMIT 1"
    ),
}

#: The paper's default parameters (F-q3's 2250 is 10:50pm in HHMM).
_DEFAULTS = {
    "F-q1": {"airport": "ORD", "epsilon": 0.5},
    "F-q2": {"thresh": 0.0},
    "F-q3": {"min_dep_time": 2250.0},
}

#: The GROUP BY queries Table 6 restricts to (those where sampling
#: strategy can matter).
GROUP_BY_QUERIES = ("F-q3", "F-q5", "F-q6", "F-q7", "F-q8")


def _sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(float(value))


def build_query(name: str, **params) -> Query:
    """Compile query ``name`` with its template parameters filled in."""
    if name not in FIGURE5_SQL:
        raise KeyError(f"unknown query {name!r}; available: {sorted(FIGURE5_SQL)}")
    defaults = _DEFAULTS.get(name, {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise TypeError(f"{name} takes no parameter(s) {sorted(unknown)}")
    fields = {**defaults, **params}
    epsilon = fields.pop("epsilon", None)
    sql = Template(FIGURE5_SQL[name]).substitute(
        {key: _sql_literal(value) for key, value in fields.items()}
    )
    stopping = None if epsilon is None else RelativeAccuracy(epsilon)
    return parse_query(sql, stopping=stopping, name=name)
