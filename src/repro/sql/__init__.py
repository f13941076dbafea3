"""SQL front-end for FastFrame (the Figure 5 query language).

Parses the SQL subset the paper's evaluation queries are written in and
compiles it to executable :class:`~repro.fastframe.query.Query` objects,
inferring each query's stopping condition from how the aggregate is
consumed (HAVING → threshold side, ORDER BY … LIMIT → top-K separation,
ORDER BY → groups ordered; see :mod:`repro.sql.compiler`).

Quick use::

    from repro.sql import parse_query

    query = parse_query(
        "SELECT Origin FROM flights GROUP BY Origin "
        "HAVING AVG(DepDelay) < 0"
    )
    result = connection.query(query).result()
"""

from repro.sql.ast import SelectStatement
from repro.sql.compiler import (
    SqlCompileError,
    compile_statement,
    parse_query,
    parse_statements,
)
from repro.sql.lexer import SqlSyntaxError, Token, TokenType, tokenize
from repro.sql.parser import parse, parse_script

__all__ = [
    "SelectStatement",
    "SqlCompileError",
    "SqlSyntaxError",
    "Token",
    "TokenType",
    "compile_statement",
    "parse",
    "parse_query",
    "parse_script",
    "parse_statements",
    "tokenize",
]
