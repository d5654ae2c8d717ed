"""A GSQL-like query front-end.

The paper writes its workloads in Gigascope's SQL dialect::

    select A, tb, count(*) as cnt
    from R
    group by A, time/60 as tb

This module parses that subset into :class:`AggregationQuery` objects:

* a SELECT list of grouping attributes, at most one aggregate
  (``count(*)``, ``sum(col)``, ``avg(col)``; default ``count(*)``), and an
  optional epoch term mirrored from GROUP BY, each with an optional alias;
* ``FROM <stream>`` (the stream name is recorded but not interpreted —
  this library processes a single stream relation, as the paper does);
* an optional WHERE clause of AND-ed comparisons (Gigascope's selection
  step — the F of FTA), shared by the whole query set in the MA model;
* a GROUP BY list of attributes plus at most one ``time/N`` epoch term;
* an optional ``HAVING count(*) > N`` / ``>= N`` threshold (the intro's
  "provided this number of packets is more than 100"), read exactly:
  ``> N`` keeps counts of at least ``floor(N) + 1``, ``>= N`` of at
  least ``ceil(N)``.

Grammar (case-insensitive keywords)::

    query      := SELECT select_list FROM name [WHERE conjunction]
                  [GROUP BY group_list] [HAVING having]
    conjunction:= comparison (AND comparison)*
    comparison := name cmp number
    cmp        := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
    select_list:= select_item ("," select_item)*
    select_item:= aggregate [AS name] | term [AS name]
    aggregate  := COUNT "(" "*" ")"
                | (SUM | AVG | MIN | MAX) "(" name ")"
    group_list := term [AS name] ("," term [AS name])*
    term       := name | TIME "/" number
    having     := COUNT "(" "*" ")" (">" | ">=") number
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.core.attributes import AttributeSet
from repro.core.queries import Aggregate, AggregationQuery, QuerySet
from repro.errors import NotationError

__all__ = ["ParsedQuery", "parse_query", "parse_queries",
           "parse_workload"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<symbol>>=|<=|==|!=|[(),*/<>=]))")

_KEYWORDS = {"select", "from", "where", "and", "group", "by", "having",
             "as", "time", "count", "sum", "avg", "min", "max"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise NotationError(f"cannot tokenize query at: {remainder[:25]!r}")
        pos = match.end()
        if match.group("number") is not None:
            tokens.append(("number", match.group("number")))
        elif match.group("name") is not None:
            name = match.group("name")
            kind = "keyword" if name.lower() in _KEYWORDS else "name"
            value = name.lower() if kind == "keyword" else name
            tokens.append((kind, value))
        else:
            tokens.append(("symbol", match.group("symbol")))
    return tokens


@dataclass(frozen=True)
class ParsedQuery:
    """The full parse result: the query plus its surface details."""

    query: AggregationQuery
    stream: str
    aggregate_alias: str | None
    epoch_alias: str | None
    text: str
    where: "And | None" = None


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], text: str):
        self._tokens = tokens
        self._pos = 0
        self._text = text

    # -- low-level helpers ------------------------------------------------
    def _peek(self) -> tuple[str, str] | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise NotationError(f"unexpected end of query: {self._text!r}")
        self._pos += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> str:
        got_kind, got_value = self._next()
        if got_kind != kind or (value is not None and got_value != value):
            want = value or kind
            raise NotationError(
                f"expected {want!r}, got {got_value!r} in {self._text!r}")
        return got_value

    def _accept(self, kind: str, value: str | None = None) -> str | None:
        token = self._peek()
        if token is None:
            return None
        got_kind, got_value = token
        if got_kind == kind and (value is None or got_value == value):
            self._pos += 1
            return got_value
        return None

    # -- grammar ----------------------------------------------------------
    def parse(self, default_epoch: float) -> ParsedQuery:
        self._expect("keyword", "select")
        select_attrs: list[str] = []
        aggregate: Aggregate | None = None
        aggregate_alias: str | None = None
        select_epoch: float | None = None
        epoch_alias: str | None = None
        while True:
            item = self._select_item()
            kind = item[0]
            if kind == "attr":
                select_attrs.append(item[1])
            elif kind == "agg":
                if aggregate is not None:
                    raise NotationError(
                        f"more than one aggregate in {self._text!r}")
                aggregate, aggregate_alias = item[1], item[2]
            else:  # epoch
                if select_epoch is not None:
                    raise NotationError(
                        f"more than one time/N in SELECT of {self._text!r}")
                select_epoch, epoch_alias = item[1], item[2]
            if not self._accept("symbol", ","):
                break
        self._expect("keyword", "from")
        stream = self._expect("name")

        where = None
        if self._accept("keyword", "where"):
            where = self._where()

        group_attrs: list[str] = []
        group_epoch: float | None = None
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            while True:
                token_kind, token_value = self._next()
                if token_kind == "keyword" and token_value == "time":
                    if group_epoch is not None:
                        raise NotationError(
                            f"more than one time/N in GROUP BY of "
                            f"{self._text!r}")
                    self._expect("symbol", "/")
                    group_epoch = float(self._expect("number"))
                    if self._accept("keyword", "as"):
                        epoch_alias = self._expect("name")
                elif token_kind == "name":
                    group_attrs.append(token_value)
                    self._accept("keyword", "as") and self._expect("name")
                else:
                    raise NotationError(
                        f"bad GROUP BY term {token_value!r} in {self._text!r}")
                if not self._accept("symbol", ","):
                    break

        having_min: int | None = None
        if self._accept("keyword", "having"):
            having_min = self._having()
        if self._peek() is not None:
            raise NotationError(
                f"trailing tokens after query: {self._text!r}")

        return self._build(select_attrs, aggregate, aggregate_alias,
                           select_epoch, epoch_alias, stream, group_attrs,
                           group_epoch, having_min, default_epoch, where)

    def _select_item(self):
        token_kind, token_value = self._next()
        if token_kind == "keyword" and token_value in ("count", "sum",
                                                       "avg", "min", "max"):
            self._expect("symbol", "(")
            if token_value == "count":
                self._expect("symbol", "*")
                aggregate = Aggregate("count")
            else:
                column = self._expect("name")
                aggregate = Aggregate(token_value, column)
            self._expect("symbol", ")")
            alias = self._expect("name") if self._accept("keyword", "as") \
                else None
            return ("agg", aggregate, alias)
        if token_kind == "keyword" and token_value == "time":
            self._expect("symbol", "/")
            epoch = float(self._expect("number"))
            alias = self._expect("name") if self._accept("keyword", "as") \
                else None
            return ("epoch", epoch, alias)
        if token_kind == "name":
            alias = self._expect("name") if self._accept("keyword", "as") \
                else None
            return ("attr", token_value)
        raise NotationError(
            f"bad select item {token_value!r} in {self._text!r}")

    def _where(self):
        from repro.gigascope.filters import And, Comparison
        comparisons = []
        while True:
            column = self._expect("name")
            op_kind, op = self._next()
            if op_kind != "symbol" or op not in ("=", "==", "!=", "<",
                                                 "<=", ">", ">="):
                raise NotationError(
                    f"bad WHERE operator {op!r} in {self._text!r}")
            value = float(self._expect("number"))
            comparisons.append(Comparison(column, op, value))
            if not self._accept("keyword", "and"):
                break
        return And(*comparisons)

    def _having(self) -> int:
        self._expect("keyword", "count")
        self._expect("symbol", "(")
        self._expect("symbol", "*")
        self._expect("symbol", ")")
        op_kind, op = self._next()
        if op_kind != "symbol" or op not in (">", ">="):
            raise NotationError(
                f"HAVING supports count(*) > N / >= N, got {op!r}")
        # Exact: a float would round thresholds beyond 2**53.
        threshold = Fraction(self._expect("number"))
        if op == ">":
            return math.floor(threshold) + 1
        return math.ceil(threshold)

    @staticmethod
    def _build(select_attrs, aggregate, aggregate_alias, select_epoch,
               epoch_alias, stream, group_attrs, group_epoch, having_min,
               default_epoch, where) -> ParsedQuery:
        if group_attrs:
            # A select item may name the GROUP BY epoch alias (the paper's
            # Q0 selects "tb" for "time/60 as tb").
            missing = [a for a in select_attrs
                       if a not in group_attrs and a != epoch_alias]
            if missing:
                raise NotationError(
                    f"selected attributes {missing} missing from GROUP BY")
            attrs = group_attrs
        else:
            attrs = select_attrs
        if not attrs:
            raise NotationError("a query must group by at least one "
                                "attribute")
        epoch = group_epoch if group_epoch is not None else select_epoch
        if (select_epoch is not None and group_epoch is not None
                and select_epoch != group_epoch):
            raise NotationError("time/N differs between SELECT and GROUP BY")
        query = AggregationQuery(
            AttributeSet(attrs),
            aggregate or Aggregate("count"),
            epoch_seconds=epoch if epoch is not None else default_epoch,
            having_min=having_min)
        return ParsedQuery(query, stream, aggregate_alias, epoch_alias, "",
                           where)


def parse_query(text: str, default_epoch: float = 60.0) -> ParsedQuery:
    """Parse one query; returns the :class:`ParsedQuery` wrapper."""
    parser = _Parser(_tokenize(text), text)
    parsed = parser.parse(default_epoch)
    return ParsedQuery(parsed.query, parsed.stream, parsed.aggregate_alias,
                       parsed.epoch_alias, text, parsed.where)


def parse_workload(texts: Iterable[str], default_epoch: float = 60.0):
    """Parse several queries into ``(QuerySet, shared WHERE predicate)``.

    All queries must name the same stream, share one epoch length (the
    LFTA flushes all tables together) and — because the MA model shares
    one raw stream among all queries — agree on the WHERE clause (every
    query carries the same one, or none does).
    """
    parsed = [parse_query(t, default_epoch) for t in texts]
    streams = {p.stream for p in parsed}
    if len(streams) > 1:
        raise NotationError(
            f"queries span several streams: {sorted(streams)}")
    wheres = {p.where for p in parsed}
    if len(wheres) > 1:
        raise NotationError(
            "queries disagree on WHERE; the MA model shares one filtered "
            "stream, so all queries must carry the same predicate")
    return QuerySet([p.query for p in parsed]), next(iter(wheres))


def parse_queries(texts: Iterable[str],
                  default_epoch: float = 60.0) -> QuerySet:
    """Parse several queries into a :class:`QuerySet` (no WHERE clauses).

    Use :func:`parse_workload` when the queries filter the stream — this
    helper refuses WHERE rather than silently dropping it.
    """
    queries, where = parse_workload(texts, default_epoch)
    if where is not None:
        raise NotationError(
            "queries carry a WHERE clause; use parse_workload() to also "
            "receive the stream predicate")
    return queries
