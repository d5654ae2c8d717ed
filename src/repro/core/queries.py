"""Aggregation query specifications.

The paper considers sets of aggregation queries over a single stream relation
that *differ only in their grouping attributes* — e.g.::

    select A, tb, count(*) from R group by A, time/60 as tb

This module models such queries: a grouping :class:`AttributeSet`, an
aggregate function (``count``, ``sum`` or ``avg`` of a value column), the
temporal epoch length, and an optional HAVING-style threshold (the intro's
"provided this number of packets is more than 100").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.attributes import AttributeSet
from repro.errors import SchemaError

if TYPE_CHECKING:
    from repro.core.feeding_graph import FeedingGraph

__all__ = ["Aggregate", "AggregationQuery", "QuerySet"]


@dataclass(frozen=True)
class Aggregate:
    """An aggregate function applied per group and epoch.

    ``kind`` is one of ``"count"``, ``"sum"``, ``"avg"``, ``"min"`` or
    ``"max"``; ``column`` names the value column for everything but
    ``count``, which takes none. All five are *mergeable* partials, which
    is what lets evicted entries combine at any level of the phantom tree
    and again at the HFTA.
    """

    kind: str = "count"
    column: str | None = None

    _KINDS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise SchemaError(f"unknown aggregate kind {self.kind!r}")
        if self.kind == "count" and self.column is not None:
            raise SchemaError("count(*) takes no column")
        if self.kind in ("sum", "avg", "min", "max") and not self.column:
            raise SchemaError(f"{self.kind} requires a value column")

    def label(self) -> str:
        if self.kind == "count":
            return "count(*)"
        return f"{self.kind}({self.column})"


@dataclass(frozen=True)
class AggregationQuery:
    """One user aggregation query.

    Parameters
    ----------
    group_by:
        The grouping attributes. This is the query's identity in the
        optimizer: two queries with the same ``group_by`` share a hash table.
    aggregate:
        The aggregate function; defaults to ``count(*)``.
    epoch_seconds:
        Length of the temporal epoch (the paper's "5 minute interval").
    having_min:
        Optional threshold: only groups whose *count* reaches this value are
        reported by the HFTA.
    name:
        Optional human-readable name used in result reports.
    """

    group_by: AttributeSet
    aggregate: Aggregate = field(default_factory=Aggregate)
    epoch_seconds: float = 60.0
    having_min: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.group_by:
            raise SchemaError("a query must group by at least one attribute")
        if not 0 < self.epoch_seconds < math.inf:
            raise SchemaError("epoch_seconds must be positive and finite")
        if self.having_min is not None and self.having_min < 0:
            raise SchemaError("having_min must be non-negative")

    @property
    def display_name(self) -> str:
        return self.name or f"{self.aggregate.label()} by {self.group_by}"

    def __str__(self) -> str:
        return self.display_name


class QuerySet:
    """An ordered, duplicate-free collection of aggregation queries.

    The optimizer requires all queries to share the same epoch, because the
    LFTA flushes every table at each epoch boundary.

    A query set never changes once built, so it keeps its feeding graph
    (:attr:`graph`) from the first time one is needed: everything that
    plans or measures the same set shares one graph.
    """

    #: The feeding graph, built at first need (:attr:`graph`); never
    #: pickled, so a restored set builds its own.
    _graph: "FeedingGraph | None" = None

    def __init__(self, queries: Iterable[AggregationQuery]):
        self._queries: list[AggregationQuery] = []
        seen: set[AttributeSet] = set()
        for query in queries:
            if query.group_by in seen:
                raise SchemaError(
                    f"duplicate query group-by {query.group_by}: queries must "
                    "differ in their grouping attributes"
                )
            seen.add(query.group_by)
            self._queries.append(query)
        if not self._queries:
            raise SchemaError("a QuerySet needs at least one query")
        epochs = {q.epoch_seconds for q in self._queries}
        if len(epochs) > 1:
            raise SchemaError(
                "all queries in a QuerySet must share the same epoch length; "
                f"got {sorted(epochs)}"
            )

    @classmethod
    def counts(cls, group_bys: Sequence[str | AttributeSet],
               epoch_seconds: float = 60.0) -> "QuerySet":
        """Convenience constructor: ``count(*)`` queries from labels.

        ``QuerySet.counts(["AB", "BC", "BD", "CD"])`` builds the paper's
        Section 6.3.3 query set.
        """
        queries = []
        for gb in group_bys:
            attrs = gb if isinstance(gb, AttributeSet) else AttributeSet.parse(gb)
            queries.append(AggregationQuery(attrs, epoch_seconds=epoch_seconds))
        return cls(queries)

    @property
    def epoch_seconds(self) -> float:
        return self._queries[0].epoch_seconds

    @property
    def group_bys(self) -> list[AttributeSet]:
        """The grouping attribute sets, in query order."""
        return [q.group_by for q in self._queries]

    @property
    def graph(self) -> "FeedingGraph":
        """The :class:`~repro.core.feeding_graph.FeedingGraph` of these
        queries, built once and kept."""
        if self._graph is None:
            from repro.core.feeding_graph import FeedingGraph
            self._graph = FeedingGraph(self)
        return self._graph

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items()
                if key != "_graph"}

    def query_for(self, attrs: AttributeSet) -> AggregationQuery:
        for query in self._queries:
            if query.group_by == attrs:
                return query
        raise KeyError(f"no query groups by {attrs}")

    def all_attributes(self) -> AttributeSet:
        """Union of every query's grouping attributes."""
        combined = self._queries[0].group_by
        for query in self._queries[1:]:
            combined = combined | query.group_by
        return combined

    def __iter__(self):
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, attrs: object) -> bool:
        if isinstance(attrs, AttributeSet):
            return any(q.group_by == attrs for q in self._queries)
        return False

    def __repr__(self) -> str:
        labels = ", ".join(str(q.group_by) for q in self._queries)
        return f"QuerySet([{labels}])"
