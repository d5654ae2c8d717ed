"""The relation feeding graph (paper Section 2.6, Figure 4).

Nodes are *relations*: the user queries plus every candidate *phantom*. A
phantom is a finer-granularity aggregate that is not requested by the user
but can *feed* (supply partial aggregates to) coarser relations. Relation
``R`` can feed relation ``S`` exactly when ``S``'s attributes are a strict
subset of ``R``'s; the feed relationship short-circuits, i.e. a node may be
fed directly by any of its ancestors.

The paper observes that a phantom feeding fewer than two relations is never
beneficial, and that all useful phantoms are obtained "by combining two or
more queries". Accordingly, the candidate phantom set here is every distinct
union of two or more query grouping sets that is not itself a query.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.attributes import AttributeSet
from repro.core.configuration import attribute_masks
from repro.core.queries import QuerySet

__all__ = ["FeedingGraph", "enumerate_phantoms"]


def enumerate_phantoms(query_attrs: Iterable[AttributeSet]) -> list[AttributeSet]:
    """All candidate phantoms for a set of query grouping sets.

    A candidate is the union of at least two of the queries, excluding unions
    that coincide with an existing query (those are already instantiated).
    The result is deterministically ordered by (size, name).

    The closure under union runs on integer bitmasks, one bit per attribute
    name of the query set; ``AttributeSet`` objects are built only for the
    phantoms that come out of it.
    """
    queries = list(dict.fromkeys(query_attrs))
    names = sorted({name for query in queries for name in query})
    bit = {name: 1 << i for i, name in enumerate(names)}
    query_masks = {sum(bit[name] for name in query) for query in queries}
    # Folding the queries in one at a time leaves the union of every
    # non-empty subset of them.
    unions: set[int] = set()
    for mask in query_masks:
        unions |= {mask | union for union in unions}
        unions.add(mask)
    phantoms = [AttributeSet(name for name in names if mask & bit[name])
                for mask in unions - query_masks]
    return sorted(phantoms, key=AttributeSet.sort_key)


class FeedingGraph:
    """The DAG of queries and candidate phantoms, ordered by strict subset.

    Parameters
    ----------
    queries:
        The user queries (always instantiated at the LFTA). A query set
        keeps the graph it needs, :attr:`QuerySet.graph
        <repro.core.queries.QuerySet.graph>`; build one here only for a
        set that is used once.

    Attributes
    ----------
    queries:
        Grouping sets of the user queries.
    phantoms:
        Candidate phantom grouping sets (unions of >= 2 queries).
    masks:
        One attribute bitmask per node, in :attr:`nodes` order: node ``a``
        feeds node ``b`` exactly when ``a != b and a & b == b``. The feed
        relation is read off the masks, never tabulated.
    """

    def __init__(self, queries: QuerySet):
        self.queries: list[AttributeSet] = list(queries.group_bys)
        self.phantoms: list[AttributeSet] = enumerate_phantoms(self.queries)
        self._queries = frozenset(self.queries)
        self._nodes = sorted(self._queries.union(self.phantoms),
                             key=AttributeSet.sort_key)
        self.masks: list[int] = attribute_masks(self._nodes)

    @property
    def nodes(self) -> list[AttributeSet]:
        """All relations (queries and phantoms), ordered by (size, name)."""
        return list(self._nodes)

    def is_query(self, attrs: AttributeSet) -> bool:
        return attrs in self._queries

    def __contains__(self, attrs: object) -> bool:
        return attrs in self._queries or attrs in self.phantoms

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        q = ", ".join(str(a) for a in self.queries)
        p = ", ".join(str(a) for a in self.phantoms)
        return f"FeedingGraph(queries=[{q}], phantoms=[{p}])"
