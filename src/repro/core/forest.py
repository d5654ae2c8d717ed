"""The planner's index form of a configuration.

Every relation the planner may instantiate gets an index, in
``AttributeSet.sort_key`` order, and an attribute bitmask, so ``a`` is a
strict subset of ``b`` exactly when ``a != b and a & b == a``. Group
counts, entry sizes and flow lengths are read from the statistics once,
into lists under the same indices (:class:`Universe`).

A configuration is then a :class:`Forest`: a parent-index array plus
children lists kept in index order. Because index order is ``sort_key``
order, the depth-first topological order and every tie-break are those of
:class:`~repro.core.configuration.Configuration`, so Eqs. 7/8 and the
allocators sum the same floats in the same order whichever form they are
given. The planner works on forests and builds a ``Configuration`` only
for what it returns.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable

from repro.core.attributes import AttributeSet
from repro.core.statistics import RelationStatistics

__all__ = ["RAW", "ABSENT", "attribute_masks", "Universe", "Forest"]

#: Parent slot of a relation fed directly by the stream.
RAW = -1
#: Parent slot of a relation that is not instantiated.
ABSENT = -2


def attribute_masks(relations: list[AttributeSet]) -> list[int]:
    """One bitmask per relation, one bit per attribute name."""
    bit: dict[str, int] = {}
    masks = []
    for rel in relations:
        mask = 0
        for name in rel:
            if name not in bit:
                bit[name] = 1 << len(bit)
            mask |= bit[name]
        masks.append(mask)
    return masks


class Universe:
    """The relations one plan may instantiate, as indices.

    ``rels`` must be in ``sort_key`` order with ``masks`` beside them for
    :meth:`Forest.nested` and :meth:`Forest.with_phantom`; the numeric
    routines only walk a forest's ``order`` and accept any indexing.
    ``g``, ``h`` and ``l`` hold ``group_count``, ``entry_units`` and
    ``flow_length`` per index when statistics are given.
    """

    __slots__ = ("rels", "masks", "queries", "g", "h", "l", "_supersets")

    def __init__(self, rels: list[AttributeSet],
                 queries: Iterable[AttributeSet],
                 stats: RelationStatistics | None = None,
                 masks: list[int] | None = None):
        self.rels = rels
        self.masks = masks
        self.queries = frozenset(queries)
        self._supersets: dict[int, list[int]] = {}
        if stats is not None:
            self.g = [stats.group_count(rel) for rel in rels]
            self.h = [stats.entry_units(rel) for rel in rels]
            self.l = [stats.flow_length(rel) for rel in rels]

    def supersets(self, p: int) -> list[int]:
        """The strict supersets of relation ``p``, ascending (memoised:
        a plan asks about each candidate once per round)."""
        sups = self._supersets.get(p)
        if sups is None:
            masks = self.masks
            mp = masks[p]
            sups = self._supersets[p] = [
                j for j in range(p + 1, len(masks)) if masks[j] & mp == mp]
        return sups

    @classmethod
    def of(cls, relations: Iterable[AttributeSet],
           queries: Iterable[AttributeSet],
           stats: RelationStatistics | None = None) -> "Universe":
        """``relations`` in ``sort_key`` order, with their masks."""
        rels = sorted(set(relations), key=AttributeSet.sort_key)
        return cls(rels, queries, stats, attribute_masks(rels))


class Forest:
    """A configuration over a :class:`Universe`: parent indices and children.

    ``parent[i]`` is the feeding relation's index, :data:`RAW` or
    :data:`ABSENT`; ``children[i]`` and ``roots`` are ascending; ``order``
    is the topological order (roots and children ascending, depth first)
    and ``leaf[i]`` says whether ``i`` has no children.
    """

    __slots__ = ("universe", "parent", "children", "roots", "order", "leaf")

    def __init__(self, universe: Universe, parent: list[int],
                 children: list[list[int]], roots: list[int]):
        self.universe = universe
        self.parent = parent
        self.children = children
        self.roots = roots
        order: list[int] = []
        stack = roots[::-1]
        while stack:
            i = stack.pop()
            order.append(i)
            kids = children[i]
            if kids:
                stack.extend(kids[::-1])
        self.order = order
        self.leaf = [not kids for kids in children]

    def demand_score(self, i: int) -> float:
        """Relation ``i``'s score ``v = g h / l``, the quantity SL/SR
        combine. Flow lengths only damp the rates of relations fed by the
        (clustered) stream; fed relations see eviction streams, so their
        score uses ``l = 1``."""
        u = self.universe
        v = u.g[i] * u.h[i]
        if self.parent[i] == RAW:
            v /= u.l[i]
        return v

    def minimum_space(self) -> float:
        """Units needed to give every relation one bucket."""
        h = self.universe.h
        return float(sum(h[i] for i in self.order))

    @classmethod
    def nested(cls, universe: Universe, members: Iterable[int]) -> "Forest":
        """Each member under its minimal instantiated strict superset.

        The lowest-index strict superset has the fewest attributes, so it
        is minimal, and among the minimal ones it is the ``sort_key``
        tie-break's pick: ``Configuration.from_relations``'s rule.
        """
        members = sorted(members)
        masks = universe.masks
        n = len(universe.rels)
        parent = [ABSENT] * n
        children: list[list[int]] = [[] for _ in range(n)]
        roots: list[int] = []
        for k, i in enumerate(members):
            mi = masks[i]
            parent[i] = RAW
            for j in members[k + 1:]:
                if masks[j] & mi == mi:
                    parent[i] = j
                    break
            (children[parent[i]] if parent[i] != RAW else roots).append(i)
        return cls(universe, parent, children, roots)

    def attach_point(self, p: int) -> tuple[int, list[int]]:
        """Where phantom ``p`` would attach, and the relations it captures.

        The parent is the lowest-index instantiated strict superset (or
        the stream, :data:`RAW`); the captured relations are that
        parent's children (or the roots) that are strict subsets of ``p``.
        """
        masks = self.universe.masks
        mp = masks[p]
        parent = self.parent
        par = RAW
        for j in self.universe.supersets(p):
            if parent[j] != ABSENT:
                par = j
                break
        siblings = self.children[par] if par != RAW else self.roots
        return par, [c for c in siblings if masks[c] & mp == masks[c]]

    def with_phantom(self, p: int) -> "Forest | None":
        """The forest with phantom ``p`` added, or None if ``p`` would
        capture nothing (a childless phantom is not a configuration)."""
        par, captured = self.attach_point(p)
        if not captured:
            return None
        siblings = self.children[par] if par != RAW else self.roots
        kept = [c for c in siblings if c not in captured]
        insort(kept, p)
        parent = self.parent[:]
        parent[p] = par
        for c in captured:
            parent[c] = p
        children = self.children[:]
        children[p] = captured
        roots = self.roots
        if par == RAW:
            roots = kept
        else:
            children[par] = kept
        return Forest(self.universe, parent, children, roots)
