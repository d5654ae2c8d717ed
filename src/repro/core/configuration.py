"""Configurations: forests of instantiated relations (paper Section 3.1).

A *configuration* is the set of relations (user queries plus chosen phantoms)
instantiated in the LFTA, together with the feed structure between them. The
paper describes configurations as trees consistent with the feeding graph;
because several relations can be fed directly by the stream (e.g. the paper's
own ``AB(A B) CD(C D)``), the general shape is a *forest* whose virtual root
is the stream. Relations fed directly by the stream are *raw*; relations with
no children are *leaves* and must be user queries. A relation *emits* (ships
its evictions to the HFTA, paying ``c2``) iff it is a query: every leaf, and
any query that also feeds other relations.

One class serves the planner, the cost model and the runtime. Every
relation a configuration may instantiate has an index in a
:class:`Universe`, in ``AttributeSet.sort_key`` order, and an attribute
bitmask (``a`` is a strict subset of ``b`` exactly when ``a != b and
a & b == a``). A :class:`Configuration` is a parent-index array over its
universe (:data:`ABSENT` for a planner's candidates not instantiated)
with children lists, roots, topological order, leaf flags and emit flags;
every accessor, Eq. 7/8 and allocator reads these arrays.

The textual notation follows the paper (Section 6.1): ``"AB(A B)"`` denotes a
phantom ``AB`` feeding queries ``A`` and ``B``; notation nests arbitrarily,
e.g. ``"(ABCD(AB BCD(BC BD CD)))"``.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Mapping

from repro.core.attributes import AttributeSet
from repro.core.statistics import RelationStatistics
from repro.errors import ConfigurationError, NotationError

__all__ = ["RAW", "ABSENT", "attribute_masks", "Universe", "Configuration"]

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
    """The relations one configuration may instantiate, as indices.

    The parent rule needs ``rels`` in ``sort_key`` order with ``masks``;
    the numeric routines walk a configuration's ``order`` and accept any
    indexing. Given statistics, ``g``, ``h`` and ``l`` hold
    ``group_count``, ``entry_units`` and ``flow_length`` for the indices
    in ``members`` (default: all) and 0, 0, 1 for the rest.
    """

    __slots__ = ("rels", "masks", "queries", "index", "emits", "g", "h",
                 "l", "_supersets")

    def __init__(self, rels: list[AttributeSet],
                 queries: Iterable[AttributeSet],
                 stats: RelationStatistics | None = None,
                 masks: list[int] | None = None,
                 members: Iterable[int] | None = None):
        self.rels = rels
        self.masks = masks
        self.queries = frozenset(queries)
        self.index = {rel: i for i, rel in enumerate(rels)}
        #: Per index: whether the relation is a query, so emits.
        self.emits = [rel in self.queries for rel in rels]
        self._supersets: dict[int, list[int]] = {}
        if stats is not None:
            n = len(rels)
            self.g, self.h, self.l = [0.0] * n, [0] * n, [1.0] * n
            for i in range(n) if members is None else members:
                rel = rels[i]
                self.g[i], self.h[i], self.l[i] = (stats.group_count(rel),
                                                   stats.entry_units(rel),
                                                   stats.flow_length(rel))

    @classmethod
    def of(cls, relations: Iterable[AttributeSet],
           queries: Iterable[AttributeSet]) -> "Universe":
        """``relations`` in ``sort_key`` order, with their masks."""
        rels = sorted(set(relations), key=AttributeSet.sort_key)
        return cls(rels, queries, None, attribute_masks(rels))

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

    def minimal_superset(self, p: int, parent: list[int]) -> int:
        """Relation ``p``'s minimal instantiated strict superset under
        the parent array ``parent``, or :data:`RAW` if it has none.

        The lowest-index strict superset has the fewest attributes, so it
        is minimal, and among several incomparable minimal ones it is the
        ``sort_key`` tie-break's pick. This is the one parent rule:
        :meth:`Configuration.nested` and phantom surgery both apply it.
        """
        for j in self.supersets(p):
            if parent[j] != ABSENT:
                return j
        return RAW


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    current = ""
    for ch in text:
        if ch in "()":
            if current:
                tokens.append(current)
                current = ""
            tokens.append(ch)
        elif ch.isspace():
            if current:
                tokens.append(current)
                current = ""
        else:
            current += ch
    if current:
        tokens.append(current)
    return tokens


class _Parser:
    """Recursive-descent parser for the configuration notation."""

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise NotationError("unexpected end of configuration notation")
        self._pos += 1
        return token

    def parse_forest(self) -> list[tuple[AttributeSet, list]]:
        """Parse a whitespace-separated list of nodes until ')' or EOF."""
        nodes: list[tuple[AttributeSet, list]] = []
        while True:
            token = self._peek()
            if token is None or token == ")":
                return nodes
            if token == "(":
                # A bare parenthesized group splices its contents (the paper
                # wraps whole configurations in one extra pair of parens).
                self._next()
                nodes.extend(self.parse_forest())
                if self._next() != ")":
                    raise NotationError("unbalanced parentheses")
                continue
            label = self._next()
            attrs = AttributeSet.parse(label)
            children: list = []
            if self._peek() == "(":
                self._next()
                children = self.parse_forest()
                if not children:
                    raise NotationError(f"empty child list for {label!r}")
                if self._next() != ")":
                    raise NotationError("unbalanced parentheses")
            nodes.append((attrs, children))

    def finish(self) -> None:
        if self._peek() is not None:
            raise NotationError(
                f"trailing tokens in configuration notation: {self._tokens[self._pos:]}"
            )


def _check(parent: dict[AttributeSet, AttributeSet | None],
           queries: frozenset[AttributeSet]) -> None:
    """Raise :class:`ConfigurationError` unless ``parent`` is a forest of
    strict-subset edges holding every query, with only queries as leaves."""
    for rel, par in parent.items():
        if par is not None and par not in parent:
            raise ConfigurationError(
                f"parent {par} of {rel} is not instantiated")
    if not parent:
        raise ConfigurationError("a configuration must not be empty")
    for rel, par in parent.items():
        if par is not None and not rel < par:
            raise ConfigurationError(
                f"{rel} cannot be fed by {par}: not a strict subset")
    missing = queries - set(parent)
    if missing:
        raise ConfigurationError(
            f"queries not instantiated: {sorted(missing, key=AttributeSet.sort_key)}")
    fed = set(parent.values())
    for rel in parent:
        if rel not in fed and rel not in queries:
            raise ConfigurationError(
                f"leaf relation {rel} is not a user query")


def _parent_array(universe: Universe,
                  parent: Mapping[AttributeSet, AttributeSet | None]
                  ) -> list[int]:
    index = universe.index
    parent_of = [ABSENT] * len(universe.rels)
    for rel, par in parent.items():
        parent_of[index[rel]] = RAW if par is None else index[par]
    return parent_of


class Configuration:
    """An immutable forest of instantiated relations.

    Parameters
    ----------
    parent:
        Mapping from each instantiated relation to its feeding parent, or
        ``None`` for raw relations (fed directly by the stream).
    queries:
        The user-query grouping sets. Every query must be instantiated, and
        every leaf of the forest must be a query.

    Notes
    -----
    Use :meth:`from_notation`, :meth:`nested`, :meth:`flat` or the
    surgery methods :meth:`with_phantom` / :meth:`without_phantom` rather
    than building parent maps by hand. The forest is stored as arrays
    over :attr:`universe`: ``parent_of`` (an index, :data:`RAW` or
    :data:`ABSENT`), ascending ``children_of`` and ``roots``, the
    depth-first ``order`` and ``leaf``. Equality and hashing compare
    the feed edges and the queries, never the universe.
    """

    __slots__ = ("universe", "parent_of", "children_of", "roots", "order",
                 "leaf")

    def __init__(self, parent: Mapping[AttributeSet, AttributeSet | None],
                 queries: Iterable[AttributeSet]):
        parent = dict(parent)
        queries = frozenset(queries)
        _check(parent, queries)
        universe = Universe.of(parent, queries)
        self._link(universe, _parent_array(universe, parent))

    def _link(self, universe: Universe, parent_of: list[int],
              children_of: list[list[int]] | None = None,
              roots: list[int] | None = None) -> None:
        if children_of is None:
            children_of, roots = [[] for _ in parent_of], []
            for i, p in enumerate(parent_of):
                if p >= 0:
                    children_of[p].append(i)
                elif p == RAW:
                    roots.append(i)
        order: list[int] = []
        stack = roots[::-1]
        while stack:
            i = stack.pop()
            order.append(i)
            kids = children_of[i]
            if kids:
                stack.extend(kids[::-1])
        self.universe, self.parent_of, self.children_of = \
            universe, parent_of, children_of
        self.roots, self.order = roots, order
        self.leaf = [not kids for kids in children_of]

    @classmethod
    def from_arrays(cls, universe: Universe, parent_of: list[int],
                    children_of: list[list[int]] | None = None,
                    roots: list[int] | None = None) -> "Configuration":
        """The forest with parent array ``parent_of`` over ``universe``
        (children and roots derived unless given, ascending), unchecked:
        callers build strict-subset edges to query leaves."""
        config = cls.__new__(cls)
        config._link(universe, parent_of, children_of, roots)
        return config

    def over(self, universe: Universe) -> "Configuration":
        """The same forest over another universe holding its relations."""
        return Configuration.from_arrays(
            universe, _parent_array(universe, self._parent_map()))

    def topological(self, stats: RelationStatistics) -> "Configuration":
        """This forest over only its own relations, indexed in topological
        order (``order`` is ``0, 1, ...``: parents first), with ``stats``
        attached: the coordinates ES's descent loops over."""
        return self.over(Universe(self.relations, self.queries, stats))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, queries: Iterable[AttributeSet]) -> "Configuration":
        """The no-phantom configuration: every query is raw and leaf."""
        qs = list(queries)
        return cls({q: None for q in qs}, qs)

    @classmethod
    def from_notation(cls, text: str,
                      queries: Iterable[AttributeSet] | None = None
                      ) -> "Configuration":
        """Parse the paper's notation, e.g. ``"(ABCD(AB BCD(BC BD CD)))"``.

        If ``queries`` is omitted, the leaves of the parsed forest are taken
        to be the user queries (the paper's convention: only queries are
        leaves).
        """
        parser = _Parser(_tokenize(text))
        forest = parser.parse_forest()
        parser.finish()
        if not forest:
            raise NotationError(f"no relations in notation {text!r}")
        parent: dict[AttributeSet, AttributeSet | None] = {}

        def visit(node: tuple[AttributeSet, list],
                  par: AttributeSet | None) -> None:
            attrs, children = node
            if attrs in parent:
                raise ConfigurationError(f"relation {attrs} appears twice")
            parent[attrs] = par
            for child in children:
                visit(child, attrs)

        for root in forest:
            visit(root, None)
        if queries is None:
            queries = set(parent) - set(parent.values())
        return cls(parent, queries)

    @classmethod
    def nested(cls, relations: Iterable[AttributeSet],
               queries: Iterable[AttributeSet],
               universe: Universe | None = None) -> "Configuration":
        """Instantiate ``relations``, each under its minimal instantiated
        strict superset (:meth:`Universe.minimal_superset`).

        The forest lives on ``universe`` when one is given (it must hold
        every relation, in ``sort_key`` order with masks, and have these
        ``queries``), else on exactly ``relations``. A phantom nothing
        nests under is a leaf and fails as in :meth:`__init__`.
        """
        relations = set(relations)
        if universe is None:
            universe = Universe.of(relations, queries)
        members = sorted(universe.index[rel] for rel in relations)
        parent_of = [ABSENT] * len(universe.rels)
        for i in members:
            parent_of[i] = RAW
        for i in members:
            parent_of[i] = universe.minimal_superset(i, parent_of)
        rels = universe.rels
        _check({rels[i]: None if parent_of[i] == RAW else rels[parent_of[i]]
                for i in members}, universe.queries)
        return cls.from_arrays(universe, parent_of)

    # Pickled as the parent map, so either layout restores on both.
    def __reduce__(self):
        return (Configuration, (self._parent_map(), self.queries))

    def __setstate__(self, state: dict) -> None:
        """Restore a pickle of the dict-tree layout (``_parent``,
        ``_queries``, ``_children``, ``_order``)."""
        self.__init__(state["_parent"], state["_queries"])

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def with_stats(self, stats: RelationStatistics) -> "Configuration":
        """This configuration over a copy of its universe carrying its
        relations' statistics; the tree is shared, not rebuilt."""
        u = self.universe
        config = Configuration.__new__(Configuration)
        config.universe = Universe(u.rels, u.queries, stats, u.masks,
                                   self.order)
        config.parent_of, config.children_of = \
            self.parent_of, self.children_of
        config.roots, config.order, config.leaf = \
            self.roots, self.order, self.leaf
        return config

    def demand_score(self, i: int) -> float:
        """Relation ``i``'s score ``v = g h / l``, the quantity SL/SR
        combine. Flow lengths only damp the rates of relations fed by the
        (clustered) stream; fed relations see eviction streams, so their
        score uses ``l = 1``."""
        u = self.universe
        v = u.g[i] * u.h[i]
        if self.parent_of[i] == RAW:
            v /= u.l[i]
        return v

    def minimum_space(self) -> float:
        """Units needed to give every relation one bucket."""
        h = self.universe.h
        return float(sum(h[i] for i in self.order))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def _at(self, rel: AttributeSet) -> int:
        i = self.universe.index.get(rel)
        if i is None or self.parent_of[i] == ABSENT:
            raise KeyError(rel)
        return i

    def _parent_map(self) -> dict[AttributeSet, AttributeSet | None]:
        rels, parent_of = self.universe.rels, self.parent_of
        return {rels[i]: None if parent_of[i] == RAW else rels[parent_of[i]]
                for i in self.order}

    @property
    def relations(self) -> list[AttributeSet]:
        """All instantiated relations in topological order (parents first)."""
        rels = self.universe.rels
        return [rels[i] for i in self.order]

    @property
    def queries(self) -> frozenset[AttributeSet]:
        return self.universe.queries

    @property
    def phantoms(self) -> list[AttributeSet]:
        """Instantiated relations that are not user queries."""
        return [r for r in self.relations if r not in self.queries]

    @property
    def raw_relations(self) -> list[AttributeSet]:
        """Relations fed directly by the stream (the forest roots)."""
        rels = self.universe.rels
        return [rels[i] for i in self.roots]

    @property
    def leaves(self) -> list[AttributeSet]:
        """Relations with no children (always user queries)."""
        rels, leaf = self.universe.rels, self.leaf
        return [rels[i] for i in self.order if leaf[i]]

    def parent(self, rel: AttributeSet) -> AttributeSet | None:
        p = self.parent_of[self._at(rel)]
        return None if p == RAW else self.universe.rels[p]

    def children(self, rel: AttributeSet) -> list[AttributeSet]:
        rels = self.universe.rels
        return [rels[k] for k in self.children_of[self._at(rel)]]

    def ancestors(self, rel: AttributeSet) -> list[AttributeSet]:
        """Instantiated ancestors, nearest (parent) first."""
        rels, parent_of = self.universe.rels, self.parent_of
        chain: list[AttributeSet] = []
        p = parent_of[self._at(rel)]
        while p != RAW:
            chain.append(rels[p])
            p = parent_of[p]
        return chain

    def depth(self, rel: AttributeSet) -> int:
        """0 for raw relations, 1 for their children, and so on."""
        return len(self.ancestors(rel))

    def is_raw(self, rel: AttributeSet) -> bool:
        return self.parent_of[self._at(rel)] == RAW

    def is_leaf(self, rel: AttributeSet) -> bool:
        return self.leaf[self._at(rel)]

    def is_emitting(self, rel: AttributeSet) -> bool:
        """Whether ``rel`` ships its evictions to the HFTA: :attr:`emits`
        read by relation."""
        return self.universe.emits[self._at(rel)]

    @property
    def emits(self) -> list[bool]:
        """Per index, beside :attr:`leaf`: whether the relation ships its
        evictions to the HFTA, paying ``c2`` — iff it is a query. A query
        with children emits *and* feeds them."""
        return self.universe.emits

    def __contains__(self, rel: object) -> bool:
        i = self.universe.index.get(rel)
        return i is not None and self.parent_of[i] != ABSENT

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self.universe is other.universe:
            return self.parent_of == other.parent_of
        return (self.queries == other.queries
                and self._parent_map() == other._parent_map())

    def __hash__(self) -> int:
        return hash((frozenset(self._parent_map().items()), self.queries))

    # ------------------------------------------------------------------
    # Surgery
    # ------------------------------------------------------------------
    def attach_point(self, p: int) -> tuple[int, list[int]]:
        """Where phantom ``p`` would attach, and the relations it captures.

        The parent is ``p``'s minimal instantiated strict superset (or
        the stream, :data:`RAW`); the captured relations are that
        parent's children (or the roots) that are strict subsets of ``p``.
        """
        masks = self.universe.masks
        mp = masks[p]
        par = self.universe.minimal_superset(p, self.parent_of)
        siblings = self.children_of[par] if par != RAW else self.roots
        return par, [c for c in siblings if masks[c] & mp == masks[c]]

    def with_phantom_at(self, p: int) -> "Configuration | None":
        """The configuration with universe relation ``p`` added as a
        phantom, or None if ``p`` would capture nothing (a childless
        phantom is not a configuration)."""
        par, captured = self.attach_point(p)
        if not captured:
            return None
        parent_of = self.parent_of[:]
        parent_of[p] = par
        for c in captured:
            parent_of[c] = p
        # The choosers' hot path: update the children in place of
        # deriving them from ``parent_of``.
        siblings = self.children_of[par] if par != RAW else self.roots
        kept = [c for c in siblings if c not in captured]
        insort(kept, p)
        children_of, roots = self.children_of[:], self.roots
        children_of[p] = captured
        if par == RAW:
            roots = kept
        else:
            children_of[par] = kept
        return Configuration.from_arrays(self.universe, parent_of,
                                         children_of, roots)

    def with_phantom(self, phantom: AttributeSet) -> "Configuration":
        """Add a phantom, re-attaching the affected relations.

        The phantom's parent becomes its minimal instantiated strict superset
        (or the stream); relations currently attached to that parent whose
        attributes are strict subsets of the phantom are re-attached to it.
        """
        if phantom in self:
            raise ConfigurationError(f"{phantom} is already instantiated")
        config = self.over(Universe.of([*self.relations, phantom],
                                       self.queries))
        grown = config.with_phantom_at(config.universe.index[phantom])
        if grown is None:
            raise ConfigurationError(
                f"leaf relation {phantom} is not a user query")
        return grown

    def without_phantom(self, phantom: AttributeSet) -> "Configuration":
        """Remove a phantom, re-attaching its children to its parent."""
        if phantom not in self:
            raise ConfigurationError(f"{phantom} is not instantiated")
        if phantom in self.queries:
            raise ConfigurationError(f"{phantom} is a user query; it cannot be removed")
        p = self.universe.index[phantom]
        parent_of = self.parent_of[:]
        for c in self.children_of[p]:
            parent_of[c] = parent_of[p]
        parent_of[p] = ABSENT
        return Configuration.from_arrays(self.universe, parent_of)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def to_notation(self) -> str:
        """Render in the paper's notation (inverse of :meth:`from_notation`)."""
        rels, children_of = self.universe.rels, self.children_of

        def render(i: int) -> str:
            kids = children_of[i]
            if not kids:
                return rels[i].label()
            inner = " ".join(render(k) for k in kids)
            return f"{rels[i].label()}({inner})"

        return " ".join(render(root) for root in self.roots)

    def __repr__(self) -> str:
        return f"Configuration({self.to_notation()!r})"

    def __str__(self) -> str:
        return self.to_notation()
