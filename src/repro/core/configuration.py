"""Configurations: forests of instantiated relations (paper Section 3.1).

A *configuration* is the set of relations (user queries plus chosen phantoms)
instantiated in the LFTA, together with the feed structure between them. The
paper describes configurations as trees consistent with the feeding graph;
because several relations can be fed directly by the stream (e.g. the paper's
own ``AB(A B) CD(C D)``), the general shape is a *forest* whose virtual root
is the stream. Relations fed directly by the stream are *raw*; relations with
no children are *leaves* and must be user queries.

The textual notation follows the paper (Section 6.1): ``"AB(A B)"`` denotes a
phantom ``AB`` feeding queries ``A`` and ``B``; notation nests arbitrarily,
e.g. ``"(ABCD(AB BCD(BC BD CD)))"``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.attributes import AttributeSet
from repro.core.forest import ABSENT, RAW, Forest, Universe
from repro.core.statistics import RelationStatistics
from repro.errors import ConfigurationError, NotationError

__all__ = ["Configuration"]


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
    Use :meth:`from_notation`, :meth:`from_relations`, :meth:`flat` or the
    surgery methods :meth:`with_phantom` / :meth:`without_phantom` rather
    than building parent maps by hand.
    """

    def __init__(self, parent: Mapping[AttributeSet, AttributeSet | None],
                 queries: Iterable[AttributeSet]):
        self._parent: dict[AttributeSet, AttributeSet | None] = dict(parent)
        self._queries: frozenset[AttributeSet] = frozenset(queries)
        self._children: dict[AttributeSet, list[AttributeSet]] = {
            rel: [] for rel in self._parent
        }
        for rel, par in self._parent.items():
            if par is not None:
                if par not in self._parent:
                    raise ConfigurationError(
                        f"parent {par} of {rel} is not instantiated")
                self._children[par].append(rel)
        for lst in self._children.values():
            lst.sort(key=AttributeSet.sort_key)
        self._validate()
        self._order = self._topological_order()

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
            queries = [rel for rel in parent
                       if not any(p == rel for p in parent.values())]
        return cls(parent, queries)

    @classmethod
    def from_relations(cls, relations: Iterable[AttributeSet],
                       queries: Iterable[AttributeSet],
                       tie_break: Callable[[AttributeSet], object] | None = None
                       ) -> "Configuration":
        """Derive the forest for a set of instantiated relations.

        Each relation's parent is its *minimal* instantiated strict superset.
        When several incomparable minimal supersets exist, ``tie_break``
        chooses among them (smallest key wins); the default prefers the
        smallest attribute set, then lexicographic order, which favours the
        parent with the fewest groups in typical data.
        """
        rels = sorted(set(relations), key=AttributeSet.sort_key)
        if tie_break is None:
            tie_break = AttributeSet.sort_key
        parent: dict[AttributeSet, AttributeSet | None] = {}
        for rel in rels:
            supersets = [other for other in rels if rel < other]
            minimal = [s for s in supersets
                       if not any(t < s for t in supersets)]
            if not minimal:
                parent[rel] = None
            else:
                parent[rel] = min(minimal, key=tie_break)
        return cls(parent, queries)

    @classmethod
    def from_forest(cls, forest: Forest) -> "Configuration":
        """The configuration an index-form forest describes.

        A forest built from a configuration, by :meth:`Forest.nested` over
        the queries or by :meth:`Forest.with_phantom` already satisfies
        every rule :meth:`__init__` checks (edges are strict subsets,
        queries are instantiated, leaves are queries) and carries the
        children and topological order, so they are taken as they are.
        """
        rels, parent = forest.universe.rels, forest.parent
        config = cls.__new__(cls)
        config._parent = {rels[i]: None if parent[i] == RAW
                          else rels[parent[i]] for i in forest.order}
        config._queries = forest.universe.queries
        config._children = {rels[i]: [rels[k] for k in forest.children[i]]
                            for i in forest.order}
        config._order = [rels[i] for i in forest.order]
        return config

    def forest(self, stats: RelationStatistics | None = None) -> Forest:
        """This configuration in index form, indexed in topological order
        (so the forest's ``order`` is ``0, 1, ...``); with ``stats`` its
        universe carries every relation's ``g``, ``h`` and ``l``."""
        return self._forest_in(Universe(self._order, self._queries, stats))

    def _forest_in(self, universe: Universe) -> Forest:
        rels = universe.rels
        index = {rel: i for i, rel in enumerate(rels)}
        parent = [ABSENT] * len(rels)
        children: list[list[int]] = [[] for _ in rels]
        roots: list[int] = []
        for i, rel in enumerate(rels):
            if rel not in self._parent:
                continue
            par = self._parent[rel]
            if par is None:
                parent[i] = RAW
                roots.append(i)
            else:
                parent[i] = index[par]
                children[index[par]].append(i)
        return Forest(universe, parent, children, roots)

    # ------------------------------------------------------------------
    # Validation & structure
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._parent:
            raise ConfigurationError("a configuration must not be empty")
        for rel, par in self._parent.items():
            if par is not None and not rel < par:
                raise ConfigurationError(
                    f"{rel} cannot be fed by {par}: not a strict subset")
        missing = self._queries - set(self._parent)
        if missing:
            raise ConfigurationError(
                f"queries not instantiated: {sorted(missing, key=AttributeSet.sort_key)}")
        for rel in self._parent:
            if not self._children[rel] and rel not in self._queries:
                raise ConfigurationError(
                    f"leaf relation {rel} is not a user query")

    def _topological_order(self) -> list[AttributeSet]:
        order: list[AttributeSet] = []
        roots = sorted((r for r, p in self._parent.items() if p is None),
                       key=AttributeSet.sort_key)
        stack = list(reversed(roots))
        while stack:
            rel = stack.pop()
            order.append(rel)
            stack.extend(reversed(self._children[rel]))
        if len(order) != len(self._parent):
            raise ConfigurationError("configuration contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def relations(self) -> list[AttributeSet]:
        """All instantiated relations in topological order (parents first)."""
        return list(self._order)

    @property
    def queries(self) -> frozenset[AttributeSet]:
        return self._queries

    @property
    def phantoms(self) -> list[AttributeSet]:
        """Instantiated relations that are not user queries."""
        return [r for r in self._order if r not in self._queries]

    @property
    def raw_relations(self) -> list[AttributeSet]:
        """Relations fed directly by the stream (the forest roots)."""
        return [r for r in self._order if self._parent[r] is None]

    @property
    def leaves(self) -> list[AttributeSet]:
        """Relations with no children (always user queries)."""
        return [r for r in self._order if not self._children[r]]

    def parent(self, rel: AttributeSet) -> AttributeSet | None:
        return self._parent[rel]

    def children(self, rel: AttributeSet) -> list[AttributeSet]:
        return list(self._children[rel])

    def ancestors(self, rel: AttributeSet) -> list[AttributeSet]:
        """Instantiated ancestors, nearest (parent) first."""
        chain: list[AttributeSet] = []
        current = self._parent[rel]
        while current is not None:
            chain.append(current)
            current = self._parent[current]
        return chain

    def depth(self, rel: AttributeSet) -> int:
        """0 for raw relations, 1 for their children, and so on."""
        return len(self.ancestors(rel))

    def is_raw(self, rel: AttributeSet) -> bool:
        return self._parent[rel] is None

    def is_leaf(self, rel: AttributeSet) -> bool:
        return not self._children[rel]

    def __contains__(self, rel: object) -> bool:
        return rel in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._parent == other._parent and self._queries == other._queries

    def __hash__(self) -> int:
        return hash((frozenset(self._parent.items()), self._queries))

    # ------------------------------------------------------------------
    # Surgery
    # ------------------------------------------------------------------
    def with_phantom(self, phantom: AttributeSet) -> "Configuration":
        """Add a phantom, re-attaching the affected relations.

        The phantom's parent becomes its minimal instantiated strict superset
        (or the stream); relations currently attached to that parent whose
        attributes are strict subsets of the phantom are re-attached to it.
        """
        if phantom in self._parent:
            raise ConfigurationError(f"{phantom} is already instantiated")
        universe = Universe.of([*self._parent, phantom], self._queries)
        rels = universe.rels
        par, captured = self._forest_in(universe).attach_point(
            rels.index(phantom))
        parent = dict(self._parent)
        parent[phantom] = None if par == RAW else rels[par]
        for c in captured:
            parent[rels[c]] = phantom
        return Configuration(parent, self._queries)

    def without_phantom(self, phantom: AttributeSet) -> "Configuration":
        """Remove a phantom, re-attaching its children to its parent."""
        if phantom not in self._parent:
            raise ConfigurationError(f"{phantom} is not instantiated")
        if phantom in self._queries:
            raise ConfigurationError(f"{phantom} is a user query; it cannot be removed")
        grand = self._parent[phantom]
        parent = {rel: par for rel, par in self._parent.items() if rel != phantom}
        for rel in self._children[phantom]:
            parent[rel] = grand
        return Configuration(parent, self._queries)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def to_notation(self) -> str:
        """Render in the paper's notation (inverse of :meth:`from_notation`)."""

        def render(rel: AttributeSet) -> str:
            kids = self._children[rel]
            if not kids:
                return rel.label()
            inner = " ".join(render(k) for k in kids)
            return f"{rel.label()}({inner})"

        return " ".join(render(root) for root in self.raw_relations)

    def __repr__(self) -> str:
        return f"Configuration({self.to_notation()!r})"

    def __str__(self) -> str:
        return self.to_notation()
