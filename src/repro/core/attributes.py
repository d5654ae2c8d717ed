"""Attribute sets: the identity of relations in the feeding graph.

A *relation* in the paper (a user query or a phantom) is identified solely by
its set of grouping attributes — ``ABC`` is the aggregate grouped by
attributes A, B and C. This module provides :class:`AttributeSet`, a small
immutable value type with set algebra, a canonical display form, and a parser
for the paper's concatenated notation (``"ABC"``) as well as a separator
notation (``"src_ip+dst_ip"``) for multi-character attribute names.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SchemaError

__all__ = ["AttributeSet"]


class AttributeSet:
    """An immutable, hashable set of attribute names.

    Instances are ordered internally by sorted attribute name, which gives a
    canonical label: ``AttributeSet.of("B", "A").label() == "AB"``.

    The class supports the subset operators used throughout the optimizer:
    ``a <= b`` (``a`` is a subset of ``b``), ``a < b`` (strict subset),
    ``a | b`` (union), ``a & b`` (intersection) and ``a - b`` (difference).
    """

    __slots__ = ("_names", "_hash")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for name in names:
            if not name or not isinstance(name, str):
                raise SchemaError(f"invalid attribute name: {name!r}")
        self._names: tuple[str, ...] = tuple(sorted(set(names)))
        self._hash = hash(self._names)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *names: str) -> "AttributeSet":
        """Build a set from individual attribute names."""
        return cls(names)

    @classmethod
    def parse(cls, text: str) -> "AttributeSet":
        """Parse the textual form of an attribute set.

        Two forms are accepted:

        * ``"ABC"`` — concatenated single-character attributes (the paper's
          notation);
        * ``"src_ip+dst_ip"`` — ``+``-separated names, required when any
          attribute name has more than one character.
        """
        text = text.strip()
        if not text:
            raise SchemaError("empty attribute set text")
        if "+" in text:
            names = [part.strip() for part in text.split("+")]
            if any(not part for part in names):
                raise SchemaError(f"malformed attribute set text: {text!r}")
            return cls(names)
        return cls(text)  # iterate characters

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """The attribute names in canonical (sorted) order."""
        return self._names

    def union(self, other: "AttributeSet") -> "AttributeSet":
        return AttributeSet(self._names + other._names)

    def intersection(self, other: "AttributeSet") -> "AttributeSet":
        other_set = set(other._names)
        return AttributeSet(n for n in self._names if n in other_set)

    def difference(self, other: "AttributeSet") -> "AttributeSet":
        other_set = set(other._names)
        return AttributeSet(n for n in self._names if n not in other_set)

    def issubset(self, other: "AttributeSet") -> bool:
        return set(self._names) <= set(other._names)

    def issuperset(self, other: "AttributeSet") -> bool:
        return set(self._names) >= set(other._names)

    def __or__(self, other: "AttributeSet") -> "AttributeSet":
        return self.union(other)

    def __and__(self, other: "AttributeSet") -> "AttributeSet":
        return self.intersection(other)

    def __sub__(self, other: "AttributeSet") -> "AttributeSet":
        return self.difference(other)

    def __le__(self, other: "AttributeSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "AttributeSet") -> bool:
        return self.issubset(other) and self._names != other._names

    def __ge__(self, other: "AttributeSet") -> bool:
        return self.issuperset(other)

    def __gt__(self, other: "AttributeSet") -> bool:
        return self.issuperset(other) and self._names != other._names

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __bool__(self) -> bool:
        return bool(self._names)

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self._names == other._names

    def __hash__(self) -> int:
        return self._hash

    def __setstate__(self, state) -> None:
        # String hashes differ between processes, so the hash pickled
        # with a checkpoint is stale in the process that restores it.
        self._names = state[1]["_names"]
        self._hash = hash(self._names)

    def label(self) -> str:
        """Canonical display form.

        Single-character attribute names are concatenated (``"ABC"``);
        otherwise names are joined with ``+``.
        """
        if all(len(n) == 1 for n in self._names):
            return "".join(self._names)
        return "+".join(self._names)

    def __repr__(self) -> str:
        return f"AttributeSet({self.label()!r})"

    def __str__(self) -> str:
        return self.label()

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        """A deterministic ordering key: by size, then lexicographically."""
        return (len(self._names), self._names)
