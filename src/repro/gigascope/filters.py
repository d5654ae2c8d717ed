"""Filters and transforms — the F and T of Gigascope's "FTA".

The paper focuses on the A (aggregation), but its LFTAs also perform
"simple operations such as selection, projection" (Section 1). This module
supplies those:

* **Predicates** — vectorized row filters (:class:`Comparison` plus the
  boolean combinators :class:`And` / :class:`Or` / :class:`Not`), applied
  to a stream *before* aggregation. In the MA model all queries share one
  stream, so a predicate belongs to the query set, not to one query
  (per-query predicates would defeat phantom sharing);
* **Transforms** — derived grouping attributes computed per record:
  :class:`BitMask` (e.g. aggregate source IPs by /24 subnet) and
  :class:`Bucketize` (fixed-width binning, the generalization of the
  paper's ``time/60``).

Both integrate with the runtimes via :func:`filter_dataset` and
:func:`with_derived_attribute`, and predicates parse from the SQL
front-end's WHERE clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from repro.errors import SchemaError
from repro.gigascope.records import Dataset, StreamSchema

__all__ = [
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Transform",
    "BitMask",
    "Bucketize",
    "filter_dataset",
    "with_derived_attribute",
]

_OPS = {
    "=": np.equal,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@runtime_checkable
class Predicate(Protocol):
    """A vectorized row filter over a dataset's columns."""

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Boolean keep-mask, aligned with the columns."""
        ...

    def referenced_columns(self) -> frozenset[str]:
        """Column names the predicate reads (for schema validation)."""
        ...


@dataclass(frozen=True)
class Comparison:
    """``column <op> value`` with op in = == != < <= > >=."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise SchemaError(f"unknown comparison operator {self.op!r}")

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        if self.column not in columns:
            raise SchemaError(f"predicate references unknown column "
                              f"{self.column!r}")
        return _OPS[self.op](columns[self.column], self.value)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset([self.column])

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value:g}"


@dataclass(frozen=True)
class And:
    """Conjunction of predicates (vacuously true when empty)."""

    predicates: tuple[Predicate, ...]

    def __init__(self, *predicates: Predicate):
        object.__setattr__(self, "predicates", tuple(predicates))

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(columns.values()))) if columns else 0
        out = np.ones(n, dtype=bool)
        for predicate in self.predicates:
            out &= predicate.mask(columns)
        return out

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(
            *(p.referenced_columns() for p in self.predicates)) \
            if self.predicates else frozenset()

    def __str__(self) -> str:
        return " and ".join(f"({p})" for p in self.predicates) or "true"


@dataclass(frozen=True)
class Or:
    """Disjunction of predicates (vacuously false when empty)."""

    predicates: tuple[Predicate, ...]

    def __init__(self, *predicates: Predicate):
        object.__setattr__(self, "predicates", tuple(predicates))

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(columns.values()))) if columns else 0
        out = np.zeros(n, dtype=bool)
        for predicate in self.predicates:
            out |= predicate.mask(columns)
        return out

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(
            *(p.referenced_columns() for p in self.predicates)) \
            if self.predicates else frozenset()

    def __str__(self) -> str:
        return " or ".join(f"({p})" for p in self.predicates) or "false"


@dataclass(frozen=True)
class Not:
    """Negation of a predicate."""

    predicate: Predicate

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return ~self.predicate.mask(columns)

    def referenced_columns(self) -> frozenset[str]:
        return self.predicate.referenced_columns()

    def __str__(self) -> str:
        return f"not ({self.predicate})"


def filter_dataset(dataset: Dataset, predicate: Predicate) -> Dataset:
    """The selected sub-stream (timestamps and values kept aligned)."""
    all_columns: dict[str, np.ndarray] = dict(dataset.columns)
    all_columns.update(dataset.values)
    unknown = predicate.referenced_columns() - set(all_columns)
    if unknown:
        raise SchemaError(
            f"predicate references columns {sorted(unknown)} not in the "
            "dataset")
    keep = predicate.mask(all_columns)
    return Dataset(
        dataset.schema,
        {k: v[keep] for k, v in dataset.columns.items()},
        dataset.timestamps[keep],
        {k: v[keep] for k, v in dataset.values.items()},
    )


# ----------------------------------------------------------------------
# Transforms: derived grouping attributes
# ----------------------------------------------------------------------
@runtime_checkable
class Transform(Protocol):
    """Computes a derived integer attribute from existing columns."""

    def compute(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        ...

    def referenced_columns(self) -> frozenset[str]:
        ...


@dataclass(frozen=True)
class BitMask:
    """Keep the top ``keep_bits`` of a ``width``-bit value.

    ``BitMask("src_ip", keep_bits=24)`` groups IPv4 addresses by /24
    subnet — the classic Gigascope transform.
    """

    column: str
    keep_bits: int
    width: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.keep_bits <= self.width:
            raise SchemaError("keep_bits must be in (0, width]")

    def compute(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        shift = self.width - self.keep_bits
        mask = ~np.int64((1 << shift) - 1)
        return (columns[self.column].astype(np.int64)) & mask

    def referenced_columns(self) -> frozenset[str]:
        return frozenset([self.column])


@dataclass(frozen=True)
class Bucketize:
    """Fixed-width binning: ``value // width`` (cf. the paper's time/60)."""

    column: str
    width: float

    def __post_init__(self) -> None:
        if not 0 < self.width < math.inf:
            raise SchemaError("bucket width must be positive and finite")

    def compute(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.floor(
            columns[self.column] / self.width).astype(np.int64)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset([self.column])


def with_derived_attribute(dataset: Dataset, name: str,
                           transform: Transform) -> Dataset:
    """A new dataset whose schema gains a computed grouping attribute.

    Queries can then group by the derived attribute like any other (e.g.
    per-subnet aggregation); the optimizer and engines are oblivious to
    how the column was produced.
    """
    if name in dataset.schema.attributes or \
            name in dataset.schema.value_columns:
        raise SchemaError(f"column {name!r} already exists")
    all_columns: dict[str, np.ndarray] = dict(dataset.columns)
    all_columns.update(dataset.values)
    unknown = transform.referenced_columns() - set(all_columns)
    if unknown:
        raise SchemaError(
            f"transform references columns {sorted(unknown)} not in the "
            "dataset")
    derived = np.asarray(transform.compute(all_columns))
    if not np.issubdtype(derived.dtype, np.integer):
        raise SchemaError("derived grouping attributes must be integer")
    schema = StreamSchema(dataset.schema.attributes + (name,),
                          dataset.schema.value_columns)
    columns = dict(dataset.columns)
    columns[name] = derived
    return Dataset(schema, columns, dataset.timestamps,
                   dict(dataset.values))
