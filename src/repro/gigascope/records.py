"""Stream schemas and column-oriented record batches.

The substrate is column-oriented: a :class:`Dataset` holds one integer numpy
array per grouping attribute (e.g. source IP, destination port), an optional
float array per value column (e.g. packet length, for ``sum``/``avg``
aggregates), and a finite, non-decreasing timestamp array used to cut the
stream into epochs. Constructing a :class:`Dataset` is the one check of a
record batch: every runtime builds one from what it is handed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from repro.core.attributes import AttributeSet
from repro.errors import SchemaError

__all__ = ["StreamSchema", "Dataset"]

#: Epoch ids are int64: ``floor(t / epoch_seconds)`` must lie in
#: ``[-2**63, 2**63)``.
_EPOCH_ID_MIN = -2.0 ** 63
_EPOCH_ID_END = 2.0 ** 63


@dataclass(frozen=True)
class StreamSchema:
    """Names of the grouping attributes and value columns of a stream.

    The paper's running example is ``("A", "B", "C", "D")`` — source IP,
    source port, destination IP, destination port of TCP headers.
    """

    attributes: tuple[str, ...]
    value_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = self.attributes + self.value_columns
        if not self.attributes:
            raise SchemaError("a schema needs at least one attribute")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")

    def attribute_set(self, text: str | AttributeSet) -> AttributeSet:
        """Parse and validate an attribute set against this schema."""
        attrs = (text if isinstance(text, AttributeSet)
                 else AttributeSet.parse(text))
        unknown = [a for a in attrs if a not in self.attributes]
        if unknown:
            raise SchemaError(
                f"attributes {unknown} not in schema {self.attributes}")
        return attrs

    @property
    def all_attributes(self) -> AttributeSet:
        return AttributeSet(self.attributes)


_NAN_BITS = np.float64(np.nan).view(np.uint64)


def _canonical_nans(values: np.ndarray) -> np.ndarray:
    """``values`` with every NaN written as ``np.nan``'s bits: the array
    itself when they all are, else a copy."""
    nan = np.isnan(values)
    if not nan.any():
        return values
    other = nan & (values.view(np.uint64) != _NAN_BITS)
    if not other.any():
        return values
    values = values.copy()
    values[other] = np.nan
    return values


@dataclass
class Dataset:
    """A finite stream prefix: columns + timestamps, in arrival order.

    Construction refuses, with :class:`~repro.errors.SchemaError`, a
    missing or non-integer attribute column, a value column the schema
    does not declare, any column whose length differs from the
    timestamps', and timestamps that are not finite and non-decreasing.
    A value column's NaNs enter as ``np.nan``'s bits (copied only when
    one is not), so which NaN a minimum or maximum keeps never shows.
    """

    schema: StreamSchema
    columns: Mapping[str, np.ndarray]
    timestamps: np.ndarray
    values: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1:
            raise SchemaError("timestamps must be one-dimensional")
        n = self.timestamps.shape[0]
        cols = {}
        for name in self.schema.attributes:
            if name not in self.columns:
                raise SchemaError(f"dataset missing column {name!r}")
            arr = np.asarray(self.columns[name])
            if not np.issubdtype(arr.dtype, np.integer):
                raise SchemaError(f"attribute column {name!r} must be integer")
            if arr.shape != (n,):
                raise SchemaError(
                    f"column {name!r} length {arr.shape} != {n} timestamps")
            cols[name] = arr.astype(np.int64, copy=False)
        self.columns = cols
        vals = {}
        for name, raw in self.values.items():
            if name not in self.schema.value_columns:
                raise SchemaError(
                    f"value column {name!r} not declared in schema")
            arr = np.asarray(raw, dtype=np.float64)
            if arr.shape != (n,):
                raise SchemaError(f"value column {name!r} has wrong length")
            vals[name] = _canonical_nans(arr)
        self.values = vals
        # Finite ends and non-negative steps: a NaN anywhere fails a step.
        t = self.timestamps
        if n and not (np.isfinite(t[0]) and np.isfinite(t[-1])
                      and (np.diff(t) >= 0).all()):
            raise SchemaError("timestamps must be finite and non-decreasing")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def duration(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def head(self, n: int) -> "Dataset":
        """The first ``n`` records as a new dataset (views, no copies)."""
        return Dataset(
            self.schema,
            {k: v[:n] for k, v in self.columns.items()},
            self.timestamps[:n],
            {k: v[:n] for k, v in self.values.items()},
        )

    def epoch_slices(self, epoch_seconds: float
                     ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(epoch_id, start, end)`` record ranges per epoch.

        Epochs are aligned to absolute time, the paper's ``time/60``
        convention: a record's epoch is ``floor(t / epoch_seconds)``
        with ``t / epoch_seconds`` rounded as float64 division rounds
        it, and empty epochs are skipped. The cut is exact: every record
        lands in the epoch that expression gives it, also where the
        quotient rounds across an edge ``k * epoch_seconds``.

        Cost: O(log n) per non-empty epoch, not O(n). Timestamps are
        sorted and the epoch is monotone in them, so each epoch's end is
        a binary search for the next edge, fixed up by whole runs of
        equal timestamps where the quotient rounds the other way; the
        search jumps over any number of empty epochs. A non-finite or
        non-positive length, or an epoch id outside int64, is refused
        with :class:`~repro.errors.SchemaError`.
        """
        e = float(epoch_seconds)
        if not 0 < e < math.inf:
            raise SchemaError("epoch_seconds must be positive and finite")
        n = len(self)
        if n == 0:
            return
        t = self.timestamps
        if not (_EPOCH_ID_MIN <= float(t[0]) / e
                and float(t[-1]) / e < _EPOCH_ID_END):
            raise SchemaError("timestamps / epoch_seconds exceed the int64 "
                              "range of epoch ids")
        start = 0
        while start < n:
            epoch = math.floor(float(t[start]) / e)
            end = max(int(np.searchsorted(t, (epoch + 1) * e)), start + 1)
            # The quotient, not the edge, decides: step over whole runs
            # of equal timestamps that round to the other side.
            while end < n and math.floor(float(t[end]) / e) <= epoch:
                end = int(np.searchsorted(t, t[end], side="right"))
            while math.floor(float(t[end - 1]) / e) > epoch:
                end = int(np.searchsorted(t, t[end - 1], side="left"))
            yield epoch, start, end
            start = end

    def group_count(self, attrs: AttributeSet) -> int:
        """Exact number of distinct groups at this projection."""
        attrs = self.schema.attribute_set(attrs)
        from repro.gigascope.hashing import pack_tuples  # avoid cycle at import
        codes = pack_tuples([self.columns[a] for a in attrs])
        return int(np.unique(codes).size)
