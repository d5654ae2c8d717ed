"""Pluggable stream partitioners for the sharded ingestion runtime.

A partitioner assigns each record of a :class:`~repro.gigascope.records.Dataset`
to one of ``n_shards`` shard streams. Because LFTA/HFTA partial aggregates
are exactly mergeable (counts and value sums add, minima/maxima combine —
the same property that makes phantoms lossless), *any* record-to-shard
assignment preserves query answers; partitioners differ only in how they
trade balance against per-shard group locality:

* :class:`HashPartitioner` — salted splitmix64 hash of a grouping-key
  projection. Records of one group land on one shard, so each shard's
  tables see a disjoint slice of the group space and cross-shard duplicate
  groups (extra HFTA merge work) are minimized.
* :class:`RoundRobinPartitioner` — record ``i`` goes to shard
  ``i % n_shards``. Perfectly balanced, oblivious to keys; every shard
  sees (a thinned copy of) every group.
* :class:`KeyRangePartitioner` — contiguous value ranges of one attribute,
  with explicit boundaries or data-derived quantiles. Keeps related keys
  together (e.g. subnets) at the price of skew sensitivity.

Each partitioner preserves arrival order within a shard (a stable scatter
of time-sorted arrays), so shard streams remain valid time-ordered datasets.

The two whole-stream passes — the hash behind :class:`HashPartitioner`
and the scatter behind :func:`split_dataset` — run through the
runtime-compiled partition kernel whenever it loaded; the numpy bodies
below are the fallback (no compiler, ``REPRO_NO_CKERNEL=1``) and the
oracle the kernel is tested against, with identical ids, shards and
error messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.core.attributes import AttributeSet
from repro.errors import ConfigurationError, SchemaError
from repro.gigascope.hashing import combine_columns
from repro.gigascope.records import Dataset
from repro.native import partition as _native

__all__ = [
    "HashPartitioner",
    "RoundRobinPartitioner",
    "KeyRangePartitioner",
    "make_partitioner",
    "split_dataset",
    "derive_range_bounds",
    "shard_balance",
    "check_shard_count",
    "check_shard_ids",
]

#: Salt decorrelating shard placement from LFTA bucket placement; a record's
#: shard must not predict its bucket or per-shard collision rates would be
#: biased relative to the single-table model.
_SHARD_SALT = 0x5A2D_51AB


def check_shard_count(n_shards) -> int:
    """The one shard-count check: an integer (not a bool) >= 1."""
    if (isinstance(n_shards, bool) or not isinstance(n_shards, Integral)
            or n_shards < 1):
        raise ConfigurationError(
            f"shard count must be an integer >= 1, got {n_shards!r}")
    return int(n_shards)


def _by(source: str) -> str:
    return f" from {source}" if source else ""


def _bad_ids(ids: np.ndarray, n_shards: int, first: int,
             source: str) -> ConfigurationError:
    """The out-of-range error, worded once for the kernel and numpy."""
    return ConfigurationError(
        f"shard ids{_by(source)} must lie in [0, {n_shards}), got range "
        f"[{ids.min()}, {ids.max()}] (first bad id at record {first})")


def _check_ids_shape(shard_ids, n_records: int | None,
                     source: str) -> np.ndarray:
    """Integer dtype, one id per record — the checks that cost nothing."""
    ids = np.asarray(shard_ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            f"shard ids{_by(source)} must be integers, got dtype "
            f"{ids.dtype}")
    if ids.ndim != 1 or (n_records is not None
                         and ids.shape != (n_records,)):
        expected = "n" if n_records is None else n_records
        raise ConfigurationError(
            f"shard assignment{_by(source)} has shape {ids.shape}, "
            f"expected ({expected},): one id per record")
    return ids


def check_shard_ids(shard_ids, n_shards: int, n_records: int | None = None,
                    source: str = "") -> np.ndarray:
    """Validate a record-to-shard assignment and return it as an array.

    Integer dtype, shape ``(n_records,)`` (any length when ``n_records``
    is None) and every id in ``[0, n_shards)``; anything else is a
    :class:`~repro.errors.ConfigurationError` naming ``source`` (the
    partitioner type) and the offending range.
    """
    ids = _check_ids_shape(shard_ids, n_records, source)
    if ids.size and (ids.min() < 0 or ids.max() >= n_shards):
        first = int(np.flatnonzero((ids < 0) | (ids >= n_shards))[0])
        raise _bad_ids(ids, n_shards, first, source)
    return ids


@dataclass(frozen=True)
class HashPartitioner:
    """Shard by a salted hash of a grouping-key projection.

    ``key`` selects the attributes hashed (default: every schema
    attribute, i.e. the finest group identity). Hashing a coarser
    projection — e.g. ``AttributeSet.parse("AB")`` — keeps all records of
    each AB-group on one shard, which also co-locates every relation whose
    attributes include the key.
    """

    key: AttributeSet | None = None
    salt: int = _SHARD_SALT

    def shard_ids(self, dataset: Dataset, n_shards: int) -> np.ndarray:
        n_shards = check_shard_count(n_shards)
        attrs = (dataset.schema.all_attributes if self.key is None
                 else dataset.schema.attribute_set(self.key))
        columns = [dataset.columns[a] for a in attrs]
        if _native.kernel_available():
            return _native.hash_shards(columns, self.salt, n_shards)
        hashes = combine_columns(columns, self.salt)
        return (hashes % np.uint64(n_shards)).astype(np.int64)


@dataclass(frozen=True)
class RoundRobinPartitioner:
    """Shard record ``i`` to ``i % n_shards``: balanced, key-oblivious."""

    def shard_ids(self, dataset: Dataset, n_shards: int) -> np.ndarray:
        n_shards = check_shard_count(n_shards)
        return np.arange(len(dataset), dtype=np.int64) % n_shards


@dataclass(frozen=True)
class KeyRangePartitioner:
    """Shard by contiguous ranges of one grouping attribute.

    With explicit ``boundaries`` ``(b_1, ..., b_{k-1})``, shard ``i`` takes
    values in ``[b_i, b_{i+1})`` (half-open, ``b_0 = -inf``); the boundary
    count must then be ``n_shards - 1``. Without boundaries, cuts are
    derived from the cumulative histogram of the column's observed values
    (see :func:`derive_range_bounds`), which balances the shards for the
    observed distribution and keeps every shard non-empty whenever the
    column has at least ``n_shards`` distinct values.
    """

    column: str
    boundaries: tuple[float, ...] | None = None

    def shard_ids(self, dataset: Dataset, n_shards: int) -> np.ndarray:
        n_shards = check_shard_count(n_shards)
        if self.column not in dataset.columns:
            raise SchemaError(
                f"range-partition column {self.column!r} is not a grouping "
                f"attribute of schema {dataset.schema.attributes}")
        values = dataset.columns[self.column]
        if self.boundaries is not None:
            bounds = np.asarray(self.boundaries, dtype=np.float64)
            if bounds.shape != (n_shards - 1,):
                raise ConfigurationError(
                    f"{n_shards} shards need {n_shards - 1} range "
                    f"boundaries, got {bounds.shape[0]}")
            if np.any(np.diff(bounds) <= 0):
                raise ConfigurationError(
                    "range boundaries must be strictly increasing")
        else:
            if len(dataset) == 0:
                return np.zeros(0, dtype=np.int64)
            bounds = derive_range_bounds(values, n_shards)
            if bounds.size == 0:
                return np.zeros(len(dataset), dtype=np.int64)
        return np.searchsorted(bounds, values, side="right").astype(np.int64)


def derive_range_bounds(values: np.ndarray, n_shards: int) -> np.ndarray:
    """Derive strictly increasing range boundaries from the data itself.

    Plain ``np.quantile`` breaks down on skewed or low-cardinality
    columns: interpolated quantiles repeat (collapsing shards to empty)
    or fall strictly between data values (leaving interior shards with
    no records at all). Instead, walk the cumulative histogram of the
    *unique* values and cut at actual data values nearest each ideal
    ``total * i / k`` split. Every boundary is a distinct observed value
    with at least one value below it, so all ``min(n_shards, |uniq|)``
    shards are guaranteed non-empty; only when cardinality is smaller
    than the shard count do trailing shards stay empty.
    """
    n_shards = check_shard_count(n_shards)
    uniq, counts = np.unique(np.asarray(values), return_counts=True)
    k = min(n_shards, uniq.size)
    if k <= 1:
        return np.empty(0, dtype=np.float64)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    bounds = np.empty(k - 1, dtype=np.float64)
    prev = 0
    for i in range(1, k):
        target = total * (i / k)
        cut = int(np.searchsorted(cum, target, side="left")) + 1
        cut = max(cut, prev + 1)
        cut = min(cut, uniq.size - 1 - (k - 1 - i))
        bounds[i - 1] = uniq[cut]
        prev = cut
    return bounds


def shard_balance(shard_ids: np.ndarray, n_shards: int,
                  strategy: str = "") -> dict:
    """Summarize how a record-to-shard assignment actually landed.

    The dict is JSON-ready and rides in the run manifest so skewed or
    collapsed partitions are visible post-hoc instead of silently
    degrading parallelism. Ids outside ``[0, n_shards)`` are a
    :class:`~repro.errors.ConfigurationError`, as in
    :func:`split_dataset`.
    """
    n_shards = check_shard_count(n_shards)
    ids = check_shard_ids(shard_ids, n_shards, source=strategy)
    counts = (np.bincount(ids, minlength=n_shards) if ids.size
              else np.zeros(n_shards, dtype=np.int64))
    largest = int(counts.max()) if n_shards else 0
    mean = ids.size / n_shards if n_shards else 0.0
    return {
        "strategy": strategy,
        "shards": n_shards,
        "records": [int(c) for c in counts],
        "empty_shards": int(np.count_nonzero(counts == 0)),
        "largest_shard": largest,
        "imbalance": float(largest / mean) if mean else 1.0,
    }


_REGISTRY = {
    "hash": HashPartitioner,
    "round-robin": RoundRobinPartitioner,
    "roundrobin": RoundRobinPartitioner,
    "rr": RoundRobinPartitioner,
    "range": KeyRangePartitioner,
}


def make_partitioner(name: str, key: str | AttributeSet | None = None,
                     column: str | None = None):
    """Build a partitioner from its CLI name (``hash``/``round-robin``/``range``)."""
    kind = name.strip().lower()
    if kind not in _REGISTRY:
        raise ConfigurationError(
            f"unknown partition strategy {name!r} "
            f"(choose from hash, round-robin, range)")
    cls = _REGISTRY[kind]
    if cls is HashPartitioner:
        attrs = (AttributeSet.parse(key) if isinstance(key, str) else key)
        return HashPartitioner(attrs)
    if cls is KeyRangePartitioner:
        if column is None:
            raise ConfigurationError(
                "range partitioning needs a column (pass column=)")
        return KeyRangePartitioner(column)
    return RoundRobinPartitioner()


def split_dataset(dataset: Dataset, shard_ids: np.ndarray,
                  n_shards: int) -> list[Dataset]:
    """Materialize the shard streams for a record-to-shard assignment.

    ``shard_ids`` must assign every record an integer id in
    ``[0, n_shards)``. Within each shard, records keep their arrival
    order, so timestamps remain non-decreasing. With the kernel the
    shards are slices of one scattered buffer per column (the bytes the
    per-shard copies would allocate, without the per-shard masks).
    """
    n_shards = check_shard_count(n_shards)
    lanes = [*dataset.columns.values(), dataset.timestamps,
             *dataset.values.values()]
    if _native.kernel_available():
        ids = _check_ids_shape(shard_ids, len(dataset), "")
        buffers, offsets, bad_row = _native.scatter_lanes(ids, n_shards,
                                                          lanes)
        if bad_row >= 0:
            raise _bad_ids(ids, n_shards, bad_row, "")
        cuts = ([buffer[lo:hi] for buffer in buffers]
                for lo, hi in zip(offsets[:-1], offsets[1:]))
    else:
        ids = check_shard_ids(shard_ids, n_shards, len(dataset))
        masks = (ids == shard for shard in range(n_shards))
        cuts = ([lane[keep] for lane in lanes] for keep in masks)
    k = len(dataset.columns)
    return [Dataset(dataset.schema,
                    dict(zip(dataset.columns, cut[:k])), cut[k],
                    dict(zip(dataset.values, cut[k + 1:])))
            for cut in cuts]
