"""Record-to-shard assignment for the sharded ingestion runtime.

A partitioner is any object with ``shard_ids(dataset, n_shards)``
returning one integer shard id in ``[0, n_shards)`` per record of a
:class:`~repro.gigascope.records.Dataset`. Because LFTA/HFTA partial
aggregates are exactly mergeable (counts and value sums add,
minima/maxima combine — the same property that makes phantoms lossless),
*any* assignment preserves query answers; :func:`check_shard_ids`
validates one, and ``simulate(..., shards=ids)`` walks every shard in
its own slice of each table, in one pass over the stream, so a shard
is never copied.

:class:`HashPartitioner` is the one built-in partitioner: a salted
splitmix64 hash of a grouping-key projection. Records of one group land
on one shard, so each shard's tables see a disjoint slice of the group
space and keep the single-system groups-per-bucket ratio the cost model
prices.

The hash behind :class:`HashPartitioner` is the native library's
(:func:`repro.native.partition.hash_shards`): the ids are
``combine_columns(key columns, salt) % n_shards``, the chain of
:mod:`repro.gigascope.hashing`, which the tests hold it to. It runs on
every usable core, one contiguous range of rows each, and takes the
remainder without a divide. Every partitioner's ids, the built-in's and
a caller's alike, then go through one check: converted once to int64,
and checked and counted per shard in one pass
(:func:`repro.native.partition.shard_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.core.attributes import AttributeSet
from repro.errors import ConfigurationError
from repro.gigascope.records import Dataset
from repro.native import partition as _native

__all__ = [
    "HashPartitioner",
    "balance_summary",
    "check_shard_count",
    "check_shard_ids",
]

#: Salt decorrelating shard placement from LFTA bucket placement; a record's
#: shard must not predict its bucket or per-shard collision rates would be
#: biased relative to the single-table model.
_SHARD_SALT = 0x5A2D_51AB

#: The most shards :func:`check_shard_ids` checks ids against: the walk
#: takes ids in ``[0, 2**31)`` (``simulate(..., shards=ids)``), and the
#: check counts every shard's records, one int64 each.
_MAX_SHARDS = 2**31


def check_shard_count(n_shards) -> int:
    """The one shard-count check: an integer (not a bool) >= 1."""
    if (isinstance(n_shards, bool) or not isinstance(n_shards, Integral)
            or n_shards < 1):
        raise ConfigurationError(
            f"shard count must be an integer >= 1, got {n_shards!r}")
    return int(n_shards)


def check_shard_ids(shard_ids, n_shards: int, n_records: int | None = None,
                    source: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Validate a record-to-shard assignment; return it as contiguous
    int64 ids and each shard's record count.

    Integer dtype, shape ``(n_records,)`` (any length when ``n_records``
    is None) and every id in ``[0, n_shards)``; anything else is a
    :class:`~repro.errors.ConfigurationError` naming ``source`` (the
    partitioner type) and the offending range. The ids are converted
    once, and one pass of the native library
    (:func:`repro.native.partition.shard_counts`) checks the range and
    counts the ``n_shards`` shards' records.
    """
    by = f" from {source}" if source else ""
    given = np.asarray(shard_ids)
    if not np.issubdtype(given.dtype, np.integer):
        raise ConfigurationError(
            f"shard ids{by} must be integers, got dtype {given.dtype}")
    if given.ndim != 1 or (n_records is not None
                           and given.shape != (n_records,)):
        expected = "n" if n_records is None else n_records
        raise ConfigurationError(
            f"shard assignment{by} has shape {given.shape}, "
            f"expected ({expected},): one id per record")
    if n_shards > _MAX_SHARDS:
        raise ConfigurationError(
            f"shard ids{by} are checked against at most 2**31 shards, the "
            f"walk's id range, got {n_shards}")
    # a uint64 id of 2**63 or more wraps negative, and fails as one
    ids = np.ascontiguousarray(given, dtype=np.int64)
    try:
        counts, first = _native.shard_counts(ids, n_shards)
    except MemoryError:
        raise ConfigurationError(
            f"the record counts of {n_shards} shards do not fit in "
            "memory") from None
    if first >= 0:
        raise ConfigurationError(
            f"shard ids{by} must lie in [0, {n_shards}), got range "
            f"[{given.min()}, {given.max()}] (first bad id at record "
            f"{first})")
    return ids, counts


@dataclass(frozen=True)
class HashPartitioner:
    """Shard by a salted hash of a grouping-key projection.

    ``key`` selects the attributes hashed (default: every schema
    attribute, i.e. the finest group identity), as an ``AttributeSet``
    or its text, parsed against the dataset's schema. Hashing a coarser
    projection — e.g. ``"AB"`` — keeps all records of each AB-group on
    one shard, which also co-locates every relation whose attributes
    include the key.
    """

    key: AttributeSet | str | None = None
    salt: int = _SHARD_SALT

    def shard_ids(self, dataset: Dataset, n_shards: int) -> np.ndarray:
        n_shards = check_shard_count(n_shards)
        attrs = (dataset.schema.all_attributes if self.key is None
                 else dataset.schema.attribute_set(self.key))
        if not attrs:
            raise ConfigurationError(
                "HashPartitioner needs at least one key attribute to hash, "
                "got an empty key")
        return _native.hash_shards([dataset.columns[a] for a in attrs],
                                   self.salt, n_shards)


def balance_summary(counts: list[int], strategy: str = "") -> dict:
    """How a record-to-shard assignment landed, from its per-shard
    record counts: JSON-ready, it rides in the run manifest so a skewed
    or collapsed partition is visible after the run."""
    n_shards = len(counts)
    largest = max(counts, default=0)
    mean = sum(counts) / n_shards if n_shards else 0.0
    return {
        "strategy": strategy,
        "shards": n_shards,
        "records": list(counts),
        "empty_shards": counts.count(0),
        "largest_shard": largest,
        "imbalance": float(largest / mean) if mean else 1.0,
    }
