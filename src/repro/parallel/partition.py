"""Record-to-shard assignment for the sharded ingestion runtime.

A partitioner is any object with ``shard_ids(dataset, n_shards)``
returning one integer shard id in ``[0, n_shards)`` per record of a
:class:`~repro.gigascope.records.Dataset`. Because LFTA/HFTA partial
aggregates are exactly mergeable (counts and value sums add,
minima/maxima combine — the same property that makes phantoms lossless),
*any* assignment preserves query answers; :func:`check_shard_ids`
validates one, and :func:`split_dataset` scatters the stream by it,
keeping arrival order within a shard so shard streams remain valid
time-ordered datasets.

:class:`HashPartitioner` is the one built-in partitioner: a salted
splitmix64 hash of a grouping-key projection. Records of one group land
on one shard, so each shard's tables see a disjoint slice of the group
space and keep the single-system groups-per-bucket ratio the cost model
prices.

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
from repro.errors import ConfigurationError
from repro.gigascope.hashing import combine_columns
from repro.gigascope.records import Dataset
from repro.native import partition as _native

__all__ = [
    "HashPartitioner",
    "split_dataset",
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
        columns = [dataset.columns[a] for a in attrs]
        if _native.kernel_available():
            return _native.hash_shards(columns, self.salt, n_shards)
        hashes = combine_columns(columns, self.salt)
        return (hashes % np.uint64(n_shards)).astype(np.int64)


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
