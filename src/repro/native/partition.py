"""The native library's two one-pass entries over a stream's columns.

Both hash rows through the library's salted splitmix64 chain
(:mod:`repro.native.library`) in one pass over the stream, where numpy
would pay the chain, a pack or a sort as dozens of whole-array passes:

* :func:`hash_shards` — the sharded runtime's record-to-shard hash:
  ``chain(key columns, salt) % n_shards`` as int64 ids, the ids
  :class:`repro.parallel.partition.HashPartitioner` hands to
  ``simulate(..., shards=ids)``, which walks each record in its shard's
  slice of every table, so no lane is copied or indexed. int64
  attribute values are *viewed* as uint64, which wraps negatives
  exactly like numpy's ``astype(np.uint64)``: the ids are
  ``combine_columns(cols, salt) % n_shards`` (pinned by
  ``tests/parallel/test_partition.py``).
* :func:`group_stats` — the planner's exact statistics (``g_R`` and the
  gap-based flow count behind ``l_R``) for one relation in one pass
  over the records, the counts ``Dataset.group_count`` and
  ``workloads.datasets.flow_count`` take a pack and a sort each for.
  Each record finds or inserts its group in the
  library's group table, equality on the raw columns, and the table
  keeps the group's last timestamp; a new group opens a flow, a known
  group opens another when ``!((t - last) <= timeout)``. Timestamps are
  non-decreasing, so a group's arrivals are already the order
  ``flow_count``'s ``lexsort`` by (code, time) visits them, and the
  float subtraction and comparison are the same ones: the counts are
  equal, ties and gaps exactly at the timeout included (pinned by
  ``tests/workloads/test_datasets.py``).

Without the library either raises
:class:`~repro.errors.NativeLibraryError`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.native import library

__all__ = ["group_stats", "hash_shards"]


def hash_shards(cols: list[np.ndarray], salt: int,
                n_shards: int) -> np.ndarray:
    """Shard ids ``chain(cols, salt) % n_shards`` as int64.

    ``cols`` are the integer attribute columns of the partition key.
    """
    lib = library.library()
    if n_shards < 1:
        raise ValueError("need at least one shard")
    addresses, held = library.words(cols)
    n = held[0].shape[0]
    ids = np.empty(n, dtype=np.int64)
    lib.repro_partition_hash(addresses.ctypes.data, len(held), n,
                             salt & 0xFFFFFFFFFFFFFFFF, n_shards,
                             ids.ctypes.data)
    return ids


def group_stats(cols: list[np.ndarray], timestamps: np.ndarray,
                timeout: float | None) -> tuple[int, int]:
    """Exact ``(groups, flows)`` of one relation in one hash pass.

    ``cols`` are the relation's integer attribute columns and
    ``timestamps`` the non-decreasing arrival times. A flow is a run of
    one group's records whose inter-arrival gaps are all ``<= timeout``;
    ``timeout=None`` is an infinite timeout, for callers that want the
    group count only.
    """
    lib = library.library()
    n = int(timestamps.shape[0])
    addresses, held = library.words(cols, n)
    timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
    # A power-of-two slot array at load <= 0.5 keeps linear probes
    # short; -1 marks an empty slot.
    cap = 1 << max(4, (2 * n - 1).bit_length())
    table = np.full(cap, -1, dtype=np.int64)
    rep = np.empty(n, dtype=np.int64)
    last = np.empty(n, dtype=np.float64)
    flows = np.zeros(1, dtype=np.int64)
    groups = lib.repro_group_stats(
        addresses.ctypes.data, len(held), n, timestamps.ctypes.data,
        math.inf if timeout is None else timeout, cap, table.ctypes.data,
        rep.ctypes.data, last.ctypes.data, flows.ctypes.data)
    return int(groups), int(flows[0])
