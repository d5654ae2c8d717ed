"""The native library's one-pass entries over a stream's columns and
its shard ids.

The first two hash rows through the library's salted splitmix64 chain
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
  ``tests/parallel/test_partition.py``). The remainder is a multiply by
  a reciprocal computed once per call, exact for every hash and shard
  count, not a divide. A row's id depends on its row alone, so the rows
  are hashed in contiguous ranges, one per usable core
  (:func:`repro.native.cores`) and each at least :data:`SPLIT_ROWS`
  long, all writing one ``ids`` array: every range but the first is a
  job of the library's pool, and the caller hashes the first (and any
  range no helper was free for); a shorter stream, or one core, is one
  call on the caller's thread.
* :func:`group_stats` — the planner's exact statistics (``g_R`` and the
  gap-based flow count behind ``l_R``) for one relation in one pass
  over the records, and the one body of ``Dataset.group_count`` and
  ``workloads.datasets.flow_count``.
  Each record finds or inserts its group in the
  library's group table, equality on the raw columns, and the table
  keeps the group's last timestamp; a new group opens a flow, a known
  group opens another when ``!((t - last) <= timeout)``. Timestamps are
  non-decreasing, so a group's arrivals are already the order the flow
  rule's ``lexsort`` by (code, time) visits them, and the
  float subtraction and comparison are the same ones: the counts are
  equal, ties and gaps exactly at the timeout included (pinned against
  the numpy reference by ``tests/gigascope/test_native_ingest.py`` and
  against ``one_record_per_flow`` by ``tests/workloads/test_datasets.py``).

The third reads shard ids, any partitioner's:

* :func:`shard_counts` — the check of a record-to-shard assignment and
  each shard's record count in one pass
  (:func:`repro.parallel.partition.check_shard_ids`): every id compared
  with ``n_shards`` as an unsigned word, so a negative one fails, and
  counted.

Without the library either raises
:class:`~repro.errors.NativeLibraryError`.
"""

from __future__ import annotations

import math

import numpy as np

from repro import native
from repro.native import library

__all__ = ["SPLIT_ROWS", "group_stats", "hash_shards", "shard_counts"]

#: The fewest rows a range of the partition hash is given a helper for:
#: below twice this a stream is hashed in one call on the caller's
#: thread.
SPLIT_ROWS = 1 << 16


def hash_shards(cols: list[np.ndarray], salt: int,
                n_shards: int) -> np.ndarray:
    """Shard ids ``chain(cols, salt) % n_shards`` as int64.

    ``cols`` are the integer attribute columns of the partition key;
    ``n_shards`` lies in ``[1, 2**64)``, else ``ValueError``.
    """
    lib = library.library()
    if not 1 <= n_shards < 2**64:
        raise ValueError(
            f"need between 1 and 2**64 - 1 shards, got {n_shards}")
    addresses, held = library.words(cols)
    n = held[0].shape[0]
    ids = np.empty(n, dtype=np.int64)
    parts = max(1, min(native.cores(), n // SPLIT_ROWS))
    edges = [n * part // parts for part in range(parts + 1)]
    # every column, and ids, from a range's first row on: 8-byte words
    # (the shifted addresses are held through the call)
    shifted = [addresses + 8 * start for start in edges[:-1]]
    salt &= 0xFFFFFFFFFFFFFFFF
    ranges = [(library.address(shifted[part]), len(held),
               edges[part + 1] - edges[part], salt, n_shards,
               ids.ctypes.data + 8 * edges[part]) for part in range(parts)]
    jobs = np.zeros((parts, 10), dtype=np.uint64)
    submitted = []
    try:
        for part in range(1, parts):
            job = library.job(jobs[part], library.JOB_HASH, 0,
                              *ranges[part])
            if lib.repro_pool_submit(job, parts - 1) == 0:
                submitted.append(job)
            else:  # no helper free: the caller hashes it
                lib.repro_partition_hash(*ranges[part])
        lib.repro_partition_hash(*ranges[0])
    finally:
        for job in submitted:
            lib.repro_pool_wait(job)
    return ids


def shard_counts(ids: np.ndarray, n_shards: int) -> tuple[np.ndarray, int]:
    """Each shard's record count of the int64 ``ids``, and the index of
    the first id outside ``[0, n_shards)``, or -1 when there is none
    (the counts are partial then).

    ``ids`` are C-contiguous int64 and ``n_shards`` is at least 1; the
    counts are ``n_shards`` int64 entries.
    """
    lib = library.library()
    counts = np.zeros(n_shards, dtype=np.int64)
    first = lib.repro_shard_counts(ids.ctypes.data, ids.shape[0], n_shards,
                                   counts.ctypes.data)
    return counts, int(first)


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
