"""C kernel for the sharded runtime's partition pass (hash, then scatter).

Sharding is lossless whatever the record-to-shard assignment, so the
only thing it may cost is the partition step itself. The numpy path
pays for it many times over — the splitmix64 chain as dozens of
whole-array passes with a temporary each, then per shard one boolean
mask and a masked copy of every column. This kernel makes it the single
streaming pass *Global Hash Tables Strike Back!* asks of any
partition-and-ship GROUP BY, in two entry points:

* :func:`hash_shards` — the salted splitmix64 chain of
  :func:`repro.gigascope.hashing._chain` (the shared ``chain64`` of
  :data:`repro.native.build.HASH_CHAIN_SOURCE`), reduced ``% n_shards``
  to int64 shard ids.
* :func:`scatter_lanes` — a stable scatter of every 8-byte lane of the
  stream (int64 attribute columns, float64 timestamps, float64 value
  columns) into one buffer per lane laid out shard after shard. Shard
  ``s`` of a lane is the slice ``offsets[s]:offsets[s + 1]`` of its
  buffer; records keep their arrival order within a shard. The ids are
  range-checked inside the counting loop and the first bad row is
  reported instead of scattered.

Bit-identity contract (pinned by ``tests/parallel/test_partition.py``):
int64 attribute values are *viewed* as uint64, which wraps negatives
exactly like numpy's ``astype(np.uint64)``; ``uint64_t`` arithmetic
wraps like numpy's; lanes are copied as opaque 8-byte words, so NaN
payloads and signed zeros survive.

The kernel is best-effort: no compiler or ``REPRO_NO_CKERNEL=1`` leaves
:mod:`repro.parallel.partition` on its numpy bodies with identical
results.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.native.build import HASH_CHAIN_SOURCE, load_kernel

__all__ = ["KERNEL_NAME", "hash_shards", "kernel_available", "scatter_lanes"]

KERNEL_NAME = "shard_partition"

_SOURCE = HASH_CHAIN_SOURCE + r"""
#include <stddef.h>

/* ids[i] = chain(cols[0..k)[i], salt) % n_shards. */
void repro_partition_hash(
    const uint64_t **cols, int64_t k, int64_t n,
    uint64_t salt, uint64_t n_shards, int64_t *ids)
{
    const uint64_t state = mix64(salt);
    int64_t i;

    for (i = 0; i < n; i++)
        ids[i] = (int64_t)(chain64(cols, k, i, state) % n_shards);
}

/* Stable scatter of n_lanes 8-byte lanes by shard id. offsets has
 * n_shards + 1 entries and cursor n_shards, both zeroed by the caller;
 * on return shard s occupies out[l][offsets[s] .. offsets[s + 1]).
 * Returns -1, or the first row whose id is outside [0, n_shards), in
 * which case nothing has been written to out. */
int64_t repro_partition_scatter(
    const int64_t *ids, int64_t n, int64_t n_shards,
    const uint64_t **lanes, uint64_t **out, int64_t n_lanes,
    int64_t *offsets, int64_t *cursor)
{
    int64_t i, s, l, pos;

    for (i = 0; i < n; i++) {
        s = ids[i];
        if (s < 0 || s >= n_shards)
            return i;
        offsets[s + 1]++;
    }
    for (s = 0; s < n_shards; s++) {
        offsets[s + 1] += offsets[s];
        cursor[s] = offsets[s];
    }
    for (i = 0; i < n; i++) {
        pos = cursor[ids[i]]++;
        for (l = 0; l < n_lanes; l++)
            out[l][pos] = lanes[l][i];
    }
    return -1;
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)

_SIGNATURES = {
    "repro_partition_hash": (None, [
        ctypes.POINTER(_U64P), ctypes.c_int64, ctypes.c_int64,
        ctypes.c_uint64, ctypes.c_uint64, _I64P,
    ]),
    "repro_partition_scatter": (ctypes.c_int64, [
        _I64P, ctypes.c_int64, ctypes.c_int64,
        ctypes.POINTER(_U64P), ctypes.POINTER(_U64P),
        ctypes.c_int64, _I64P, _I64P,
    ]),
}


def _kernel() -> ctypes.CDLL | None:
    return load_kernel(KERNEL_NAME, _SOURCE, _SIGNATURES)


def kernel_available() -> bool:
    """Whether the partition kernel could be compiled and loaded."""
    return _kernel() is not None


def _words(lanes: list[np.ndarray], n: int):
    """The lanes' 8-byte words as a C pointer array (no copy for
    contiguous input); the arrays are returned to be kept alive."""
    held = []
    for lane in lanes:
        lane = np.ascontiguousarray(lane)
        if lane.shape != (n,) or lane.dtype.itemsize != 8:
            raise ValueError(
                f"lanes must be 1-D, 8 bytes wide and {n} long, got "
                f"{lane.dtype} {lane.shape}")
        held.append(lane.view(np.uint64))
    pointers = (_U64P * len(held))(*[w.ctypes.data_as(_U64P) for w in held])
    return pointers, held


def hash_shards(cols: list[np.ndarray], salt: int,
                n_shards: int) -> np.ndarray:
    """Shard ids ``chain(cols, salt) % n_shards`` as int64.

    ``cols`` are the int64 attribute columns of the partition key.
    Call only when :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    if not cols or n_shards < 1:
        raise ValueError("need at least one column and one shard")
    n = int(cols[0].shape[0])
    col_ptrs, held = _words(
        [np.asarray(col).astype(np.int64, copy=False) for col in cols], n)
    ids = np.empty(n, dtype=np.int64)
    lib.repro_partition_hash(
        col_ptrs, ctypes.c_int64(len(held)), ctypes.c_int64(n),
        ctypes.c_uint64(salt & 0xFFFFFFFFFFFFFFFF),
        ctypes.c_uint64(n_shards), ids.ctypes.data_as(_I64P))
    return ids


def scatter_lanes(ids: np.ndarray, n_shards: int, lanes: list[np.ndarray]):
    """Scatter ``lanes`` by shard id, stably, one buffer per lane.

    ``ids`` are int64 shard ids, one per record; ``lanes`` the stream's
    8-byte columns. Returns ``(buffers, offsets, bad_row)``: on success
    ``bad_row`` is -1, ``buffers[l]`` has ``lanes[l]``'s dtype and holds
    shard ``s`` at ``offsets[s]:offsets[s + 1]``; otherwise ``bad_row``
    is the first record whose id lies outside ``[0, n_shards)`` and the
    buffers are unwritten. Call only when :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    if n_shards < 1:
        raise ValueError("need at least one shard")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
    n = int(ids.shape[0])
    lane_ptrs, held = _words(lanes, n)
    buffers = [np.empty(n, dtype=lane.dtype) for lane in lanes]
    out_ptrs, _out_held = _words(buffers, n)
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    cursor = np.zeros(n_shards, dtype=np.int64)
    bad_row = lib.repro_partition_scatter(
        ids.ctypes.data_as(_I64P), ctypes.c_int64(n),
        ctypes.c_int64(n_shards), lane_ptrs, out_ptrs,
        ctypes.c_int64(len(held)),
        offsets.ctypes.data_as(_I64P), cursor.ctypes.data_as(_I64P))
    return buffers, offsets, int(bad_row)
