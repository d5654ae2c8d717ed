"""C kernel for the sharded runtime's partition hash.

Sharding is lossless whatever the record-to-shard assignment, so the
only thing it may cost is the partition step itself. The numpy path
pays the salted splitmix64 chain as dozens of whole-array passes with a
temporary each; this kernel makes it one streaming pass:

* :func:`hash_shards` — the salted splitmix64 chain of
  :func:`repro.gigascope.hashing._chain` (the shared ``chain64`` of
  :data:`repro.native.build.HASH_CHAIN_SOURCE`), reduced ``% n_shards``
  to int64 shard ids.

The ids are the whole of the kernel's job: a shard is a row index into
the stream's columns (:func:`repro.parallel.partition.shard_rows`), which
the engine walks in place, so no lane is copied.

Bit-identity contract (pinned by ``tests/parallel/test_partition.py``):
int64 attribute values are *viewed* as uint64, which wraps negatives
exactly like numpy's ``astype(np.uint64)``; ``uint64_t`` arithmetic
wraps like numpy's.

The kernel is best-effort: no compiler or ``REPRO_NO_CKERNEL=1`` leaves
:mod:`repro.parallel.partition` on its numpy body with identical
results.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.native.build import HASH_CHAIN_SOURCE, load_kernel

__all__ = ["KERNEL_NAME", "hash_shards", "kernel_available"]

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
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)

_SIGNATURES = {
    "repro_partition_hash": (None, [
        ctypes.POINTER(_U64P), ctypes.c_int64, ctypes.c_int64,
        ctypes.c_uint64, ctypes.c_uint64, _I64P,
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
