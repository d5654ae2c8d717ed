"""Fused C kernel for the engine's per-relation LFTA accounting pass.

The numpy engine (:mod:`repro.gigascope.engine`) spends an epoch's budget
on a chain of whole-array passes — ``pack_tuples`` (one ``np.unique`` per
attribute), the salted splitmix64 chain, an ``argsort``/``lexsort`` by
(bucket, time), run-boundary detection, and segment sums. This kernel
*simulates the direct-mapped table directly*: one cache-friendly pass over
the time-ordered arrivals that hashes, probes, accumulates, and detects
collisions per record, then a stable counting sort by bucket that lands
the evicted runs in exactly the numpy path's (bucket, start-time) order.
The pass hashes a block of 64 arrivals, then probes that block: the
hashes of a block are independent, so they overlap in the CPU.

Bit-identity contract (pinned by ``tests/gigascope/test_differential.py``):

* *Runs.* A bucket's resident run is extended only while every raw
  attribute value matches the run's representative — the same equivalence
  relation as the collision-free packed codes, so the pack is fused away
  entirely.
* *Hashes.* The in-loop splitmix64 chain (the shared ``chain64`` of
  :data:`repro.native.build.HASH_CHAIN_SOURCE`) replicates
  :func:`repro.gigascope.hashing._chain` op-for-op on C ``uint64_t``
  (identical wrap-around arithmetic).
* *Floats.* Value sums accumulate in arrival-time order starting from
  ``0.0`` — the order and seed of ``np.bincount`` over a sorted run — and
  min/max reproduce ``np.minimum``/``np.maximum`` NaN-propagation. With
  contraction and fast-math off (:data:`repro.native.build.DEFAULT_FLAGS`)
  C doubles and numpy float64 round identically.
* *Order.* Runs are recorded in eviction order during the pass; within a
  bucket that is start-time order and the flush run is last, so the
  stable counting sort by bucket reproduces the numpy path's
  ``lexsort((time, bucket))`` emission order exactly.

The kernel is best-effort: no compiler or ``REPRO_NO_CKERNEL=1`` falls
back to the numpy path with identical results.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.native.build import HASH_CHAIN_SOURCE, load_kernel

__all__ = ["KERNEL_NAME", "ingest_runs", "kernel_available"]

KERNEL_NAME = "engine_ingest"

_SOURCE = HASH_CHAIN_SOURCE + r"""
#include <stddef.h>
#include <math.h>

/* Arrivals hashed ahead of each probe loop. */
#define INGEST_BLOCK 64

/* One epoch of one relation's direct-mapped table, arrivals in time
 * order. Emits runs into out_* in (bucket, start-time) order; returns
 * the run count. stats[0] = arrivals with t < n, stats[1] = evictions
 * with eviction time < n (the intra-epoch counters). */
int64_t repro_ingest(
    const uint64_t **cols, int64_t k,
    uint64_t salt,
    const int64_t *t, const int64_t *w,
    const double *vs, const double *vmin, const double *vmax,
    int64_t m, int64_t n, int64_t n_buckets, int64_t flush_base,
    int64_t *slot_run,               /* [n_buckets], caller fills -1 */
    int64_t *bucket_pos,             /* [n_buckets], caller zeroes */
    int64_t *run_bucket, int64_t *run_rep, int64_t *run_w,
    int64_t *run_evict, double *run_vs, double *run_vmin, double *run_vmax,
    int64_t *out_rep, int64_t *out_w, int64_t *out_evict,
    double *out_vs, double *out_vmin, double *out_vmax,
    int64_t *stats)
{
    const int has_values = vs != NULL;
    const uint64_t nb = (uint64_t)n_buckets;
    const uint64_t state = mix64(salt);
    int64_t n_runs = 0, arr_intra = 0, ev_intra = 0;
    int64_t i, i0, i1, b, r, c, pos, count, offset;
    int64_t block[INGEST_BLOCK];

    /* Hash a block of arrivals, then probe it: the hash chains of a
     * block are independent of each other and of the table. */
    for (i0 = 0; i0 < m; i0 = i1) {
        i1 = m - i0 < INGEST_BLOCK ? m : i0 + INGEST_BLOCK;
        for (i = i0; i < i1; i++)
            block[i - i0] = (int64_t)(chain64(cols, k, i, state) % nb);
        for (i = i0; i < i1; i++) {
            if (t[i] < n) arr_intra++;
            b = block[i - i0];
            r = slot_run[b];
            if (r >= 0) {
                const int64_t rep = run_rep[r];
                int same = 1;
                for (c = 0; c < k; c++) {
                    if (cols[c][i] != cols[c][rep]) { same = 0; break; }
                }
                if (same) {  /* probe hit: extend the resident run */
                    run_w[r] += w[i];
                    if (has_values) {
                        run_vs[r] += vs[i];
                        /* np.minimum/np.maximum: NaN always propagates */
                        if (isnan(vmin[i]) || vmin[i] < run_vmin[r])
                            run_vmin[r] = vmin[i];
                        if (isnan(vmax[i]) || vmax[i] > run_vmax[r])
                            run_vmax[r] = vmax[i];
                    }
                    continue;
                }
                /* collision: evict the resident at this arrival's time */
                run_evict[r] = t[i];
                if (t[i] < n) ev_intra++;
            }
            r = n_runs++;
            slot_run[b] = r;
            bucket_pos[b]++;
            run_bucket[r] = b;
            run_rep[r] = i;
            run_w[r] = w[i];
            if (has_values) {
                run_vs[r] = 0.0 + vs[i];  /* bincount seeds its sums at 0.0 */
                run_vmin[r] = vmin[i];
                run_vmax[r] = vmax[i];
            }
        }
    }

    /* end-of-epoch flush, bucket-scan order within this depth's window */
    for (b = 0; b < n_buckets; b++) {
        r = slot_run[b];
        if (r >= 0)
            run_evict[r] = flush_base + b;
    }

    /* stable counting sort by bucket: eviction order -> numpy's
     * (bucket, start-time) emission order */
    offset = 0;
    for (b = 0; b < n_buckets; b++) {
        count = bucket_pos[b];
        bucket_pos[b] = offset;
        offset += count;
    }
    for (r = 0; r < n_runs; r++) {
        pos = bucket_pos[run_bucket[r]]++;
        out_rep[pos] = run_rep[r];
        out_w[pos] = run_w[r];
        out_evict[pos] = run_evict[r];
        if (has_values) {
            out_vs[pos] = run_vs[r];
            out_vmin[pos] = run_vmin[r];
            out_vmax[pos] = run_vmax[r];
        }
    }
    stats[0] = arr_intra;
    stats[1] = ev_intra;
    return n_runs;
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)

_SIGNATURES = {"repro_ingest": (ctypes.c_int64, [
    ctypes.POINTER(_U64P), ctypes.c_int64,
    ctypes.c_uint64, _I64P, _I64P, _F64P, _F64P, _F64P,
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_int64, _I64P, _I64P,
    _I64P, _I64P, _I64P, _I64P, _F64P, _F64P, _F64P,
    _I64P, _I64P, _I64P, _F64P, _F64P, _F64P, _I64P,
])}


def _kernel() -> ctypes.CDLL | None:
    return load_kernel(KERNEL_NAME, _SOURCE, _SIGNATURES)


def kernel_available() -> bool:
    """Whether the fused ingest kernel could be compiled and loaded."""
    return _kernel() is not None


def _i64(a: np.ndarray):
    return a.ctypes.data_as(_I64P)


def _f64(a: np.ndarray | None):
    return None if a is None else a.ctypes.data_as(_F64P)


def ingest_runs(cols: list[np.ndarray], salt: int, t: np.ndarray,
                w: np.ndarray, vs: np.ndarray | None,
                vmin: np.ndarray | None, vmax: np.ndarray | None,
                n: int, n_buckets: int, flush_base: int):
    """Run one relation-epoch through the fused kernel.

    ``cols`` are the uint64 equality columns (raw attribute values) and
    ``t`` must already be in ascending time order. Returns ``(rep, run_w,
    run_vs, run_vmin, run_vmax, evict_t, arrivals_intra,
    evictions_intra)`` with runs in the numpy path's (bucket, start-time)
    order and ``rep`` indexing the kernel's input arrays. Call only when
    :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    m = int(t.shape[0])
    k = len(cols)
    cols = [np.ascontiguousarray(col, dtype=np.uint64) for col in cols]
    col_ptrs = (_U64P * k)(*[col.ctypes.data_as(_U64P) for col in cols])
    t = np.ascontiguousarray(t, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.int64)
    has_values = vs is not None
    if has_values:
        vs = np.ascontiguousarray(vs, dtype=np.float64)
        vmin = np.ascontiguousarray(vmin, dtype=np.float64)
        vmax = np.ascontiguousarray(vmax, dtype=np.float64)

    slot_run = np.full(n_buckets, -1, dtype=np.int64)
    bucket_pos = np.zeros(n_buckets, dtype=np.int64)
    tmp_i = np.empty((4, m), dtype=np.int64)   # bucket, rep, w, evict
    out_i = np.empty((3, m), dtype=np.int64)   # rep, w, evict
    if has_values:
        tmp_f = np.empty((3, m), dtype=np.float64)
        out_f = np.empty((3, m), dtype=np.float64)
    else:
        tmp_f = out_f = None
    stats = np.zeros(2, dtype=np.int64)

    n_runs = lib.repro_ingest(
        col_ptrs, ctypes.c_int64(k),
        ctypes.c_uint64(salt & 0xFFFFFFFFFFFFFFFF),
        _i64(t), _i64(w),
        _f64(vs), _f64(vmin), _f64(vmax),
        ctypes.c_int64(m), ctypes.c_int64(n),
        ctypes.c_int64(n_buckets), ctypes.c_int64(flush_base),
        _i64(slot_run), _i64(bucket_pos),
        _i64(tmp_i[0]), _i64(tmp_i[1]), _i64(tmp_i[2]), _i64(tmp_i[3]),
        _f64(None if tmp_f is None else tmp_f[0]),
        _f64(None if tmp_f is None else tmp_f[1]),
        _f64(None if tmp_f is None else tmp_f[2]),
        _i64(out_i[0]), _i64(out_i[1]), _i64(out_i[2]),
        _f64(None if out_f is None else out_f[0]),
        _f64(None if out_f is None else out_f[1]),
        _f64(None if out_f is None else out_f[2]),
        _i64(stats))

    rep = out_i[0, :n_runs].copy()
    run_w = out_i[1, :n_runs].copy()
    evict_t = out_i[2, :n_runs].copy()
    if has_values:
        run_vs = out_f[0, :n_runs].copy()
        run_vmin = out_f[1, :n_runs].copy()
        run_vmax = out_f[2, :n_runs].copy()
    else:
        run_vs = run_vmin = run_vmax = None
    return (rep, run_w, run_vs, run_vmin, run_vmax, evict_t,
            int(stats[0]), int(stats[1]))
