"""C kernel for the HFTA's group-merge fold (hash-table accumulate).

The HFTA's job is the opposite of the LFTA's: take rows of *partial*
aggregates — several per group, because collisions split a group's epoch
across evictions and shards split it across batches — and fold them to
exactly one row per group. The numpy path does this with a full
group-unique (``pack_tuples`` + ``np.unique``, i.e. a sort); this kernel
does it the way *Global Hash Tables Strike Back!* argues wins in the
partial-aggregate regime: one pass over the rows through an
open-addressing hash table, accumulating in place.

Bit-identity contract (pinned by
``tests/gigascope/test_hfta_columnar.py``):

* *Grouping.* Two rows merge iff every raw key column matches — the same
  equivalence relation as the numpy fold's collision-free pack codes.
  The splitmix64 chain (``chain64``, op-for-op
  :func:`repro.gigascope.hashing._chain`) only *places* rows; equality
  is always decided on the columns, so hash collisions cost probes,
  never correctness.
* *Floats.* A group's value sum accumulates in row order starting from
  ``0.0`` — the order and seed of ``np.bincount`` — and min/max reproduce
  ``np.minimum.at``/``np.maximum.at`` NaN-propagation. With contraction
  and fast-math off (:data:`repro.native.build.DEFAULT_FLAGS`) C doubles
  round identically to numpy float64.
* *Counts.* Accumulated as native ``int64`` — identical to the numpy
  fold's float64 ``bincount`` for any realistic total (< 2**53) and exact
  beyond it.
* *Order.* Groups come out in first-appearance (row) order, and the
  numpy fallback canonicalizes to the same order, so the two paths
  produce identical columnar layouts, not merely equal dicts. The HFTA
  relies on this: a re-fold places existing groups' state rows first, so
  extending an accumulated sum with new rows preserves the exact
  left-to-right addition sequence of a from-scratch fold.

The table's probe, ``find_slot`` (:data:`GROUP_TABLE_SOURCE`), is also
linked into the ingest kernel (:mod:`repro.native.ingest`), whose walk
folds each emitting relation's runs through it; with that kernel loaded,
:func:`merge_rows` serves only the HFTA's lazy folds.

The same table serves a second entry, :func:`group_stats`: the planner's
exact statistics (``g_R`` and the gap-based flow count behind ``l_R``)
for one relation in one pass over the records, where the numpy body
(``Dataset.group_count`` + ``workloads.datasets.flow_count``) packs the
key columns twice and sorts them twice. Each record finds or inserts its
group, equality again on the raw columns, and the table keeps the
group's last timestamp; a new group opens a flow, a known group opens
another when ``!((t - last) <= timeout)``. Timestamps are
non-decreasing, so a group's arrivals are already the order the sort
path's ``lexsort`` by (code, time) visits them, and the float
subtraction and comparison are the same ones: the counts are equal,
ties and gaps exactly at the timeout included (pinned by
``tests/workloads/test_datasets.py``).

The kernel is best-effort: no compiler, ``REPRO_NO_CKERNEL=1``, or
ineligible dtypes fall back to the numpy bodies with identical results.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from repro.native.build import HASH_CHAIN_SOURCE, load_kernel

__all__ = ["GROUP_TABLE_SOURCE", "KERNEL_NAME", "group_stats",
           "kernel_available", "merge_rows"]

KERNEL_NAME = "hfta_merge"

#: C source of the open-addressing group table every fold here probes —
#: the merge and statistics kernels below and the ingest kernel's in-walk
#: fold (:mod:`repro.native.ingest`) — after :data:`HASH_CHAIN_SOURCE`.
GROUP_TABLE_SOURCE = r"""
/* The slot of row i's group in an open-addressing slot array (capacity
 * mask + 1, a power of two), probed linearly from the hash h: the slot
 * holding a group whose representative equals row i on every key
 * column, or the empty slot where row i's group goes. An entry e names
 * group e - base and anything below base is empty, so raising base past
 * every group empties the table without touching it (a table filled
 * with -1 is empty at base 0). Group g's representative is row rep[g]
 * of cols or, when rep[g] < 0, row -1 - rep[g] of seed: the state a
 * fold extends. The hash only places rows: equality is decided on the
 * columns, so collisions cost probes, never correctness. */
static inline uint64_t find_slot(
    const uint64_t **cols, int64_t k, int64_t i, uint64_t h,
    uint64_t mask, const int64_t *table, int64_t base,
    const int64_t *rep, const uint64_t **seed)
{
    uint64_t s;
    int64_t g, r;
    int c;

    for (s = h & mask;; s = (s + 1ULL) & mask) {
        g = table[s] - base;
        if (g < 0)
            return s;
        r = rep[g];
        if (r >= 0) {
            for (c = 0; c < k && cols[c][i] == cols[c][r]; c++)
                ;
        } else {
            for (c = 0; c < k && cols[c][i] == seed[c][-1 - r]; c++)
                ;
        }
        if (c == k)
            return s;
    }
}
"""

_SOURCE = HASH_CHAIN_SOURCE + GROUP_TABLE_SOURCE + r"""
#include <stddef.h>
#include <math.h>

/* Fold n partial-aggregate rows into one row per distinct key tuple.
 * Groups are numbered in first-appearance order; rep[g] is the first
 * row index of group g. Returns the group count. */
int64_t repro_hfta_merge(
    const uint64_t **cols, int64_t k, int64_t n,
    const int64_t *counts,
    const double *vs, const double *vmin, const double *vmax,
    uint64_t salt, int64_t cap, int64_t *table,
    int64_t *rep, int64_t *out_counts,
    double *out_vs, double *out_vmin, double *out_vmax)
{
    const uint64_t mask = (uint64_t)cap - 1ULL;
    const uint64_t state = mix64(salt);
    int64_t n_groups = 0;
    int64_t i, g;
    uint64_t s;

    for (i = 0; i < n; i++) {
        s = find_slot(cols, k, i, chain64(cols, k, i, state), mask, table,
                      0, rep, NULL);
        g = table[s];
        if (g < 0) {                /* new group */
            table[s] = n_groups;
            rep[n_groups] = i;
            out_counts[n_groups] = counts[i];
            /* bincount seeds its sums at 0.0 */
            out_vs[n_groups] = 0.0 + vs[i];
            out_vmin[n_groups] = vmin[i];
            out_vmax[n_groups] = vmax[i];
            n_groups++;
            continue;
        }
        out_counts[g] += counts[i];
        out_vs[g] += vs[i];
        /* np.minimum/np.maximum: NaN always propagates */
        if (isnan(vmin[i]) || vmin[i] < out_vmin[g])
            out_vmin[g] = vmin[i];
        if (isnan(vmax[i]) || vmax[i] > out_vmax[g])
            out_vmax[g] = vmax[i];
    }
    return n_groups;
}

/* Exact group and flow counts of n records in arrival (non-decreasing
 * time) order, through the same table and probe as repro_hfta_merge.
 * last[g] is group g's latest timestamp. A new group opens a flow; a
 * known group opens another when !((t - last) <= timeout), the sort
 * path's continuation test negated. Returns the group count and stores
 * the flow count in *flows. */
int64_t repro_group_stats(
    const uint64_t **cols, int64_t k, int64_t n, const double *ts,
    double timeout, int64_t cap, int64_t *table,
    int64_t *rep, double *last, int64_t *flows)
{
    const uint64_t mask = (uint64_t)cap - 1ULL;
    const uint64_t state = mix64(0);
    int64_t n_groups = 0, n_flows = 0;
    int64_t i, g;
    uint64_t s;

    for (i = 0; i < n; i++) {
        s = find_slot(cols, k, i, chain64(cols, k, i, state), mask, table,
                      0, rep, NULL);
        g = table[s];
        if (g < 0) {                /* new group, new flow */
            table[s] = n_groups;
            rep[n_groups] = i;
            last[n_groups] = ts[i];
            n_groups++;
            n_flows++;
            continue;
        }
        if (!((ts[i] - last[g]) <= timeout))
            n_flows++;
        last[g] = ts[i];
    }
    *flows = n_flows;
    return n_groups;
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_VOIDP = ctypes.c_void_p

_SIGNATURES = {
    # Addresses as plain ints: one call binds no pointer objects.
    "repro_hfta_merge": (ctypes.c_int64, [
        _VOIDP, ctypes.c_int64, ctypes.c_int64,
        _VOIDP, _VOIDP, _VOIDP, _VOIDP,
        ctypes.c_uint64, ctypes.c_int64, _VOIDP,
        _VOIDP, _VOIDP, _VOIDP, _VOIDP, _VOIDP,
    ]),
    "repro_group_stats": (ctypes.c_int64, [
        ctypes.POINTER(_U64P), ctypes.c_int64, ctypes.c_int64, _F64P,
        ctypes.c_double, ctypes.c_int64, _I64P,
        _I64P, _F64P, _I64P,
    ]),
}


def _kernel() -> ctypes.CDLL | None:
    return load_kernel(KERNEL_NAME, _SOURCE, _SIGNATURES)


def kernel_available() -> bool:
    """Whether the HFTA merge kernel could be compiled and loaded."""
    return _kernel() is not None


def _empty_table(n: int) -> tuple[int, np.ndarray]:
    """Slot array for ``n`` rows: a power-of-two capacity at <= 0.5 load
    keeps linear probes short; -1 marks an empty slot."""
    cap = 1 << max(4, (2 * n - 1).bit_length())
    return cap, np.full(cap, -1, dtype=np.int64)


def merge_rows(cols: list[np.ndarray], counts: np.ndarray,
               vs: np.ndarray, vmin: np.ndarray, vmax: np.ndarray,
               salt: int = 0):
    """Fold partial-aggregate rows to one row per distinct key tuple.

    ``cols`` are the uint64 equality columns (int64 attribute values
    viewed as uint64); ``counts``/``vs``/``vmin``/``vmax`` are the
    aligned int64/float64 partials. Returns ``(rep, counts, vs, vmin,
    vmax)`` with one entry per group in first-appearance order, ``rep``
    holding each group's first row index into the inputs. Call only when
    :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    n = int(counts.shape[0])
    k = len(cols)
    cols = [np.ascontiguousarray(col, dtype=np.uint64) for col in cols]
    col_ptrs = np.array([col.ctypes.data for col in cols], dtype=np.uintp)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    vs = np.ascontiguousarray(vs, dtype=np.float64)
    vmin = np.ascontiguousarray(vmin, dtype=np.float64)
    vmax = np.ascontiguousarray(vmax, dtype=np.float64)

    cap, table = _empty_table(n)
    rep = np.empty(n, dtype=np.int64)
    out_counts = np.empty(n, dtype=np.int64)
    # The three float outputs in one block: sum, min, max.
    out_f = np.empty((3, n), dtype=np.float64)
    at_f = out_f.ctypes.data

    g = lib.repro_hfta_merge(
        col_ptrs.ctypes.data, k, n, counts.ctypes.data, vs.ctypes.data,
        vmin.ctypes.data, vmax.ctypes.data, salt & 0xFFFFFFFFFFFFFFFF,
        cap, table.ctypes.data, rep.ctypes.data, out_counts.ctypes.data,
        at_f, at_f + 8 * n, at_f + 16 * n)

    if g < n:
        out_counts, out_f = out_counts[:g].copy(), out_f[:, :g].copy()
    out_vs, out_vmin, out_vmax = out_f
    return rep[:g], out_counts, out_vs, out_vmin, out_vmax


def group_stats(cols: list[np.ndarray], timestamps: np.ndarray,
                timeout: float | None) -> tuple[int, int]:
    """Exact ``(groups, flows)`` of one relation in one hash pass.

    ``cols`` are the relation's int64 attribute columns and
    ``timestamps`` the non-decreasing arrival times. A flow is a run of
    one group's records whose inter-arrival gaps are all ``<= timeout``;
    ``timeout=None`` is an infinite timeout, for callers that want the
    group count only. Call only when :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    n = int(timestamps.shape[0])
    k = len(cols)
    cols = [np.ascontiguousarray(col, dtype=np.int64).view(np.uint64)
            for col in cols]
    col_ptrs = (_U64P * k)(*[col.ctypes.data_as(_U64P) for col in cols])
    timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
    cap, table = _empty_table(n)
    rep = np.empty(n, dtype=np.int64)
    last = np.empty(n, dtype=np.float64)
    flows = ctypes.c_int64(0)
    groups = lib.repro_group_stats(
        col_ptrs, ctypes.c_int64(k), ctypes.c_int64(n),
        timestamps.ctypes.data_as(_F64P),
        ctypes.c_double(math.inf if timeout is None else timeout),
        ctypes.c_int64(cap), table.ctypes.data_as(_I64P),
        rep.ctypes.data_as(_I64P), last.ctypes.data_as(_F64P),
        ctypes.byref(flows))
    return int(groups), int(flows.value)
