"""Fused C kernel for the engine's LFTA pass: one call walks the forest.

The numpy engine (:mod:`repro.gigascope.engine`) spends an epoch's budget
on a chain of whole-array passes per relation — ``pack_tuples`` (one
``np.unique`` per attribute), the salted splitmix64 chain, an
``argsort``/``lexsort`` by (bucket, time), run-boundary detection, and
segment sums — and hands each relation's evictions to its children in
Python. This kernel *simulates the direct-mapped tables directly*, every
relation of the configuration in one call per epoch: for each relation in
topological order, one cache-friendly pass over its time-ordered arrivals
that hashes, probes, accumulates, and detects collisions per record,
then the end-of-epoch flush. The pass hashes a block of 64 arrivals, then
probes that block: the hashes of a block are independent, so they overlap
in the CPU. The raw arrivals of an epoch are a contiguous range of the
stream's rows.

*Shards.* A relation's table may be several slices side by side, one
per shard: a row whose shard id is ``s`` lands in bucket ``s * b +
hash mod b`` of a relation with ``b`` buckets per slice, and an
eviction lands in its representative row's slice. Buckets are
shard-major, so each slice sees its shard's records in their order,
the flush scans shard 0's slice first and a fold takes shard 0's runs
first: a sharded stream walks as its shards would one after the other,
in one pass. A stream without shard ids is one slice.

*The feed.* A relation appends every eviction, in the order it happens,
to its eviction list: the collisions in arrival-time order, then the
flush in bucket order. Every eviction time is later than the one before,
so the list read in order *is* each child's time-ordered arrival stream —
no sort between parent and child. An eviction carries the raw row of its
run's representative, and children hash and compare the raw attribute
columns through that row: equal on the parent's attributes means equal
on the child's, so nothing is projected or copied.

*The fold.* A relation whose emit flag is set (a query; a relation may
emit and feed children) is the HFTA's input, and
the walk does the HFTA's work on it (paper Sec. 2.2): its runs, in the
numpy path's emission order (bucket, start-time), go straight into an
open-addressing group table — the ``find_slot`` probe of
:mod:`repro.native.merge`, equality on the raw columns — that folds them
to one row per group. A call returns, per emitting relation, the new
groups' representative rows and every group's int64 count and float64
sum/min/max, in first-appearance order. A fold may *extend* a state the
caller hands in (a seed): the seed's groups enter first, then the runs,
which is the HFTA's own ordering rule, so an epoch folded in two calls
adds its floats in the order of one.

*The bound.* A relation-epoch costs its arrivals and runs, never its
table size: a slot is valid only when it names a run of the current pass
that started in that bucket (so the slot array is never initialised or
reset), and the flush and the emission order either scan the buckets or
sort the runs by bucket, whichever the table size against the run count
makes cheaper. The group table is emptied by raising its base, never by
a scan, and grows (here, in C) only when a fold outgrows half of it.

Bit-identity contract with the numpy walk and the HFTA's fold of its
batches (pinned by ``tests/gigascope/test_differential.py``,
``tests/gigascope/test_walk_fold.py`` and
``tests/gigascope/test_native_ingest.py``):

* *Runs.* A bucket's resident run is extended only while every raw
  attribute value matches the run's representative — the same
  equivalence relation as the collision-free packed codes, so the pack is
  fused away entirely.
* *Hashes.* The in-loop splitmix64 chain (the shared ``chain64`` of
  :data:`repro.native.build.HASH_CHAIN_SOURCE`) replicates
  :func:`repro.gigascope.hashing._chain` op-for-op on C ``uint64_t``
  (identical wrap-around arithmetic).
* *Floats.* Value sums accumulate in arrival-time order starting from
  ``0.0`` — the order and seed of ``np.bincount`` over a sorted run — and
  min/max reproduce ``np.minimum``/``np.maximum`` NaN-propagation. A
  group's sum then adds its runs in emission order, after the seed's
  sum, as the HFTA's numpy fold adds the rows of a batch after the
  state's, and a NaN sum is written as ``np.nan``'s bits, as that fold
  writes it. With contraction and fast-math off
  (:data:`repro.native.build.DEFAULT_FLAGS`) C doubles and numpy float64
  round identically.
* *Order and counters.* A child sees its parent's evictions in time
  order, the order the numpy walk's ``(bucket, time)`` sort keeps within
  each bucket; emitted runs are folded in that ``lexsort((time,
  bucket))`` order, so groups appear in the order the HFTA's fold of the
  numpy walk's batch gives them; the intra/flush arrival and eviction
  counts are the numpy walk's, event for event.

The kernel is best-effort: no compiler or ``REPRO_NO_CKERNEL=1`` leaves
the numpy walk, with identical results.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.native.build import HASH_CHAIN_SOURCE, load_kernel
from repro.native.merge import GROUP_TABLE_SOURCE

__all__ = ["KERNEL_NAME", "Fold", "Walk", "ingest_runs", "kernel_available"]

KERNEL_NAME = "engine_ingest"

_SOURCE = HASH_CHAIN_SOURCE + GROUP_TABLE_SOURCE + r"""
#include <stddef.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Arrivals hashed ahead of each probe loop. */
#define INGEST_BLOCK 64

/* The smallest group table the folds allocate. */
#define FOLD_MIN_CAP 1024

/* The bits of np.nan: every NaN sum a fold writes. */
static const uint64_t NUMPY_NAN = 0x7ff8000000000000ULL;

/* A run of equal keys in one bucket: its key's hash, its
 * representative's raw row and its partial aggregates. */
typedef struct {
    uint64_t hash;
    int64_t bucket, row, w;
    double vs, vmin, vmax;
} run_t;

typedef struct { int64_t bucket, run; } order_t;

/* An emitting relation's epoch, folded: one row per group in
 * first-appearance order, the n_seed groups of the state it extends
 * first (their aggregates filled in by the caller), then the new ones. */
typedef struct {
    int64_t n_seed, n_groups;
    const uint64_t **seed;      /* [k] the state's key columns, or NULL */
    int64_t *rep;               /* new group's raw row; -1 - s: seed row s */
    int64_t *w;
    double *vs, *vmin, *vmax;
} fold_t;

/* One configuration bound to one stream; relations in topological
 * order. Relation r's table is n_slices slices of n_buckets[r] buckets
 * side by side; a row lands in slice shard[row] (slice 0 when shard is
 * NULL). Scratch is sized for the longest epoch (`longest` arrivals per
 * relation) and the largest table, every slice included. */
typedef struct {
    int64_t n_rel, longest, max_buckets, n_slices;
    const int64_t *parent;      /* walk index of the parent, -1 = raw */
    const int64_t *key_off;     /* [n_rel + 1] into key_col */
    const int64_t *key_col;     /* stream column of each key column */
    const uint64_t *salt;
    const int64_t *n_buckets, *depth, *emit, *feeds;
    const int64_t *fold_slot;   /* the fold of an emitting relation */
    const uint64_t *const *columns;  /* the stream's attribute columns */
    const double *values;       /* the stream's value column, or NULL */
    const int64_t *shard;       /* the stream's slice per row, or NULL */
    const uint64_t **keys;      /* [key_off[n_rel]] this epoch's columns */
    int64_t *slot_run;          /* [max_buckets], validated, never reset */
    int64_t *bucket_pos;        /* [max_buckets] */
    run_t *runs;                /* [longest] */
    order_t *order;             /* [longest] */
    int64_t *ev_i;              /* [levels][3][longest] row, time, weight */
    double *ev_f;               /* [levels][3][longest] sum, min, max */
    fold_t *folds;              /* [emitting] */
    int64_t *n_runs;            /* [n_rel] this epoch's runs = evictions */
    int64_t *stats;             /* [n_rel][4] accumulated counters */
    int64_t *table;             /* the folds' group table, malloc'd here */
    int64_t cap, base;          /* its capacity; entries >= base are live */
} walk_t;

static int by_bucket_then_run(const void *a, const void *b) {
    const order_t *x = (const order_t *)a, *y = (const order_t *)b;
    if (x->bucket != y->bucket)
        return x->bucket < y->bucket ? -1 : 1;
    return x->run < y->run ? -1 : (x->run > y->run);
}

/* A group table with room for `groups` at load <= 1/2: the held one, or
 * a larger one (every entry -1, base 0). Returns -1 when out of memory. */
static int reserve_groups(walk_t *W, int64_t groups)
{
    int64_t cap = W->cap < FOLD_MIN_CAP ? FOLD_MIN_CAP : W->cap;
    int64_t *table;

    if (W->table != NULL && 2 * groups <= W->cap)
        return 0;
    while (cap < 2 * groups)
        cap *= 2;
    table = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
    if (table == NULL)
        return -1;
    memset(table, 0xff, (size_t)cap * sizeof(int64_t));
    free(W->table);
    W->table = table;
    W->cap = cap;
    W->base = 0;
    return 0;
}

/* Fold a relation-epoch's runs, taken in the order order[0..n_runs), into
 * F: the seed's groups first, each run then extends its group or opens
 * one. A run is placed by the hash its bucket came from (chain64 with
 * `state`), a seed row by the same chain. Sums seed at 0.0 and min/max
 * propagate NaN, as the HFTA's numpy fold does; a count-only run is
 * (0.0, +inf, -inf). Which NaN survives where two meet is the
 * compiler's choice, so every NaN sum leaves as np.nan's bits, as the
 * numpy fold writes it. Returns -1 when out of memory. */
static int fold_runs(walk_t *W, fold_t *F, const uint64_t **keys,
                     int64_t k, uint64_t state, int64_t n_runs,
                     int has_values)
{
    const int64_t n_seed = F->n_seed;
    int64_t i, g, n_groups = n_seed, base;
    uint64_t s, mask;
    int64_t *table;
    const run_t *R;
    double vs, vmin, vmax;

    if (reserve_groups(W, n_seed + n_runs) < 0)
        return -1;
    table = W->table;
    mask = (uint64_t)W->cap - 1ULL;
    base = W->base;
    /* the state's groups are distinct: each finds an empty slot */
    for (g = 0; g < n_seed; g++) {
        s = find_slot(F->seed, k, g, chain64(F->seed, k, g, state), mask,
                      table, base, F->rep, F->seed);
        table[s] = base + g;
        F->rep[g] = -1 - g;
    }
    for (i = 0; i < n_runs; i++) {
        R = &W->runs[W->order[i].run];
        vs = has_values ? R->vs : 0.0;
        vmin = has_values ? R->vmin : INFINITY;
        vmax = has_values ? R->vmax : -INFINITY;
        s = find_slot(keys, k, R->row, R->hash, mask, table, base, F->rep,
                      F->seed);
        g = table[s] - base;
        if (g < 0) {                /* new group */
            g = n_groups++;
            table[s] = base + g;
            F->rep[g] = R->row;
            F->w[g] = R->w;
            F->vs[g] = 0.0 + vs;    /* bincount seeds its sums at 0.0 */
            F->vmin[g] = vmin;
            F->vmax[g] = vmax;
            continue;
        }
        F->w[g] += R->w;
        F->vs[g] += vs;
        /* np.minimum/np.maximum: NaN always propagates */
        if (isnan(vmin) || vmin < F->vmin[g])
            F->vmin[g] = vmin;
        if (isnan(vmax) || vmax > F->vmax[g])
            F->vmax[g] = vmax;
    }
    for (g = 0; g < n_groups; g++)
        if (isnan(F->vs[g]))
            memcpy(&F->vs[g], &NUMPY_NAN, sizeof(double));
    F->n_groups = n_groups;
    W->base = base + n_groups;      /* empties the table for the next */
    return 0;
}

/* One relation-epoch. Arrival j is row rows[j] (row j when rows is
 * NULL: a raw relation's) at time t[j] with weight w[j], its partials
 * vs/vmin/vmax[j], which are NULL for a count-only stream. Its bucket
 * is its row's slice times nb plus its hash mod nb. Returns -1 when out
 * of memory. */
static int walk_relation(
    walk_t *W, int64_t r, int64_t start, int64_t n, int64_t stride,
    int64_t m, const int64_t *rows, const int64_t *t, const int64_t *w,
    const double *vs, const double *vmin, const double *vmax)
{
    const int64_t L = W->longest;
    const int64_t k = W->key_off[r + 1] - W->key_off[r];
    const uint64_t **keys = W->keys + W->key_off[r];
    const uint64_t nb = (uint64_t)W->n_buckets[r];
    const int64_t nb_all = W->n_buckets[r] * W->n_slices;
    const int64_t *shard = W->shard ? W->shard + start : NULL;
    const uint64_t state = mix64(W->salt[r]);
    const int64_t flush_base = n + W->depth[r] * stride;
    const int has_values = vs != NULL;
    const int feeds = (int)W->feeds[r];
    int64_t *slot_run = W->slot_run;
    run_t *runs = W->runs;
    order_t *order = W->order;
    int64_t *ev_row = NULL, *ev_t = NULL, *ev_w = NULL;
    double *ev_vs = NULL, *ev_vmin = NULL, *ev_vmax = NULL;
    int64_t n_runs = 0, n_ev = 0, arr_intra = 0, ev_intra = 0;
    int64_t i, j, j0, j1, b, q, c, offset, count;
    uint64_t blk_hash[INGEST_BLOCK];
    int64_t blk_row[INGEST_BLOCK];
    run_t *R;
    int dense;

    for (c = 0; c < k; c++)
        keys[c] = W->columns[W->key_col[W->key_off[r] + c]] + start;
    if (feeds) {
        ev_row = W->ev_i + W->depth[r] * 3 * L;
        ev_t = ev_row + L;
        ev_w = ev_t + L;
        if (has_values) {
            ev_vs = W->ev_f + W->depth[r] * 3 * L;
            ev_vmin = ev_vs + L;
            ev_vmax = ev_vmin + L;
        }
    }

#define EVICT(RUN, TIME) do {                                   \
        if (feeds) {                                            \
            ev_row[n_ev] = (RUN)->row;                          \
            ev_t[n_ev] = (TIME);                                \
            ev_w[n_ev] = (RUN)->w;                              \
            if (has_values) {                                   \
                ev_vs[n_ev] = (RUN)->vs;                        \
                ev_vmin[n_ev] = (RUN)->vmin;                    \
                ev_vmax[n_ev] = (RUN)->vmax;                    \
            }                                                   \
            n_ev++;                                             \
        }                                                       \
    } while (0)

    /* Hash a block of arrivals, then probe it: the hash chains of a
     * block are independent of each other and of the table. */
    for (j0 = 0; j0 < m; j0 = j1) {
        j1 = m - j0 < INGEST_BLOCK ? m : j0 + INGEST_BLOCK;
        for (j = j0; j < j1; j++) {
            const int64_t row = rows ? rows[j] : j;
            blk_row[j - j0] = row;
            blk_hash[j - j0] = chain64(keys, k, row, state);
        }
        for (j = j0; j < j1; j++) {
            const int64_t row = blk_row[j - j0];
            if (t[j] < n) arr_intra++;
            b = (int64_t)(blk_hash[j - j0] % nb);
            if (shard)
                b += shard[row] * (int64_t)nb;
            q = slot_run[b];
            /* The slot is live iff it names a run of this pass that
             * started in this bucket; anything else is a stale or
             * never-written slot. */
            if ((uint64_t)q < (uint64_t)n_runs && runs[q].bucket == b) {
                R = &runs[q];
                for (c = 0; c < k && keys[c][row] == keys[c][R->row]; c++)
                    ;
                if (c == k) {  /* probe hit: extend the resident run */
                    R->w += w[j];
                    if (has_values) {
                        R->vs += vs[j];
                        /* np.minimum/np.maximum: NaN always propagates */
                        if (isnan(vmin[j]) || vmin[j] < R->vmin)
                            R->vmin = vmin[j];
                        if (isnan(vmax[j]) || vmax[j] > R->vmax)
                            R->vmax = vmax[j];
                    }
                    continue;
                }
                /* collision: evict the resident at this arrival's time */
                if (t[j] < n) ev_intra++;
                EVICT(R, t[j]);
            }
            q = n_runs++;
            slot_run[b] = q;
            R = &runs[q];
            R->hash = blk_hash[j - j0];
            R->bucket = b;
            R->row = row;
            R->w = w[j];
            if (has_values) {
                R->vs = 0.0 + vs[j];  /* bincount seeds its sums at 0.0 */
                R->vmin = vmin[j];
                R->vmax = vmax[j];
            }
        }
    }

    /* End-of-epoch flush in bucket order: scan the table when it is
     * small against the runs, else sort the runs by (bucket, start). */
    dense = nb_all <= 8 * n_runs + 1024;
    if (dense) {
        for (b = 0; b < nb_all; b++) {
            q = slot_run[b];
            if ((uint64_t)q < (uint64_t)n_runs && runs[q].bucket == b)
                EVICT(&runs[q], flush_base + b);
        }
    } else {
        for (q = 0; q < n_runs; q++) {
            order[q].bucket = runs[q].bucket;
            order[q].run = q;
        }
        qsort(order, (size_t)n_runs, sizeof(order_t), by_bucket_then_run);
        for (i = 0; i < n_runs; i++) {
            if (i + 1 < n_runs && order[i + 1].bucket == order[i].bucket)
                continue;  /* not the bucket's last run: evicted earlier */
            EVICT(&runs[order[i].run], flush_base + order[i].bucket);
        }
    }
#undef EVICT

    /* The fold takes the runs in (bucket, start-time) order: the runs
     * of a bucket are numbered in start order, so the sort above, or a
     * counting sort by bucket. */
    if (W->emit[r]) {
        if (dense) {
            int64_t *bucket_pos = W->bucket_pos;
            for (b = 0; b < nb_all; b++)
                bucket_pos[b] = 0;
            for (q = 0; q < n_runs; q++)
                bucket_pos[runs[q].bucket]++;
            offset = 0;
            for (b = 0; b < nb_all; b++) {
                count = bucket_pos[b];
                bucket_pos[b] = offset;
                offset += count;
            }
            for (q = 0; q < n_runs; q++)
                order[bucket_pos[runs[q].bucket]++].run = q;
        }
        if (fold_runs(W, &W->folds[W->fold_slot[r]], keys, k, state,
                      n_runs, has_values) < 0)
            return -1;
    }

    W->n_runs[r] = n_runs;
    W->stats[4 * r + 0] += arr_intra;
    W->stats[4 * r + 1] += m - arr_intra;
    W->stats[4 * r + 2] += ev_intra;
    W->stats[4 * r + 3] += n_runs - ev_intra;
    return 0;
}

/* One epoch through the whole forest: rows start + j, j < n, of the
 * stream arrive at the raw relations at times t with weights w; every
 * other relation is fed its parent's evictions in eviction order.
 * Returns 0, or -1 when a fold ran out of memory. */
int64_t repro_walk(walk_t *W, int64_t start, const int64_t *t,
                   const int64_t *w, int64_t n)
{
    const int64_t L = W->longest;
    const int64_t stride = n + W->max_buckets + 2;
    const double *values = W->values ? W->values + start : NULL;
    int64_t r, p, d;
    int failed;

    for (r = 0; r < W->n_rel; r++)
        if (W->emit[r])
            W->folds[W->fold_slot[r]].n_groups = 0;
    for (r = 0; r < W->n_rel; r++) {
        W->n_runs[r] = 0;
        p = W->parent[r];
        if (p < 0) {
            failed = n > 0 && walk_relation(W, r, start, n, stride, n, NULL,
                                            t, w, values, values, values);
        } else if (W->n_runs[p] == 0) {
            continue;
        } else {
            d = W->depth[p];
            failed = walk_relation(
                W, r, start, n, stride, W->n_runs[p],
                W->ev_i + d * 3 * L, W->ev_i + d * 3 * L + L,
                W->ev_i + d * 3 * L + 2 * L,
                values ? W->ev_f + d * 3 * L : NULL,
                values ? W->ev_f + d * 3 * L + L : NULL,
                values ? W->ev_f + d * 3 * L + 2 * L : NULL);
        }
        if (failed)
            return -1;
    }
    return 0;
}

/* Release the folds' group table. */
void repro_walk_free(walk_t *W)
{
    free(W->table);
    W->table = NULL;
    W->cap = W->base = 0;
}
"""


class _FoldStruct(ctypes.Structure):
    """``fold_t``: every pointer a ``void *`` on this side."""

    _fields_ = [("n_seed", ctypes.c_int64), ("n_groups", ctypes.c_int64)] \
        + [(name, ctypes.c_void_p) for name in
           ("seed", "rep", "w", "vs", "vmin", "vmax")]


class _WalkStruct(ctypes.Structure):
    """``walk_t``: every pointer a ``void *`` on this side."""

    _fields_ = [(name, ctypes.c_int64) for name in
                ("n_rel", "longest", "max_buckets", "n_slices")] + \
        [(name, ctypes.c_void_p) for name in
         ("parent", "key_off", "key_col", "salt", "n_buckets", "depth",
          "emit", "feeds", "fold_slot", "columns", "values", "shard", "keys",
          "slot_run", "bucket_pos", "runs", "order", "ev_i", "ev_f",
          "folds", "n_runs", "stats", "table")] + \
        [("cap", ctypes.c_int64), ("base", ctypes.c_int64)]


_I64P = ctypes.POINTER(ctypes.c_int64)

_SIGNATURES = {
    "repro_walk": (ctypes.c_int64, [
        ctypes.POINTER(_WalkStruct), ctypes.c_int64, _I64P, _I64P,
        ctypes.c_int64,
    ]),
    "repro_walk_free": (None, [ctypes.POINTER(_WalkStruct)]),
}

#: 8-byte words of one ``run_t`` / ``order_t``.
_RUN_WORDS, _ORDER_WORDS = 7, 2


def _kernel() -> ctypes.CDLL | None:
    return load_kernel(KERNEL_NAME, _SOURCE, _SIGNATURES)


def kernel_available() -> bool:
    """Whether the fused ingest kernel could be compiled and loaded."""
    return _kernel() is not None


class Fold(NamedTuple):
    """One emitting relation's epoch, folded by :func:`ingest_runs`: one
    row per group in first-appearance order, the seed's groups first."""

    #: The relation's walk index.
    relation: int
    #: The new groups' representative rows, relative to the call's
    #: ``start`` (a view of the walk's scratch, valid until its next call).
    reps: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    #: The runs (evicted partials) the walk folded in.
    runs: int


#: A state a fold extends: its key columns (in the relation's key order)
#: and its counts, sums, minima and maxima, one row per group.
Seed = tuple[Sequence[np.ndarray], np.ndarray, np.ndarray, np.ndarray,
             np.ndarray]


class Walk:
    """A configuration's forest and the kernel's scratch, for
    :func:`ingest_runs`; :meth:`bind` points it at a stream.

    Relations are numbered in topological order (a parent before its
    children, each subtree contiguous, as ``Configuration.order`` walks
    them). ``parent[r]`` is relation ``r``'s parent's number (negative
    for a raw relation), ``keys[r]`` the indices of its attributes among
    the bound stream's columns, and ``emit[r]`` whether the walk folds
    its runs; ``values`` says whether the streams carry a value column.
    Each relation's table is ``slices`` slices of ``buckets[r]`` buckets
    side by side: a row lands in the slice its stream's shard id names
    (:meth:`bind`), slice 0 when the stream has none.
    Scratch for epochs of up to ``longest`` records is allocated here,
    once, and serves every stream the walk is bound to; the folds' group
    table is allocated by the kernel, as large as the largest fold needs,
    and released with the walk. :attr:`stats` holds the per-relation
    counters ``(arrivals_intra, arrivals_flush, evictions_intra,
    evictions_flush)`` summed over every call since it was last zeroed.
    """

    def __init__(self, parent: Sequence[int],
                 keys: Sequence[Sequence[int]], salts: Sequence[int],
                 buckets: Sequence[int], emit: Sequence[bool],
                 values: bool, longest: int, slices: int = 1):
        n_rel = len(parent)
        if any(len(seq) != n_rel for seq in (keys, salts, buckets, emit)):
            raise ValueError("every per-relation sequence needs one entry "
                             "per relation")
        parent = [int(p) for p in parent]
        buckets = [int(b) for b in buckets]
        if min(buckets, default=1) < 1:
            raise ValueError("every table needs >= 1 bucket")
        if any(not k or min(k) < 0 for k in keys):
            raise ValueError("every relation needs >= 1 key column")
        depth = [0] * n_rel
        feeds = [0] * n_rel
        # One eviction buffer per depth is enough when each subtree is
        # contiguous: a relation's parent is still on the path from its
        # root when the relation's turn comes.
        path: list[int] = []
        for r, p in enumerate(parent):
            if p >= 0:
                while path and path[-1] != p:
                    path.pop()
                if not path:
                    raise ValueError("relations must come in depth-first "
                                     "order, parents first")
                depth[r] = depth[p] + 1
                feeds[p] = 1
            else:
                path.clear()
            path.append(r)
        self.has_values = bool(values)
        self.longest = L = max(int(longest), 1)
        self.emit = [bool(e) for e in emit]
        self.fold_slot = fold_slot = [-1] * n_rel
        n_emit = 0
        for r, emits in enumerate(self.emit):
            if emits:
                fold_slot[r], n_emit = n_emit, n_emit + 1
        levels = max((depth[r] + 1 for r in range(n_rel) if feeds[r]),
                     default=0)
        key_off = np.zeros(n_rel + 1, dtype=np.int64)
        key_off[1:] = np.cumsum([len(k) for k in keys])
        self.n_columns = max((max(k) + 1 for k in keys), default=0)
        self.slices = max(int(slices), 1)
        max_b = max(buckets, default=1) * self.slices
        fl = levels if values else 0
        i64 = np.int64
        # Kept alive here for as long as the kernel may read them.
        self._arrays = arrays = {
            "parent": np.array(parent, dtype=i64), "key_off": key_off,
            "key_col": np.array([c for k in keys for c in k], dtype=i64),
            "salt": np.array([s & 0xFFFFFFFFFFFFFFFF for s in salts],
                             dtype=np.uint64),
            "n_buckets": np.array(buckets, dtype=i64),
            "depth": np.array(depth, dtype=i64),
            "emit": np.array(self.emit, dtype=i64),
            "feeds": np.array(feeds, dtype=i64),
            "fold_slot": np.array(fold_slot, dtype=i64),
            "columns": np.zeros(self.n_columns, dtype=np.uintp),
            "keys": np.zeros(int(key_off[-1]), dtype=np.uintp),
            # scratch the kernel writes before it reads
            "slot_run": np.empty(max_b, dtype=i64),
            "bucket_pos": np.empty(max_b, dtype=i64),
            "runs": np.empty((L, _RUN_WORDS), dtype=i64),
            "order": np.empty((L, _ORDER_WORDS), dtype=i64),
            "ev_i": np.empty((levels, 3, L), dtype=i64),
            "ev_f": np.empty((fl, 3, L), dtype=np.float64),
            "n_runs": np.zeros(n_rel, dtype=i64),
            "stats": np.zeros((n_rel, 4), dtype=i64),
        }
        self._folds = (_FoldStruct * n_emit)()
        self._fold_room = 0
        self.reserve_folds(L)
        struct = self._struct = _WalkStruct(
            n_rel=n_rel, longest=L, max_buckets=max_b, n_slices=self.slices)
        for name, array in arrays.items():
            setattr(struct, name, array.ctypes.data)
        struct.folds = ctypes.addressof(self._folds)
        self.n_runs, self.stats = arrays["n_runs"], arrays["stats"]
        self._column_ptrs = arrays["columns"]
        self._ref = ctypes.byref(struct)
        lib = _kernel()
        if lib is not None:
            weakref.finalize(self, lib.repro_walk_free, self._ref)
        self.rows = 0
        self.columns: list[np.ndarray] = []
        self.values: np.ndarray | None = None
        self.shards: np.ndarray | None = None

    def reserve_folds(self, room: int) -> None:
        """Give every fold output room for ``room`` groups, a seed's
        groups first: one array each of reps, counts, sums, minima and
        maxima. The outputs are the walk's own, kept between calls and
        grown to what a call needs (:func:`ingest_runs` grows them when
        it must), so a seeded fold allocates nothing per call; a caller
        that walks on other threads reserves on its own first, since an
        array a thread allocates stays in that thread's malloc arena.
        One array per field keeps every block as long as the epoch plus
        the seed: one block of all of them, once freed, would raise
        glibc's mmap threshold past the size of a stream column, and the
        next stream's columns would stay resident in the heap."""
        if self._fold_room >= room:
            return
        self._fold_room = room
        self._fold_out = []
        for fold in self._folds:
            out = (np.empty(room, dtype=np.int64),
                   np.empty(room, dtype=np.int64),
                   *(np.empty(room, dtype=np.float64) for _ in range(3)))
            (fold.rep, fold.w, fold.vs, fold.vmin,
             fold.vmax) = (a.ctypes.data for a in out)
            self._fold_out.append(out)

    def bind(self, columns: Sequence[np.ndarray],
             values: np.ndarray | None,
             shards: np.ndarray | None = None) -> None:
        """Point the walk at a stream: its integer attribute columns (the
        ones ``keys`` index), its value column, or None, and its rows'
        shard ids (each in ``[0, slices)``), or None for slice 0."""
        if len(columns) < self.n_columns or \
                (values is not None) != self.has_values:
            raise ValueError("the stream does not have the walk's columns")
        if shards is not None:
            shards = np.ascontiguousarray(shards, dtype=np.int64)
            # one pass: a negative id reads as a huge unsigned one
            if shards.ndim != 1 or (shards.size and shards.view(
                    np.uint64).max() >= self.slices):
                raise ValueError(f"shard ids must be 1-D and lie in "
                                 f"[0, {self.slices})")
        # The kernel reads the stream through base pointers: every
        # column must be one contiguous int64 (hence uint64) run.
        self.columns = [np.ascontiguousarray(col, dtype=np.int64)
                        .view(np.uint64) for col in columns]
        self.values = (None if values is None else
                       np.ascontiguousarray(values, dtype=np.float64))
        self.shards = shards
        self._column_ptrs[:] = [
            col.ctypes.data for col in self.columns[:self.n_columns]]
        self._struct.values = (None if self.values is None
                               else self.values.ctypes.data)
        self._struct.shard = None if shards is None else shards.ctypes.data
        lengths = [col.shape[0] for col in self.columns]
        lengths += [a.shape[0] for a in (self.values, shards)
                    if a is not None]
        self.rows = min(lengths, default=0)


def _seed_keys(seed: Seed, k: int):
    """A seed's group count and its ``k`` key columns as the uint64 bits
    the kernel compares, with their addresses; a seed of another shape
    is refused."""
    cols, counts = seed[0], seed[1]
    g = int(counts.shape[0])
    if len(cols) != k or any(np.shape(col) != (g,) for col in cols):
        raise ValueError(f"a seed needs {k} key columns of {g} rows")
    if any(np.asarray(col).dtype.kind not in "iub" for col in cols):
        raise ValueError("a seed's key columns must be integers, as the "
                         "stream's are")
    keys = [np.ascontiguousarray(col, dtype=np.int64).view(np.uint64)
            for col in cols]
    addresses = np.array([col.ctypes.data for col in keys], dtype=np.uintp)
    return g, keys, addresses


def ingest_runs(walk: Walk, start: int, t: np.ndarray, w: np.ndarray,
                seeds: Mapping[int, Seed] | None = None) -> list[Fold]:
    """Run one epoch through every relation of ``walk`` in one call.

    Rows ``[start, start + len(t))`` of the walk's stream arrive at the
    raw relations at times ``t`` (distinct and ascending; ``[0, n)`` in
    every runtime) with weights ``w`` (all 1 in every runtime), each in
    its shard's slice of every table. The epoch is ``n = len(t)`` long,
    so the flush windows start at ``n``. Every other relation is fed its
    parent's evictions.

    Every emitting relation's runs are folded in the walk, in the numpy
    path's (bucket, start-time) order; ``seeds[r]``, when given, is the
    state relation ``r``'s fold extends (its groups first). Returns one
    :class:`Fold` per emitting relation with at least one run, in walk
    order; with a count-only stream the sums are 0.0 and the minima and
    maxima ``+inf``/``-inf``. The counters accumulate in ``walk.stats``.
    Call only when :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    n = int(t.shape[0])
    if n > walk.longest or not 0 <= start <= start + n <= walk.rows:
        raise ValueError(f"epoch rows [{start}, {start + n}) outside the "
                         f"walk's stream or scratch")
    if w.shape != t.shape or t.dtype != np.int64 or w.dtype != np.int64 \
            or not (t.flags.c_contiguous and w.flags.c_contiguous):
        raise ValueError("t and w must be equal-length contiguous int64")
    # Every seed is checked before the walk's outputs take any of them.
    seeded = {}
    key_off = walk._arrays["key_off"]
    for r, seed in (seeds or {}).items():
        if not 0 <= r < len(walk.emit) or not walk.emit[r]:
            raise ValueError(f"relation {r} does not emit: nothing to seed")
        seeded[r] = _seed_keys(seed, int(key_off[r + 1] - key_off[r]))
    walk.reserve_folds(n + max((g for g, _, _ in seeded.values()),
                                default=0))
    try:
        for r, (g, _, addresses) in seeded.items():
            slot = walk.fold_slot[r]
            _, counts, sums, mins, maxs = seeds[r]
            _, out_w, out_vs, out_vmin, out_vmax = walk._fold_out[slot]
            out_w[:g] = counts
            # A state row enters the HFTA's fold as 0.0 + its sum.
            np.add(sums, 0.0, out=out_vs[:g])
            out_vmin[:g] = mins
            out_vmax[:g] = maxs
            fold = walk._folds[slot]
            fold.n_seed, fold.seed = g, addresses.ctypes.data
        status = lib.repro_walk(walk._ref, start, t.ctypes.data_as(_I64P),
                                w.ctypes.data_as(_I64P), n)
    finally:
        for r in seeded:
            fold = walk._folds[walk.fold_slot[r]]
            fold.n_seed, fold.seed = 0, None
    if status < 0:
        raise MemoryError("no memory for the ingest walk's group table")
    out = []
    for r, slot in enumerate(walk.fold_slot):
        if slot < 0:
            continue
        groups = walk._folds[slot].n_groups
        if not groups:
            continue
        n_seed = seeded[r][0] if r in seeded else 0
        rep, *aggregates = walk._fold_out[slot]
        out.append(Fold(r, rep[n_seed:groups],
                        *(a[:groups].copy() for a in aggregates),
                        int(walk.n_runs[r])))
    return out
