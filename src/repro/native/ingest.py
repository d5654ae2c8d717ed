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
stream's rows or, given a row index, the rows it names: a shard is
walked in place, its attributes and values read through the index.

*The feed.* A relation appends every eviction, in the order it happens,
to its eviction list: the collisions in arrival-time order, then the
flush in bucket order. Every eviction time is later than the one before,
so the list read in order *is* each child's time-ordered arrival stream —
no sort between parent and child. An eviction carries the raw row of its
run's representative, and children hash and compare the raw attribute
columns through that row: equal on the parent's attributes means equal
on the child's, so nothing is projected or copied.

*Emission.* A relation whose emit flag is set (today the forest's
leaves; a relation may emit and feed children) hands its runs out in
(bucket, start-time) order, the numpy path's emission order.

*The bound.* A relation-epoch costs its arrivals and runs, never its
table size: a slot is valid only when it names a run of the current pass
that started in that bucket (so the slot array is never initialised or
reset), and the flush and the emission order either scan the buckets or
sort the runs by bucket, whichever the table size against the run count
makes cheaper.

Bit-identity contract with the numpy walk (pinned by
``tests/gigascope/test_differential.py`` and
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
  min/max reproduce ``np.minimum``/``np.maximum`` NaN-propagation. With
  contraction and fast-math off (:data:`repro.native.build.DEFAULT_FLAGS`)
  C doubles and numpy float64 round identically.
* *Order and counters.* A child sees its parent's evictions in time
  order, the order the numpy walk's ``(bucket, time)`` sort keeps within
  each bucket; emitted runs come out in that ``lexsort((time, bucket))``
  order; the intra/flush arrival and eviction counts are the numpy
  walk's, event for event.

The kernel is best-effort: no compiler or ``REPRO_NO_CKERNEL=1`` leaves
the numpy walk, with identical results.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro.native.build import HASH_CHAIN_SOURCE, load_kernel

__all__ = ["KERNEL_NAME", "Walk", "ingest_runs", "kernel_available"]

KERNEL_NAME = "engine_ingest"

_SOURCE = HASH_CHAIN_SOURCE + r"""
#include <stddef.h>
#include <stdlib.h>
#include <math.h>

/* Arrivals hashed ahead of each probe loop. */
#define INGEST_BLOCK 64

/* A run of equal keys in one bucket: its representative's raw row and
 * its partial aggregates. */
typedef struct {
    int64_t bucket, row, w;
    double vs, vmin, vmax;
} run_t;

typedef struct { int64_t bucket, run; } order_t;

/* One configuration bound to one stream; relations in topological
 * order. Scratch is sized for the longest epoch (`longest` arrivals per
 * relation) and the largest table. */
typedef struct {
    int64_t n_rel, longest, max_buckets;
    int64_t n_stream;           /* rows of the bound stream */
    const int64_t *parent;      /* walk index of the parent, -1 = raw */
    const int64_t *key_off;     /* [n_rel + 1] into key_col */
    const int64_t *key_col;     /* stream column of each key column */
    const uint64_t *salt;
    const int64_t *n_buckets, *depth, *emit, *feeds;
    const int64_t *out_slot;    /* emission region of an emitting relation */
    const uint64_t *const *columns;  /* the stream's attribute columns */
    const double *values;       /* the stream's value column, or NULL */
    const uint64_t **keys;      /* [key_off[n_rel]] this epoch's columns */
    int64_t *slot_run;          /* [max_buckets], validated, never reset */
    int64_t *bucket_pos;        /* [max_buckets] */
    run_t *runs;                /* [longest] */
    order_t *order;             /* [longest] */
    int64_t *ev_i;              /* [levels][3][longest] row, time, weight */
    double *ev_f;               /* [levels][3][longest] sum, min, max */
    int64_t *out_i;             /* [emitting][2][longest] row, weight */
    double *out_f;              /* [emitting][3][longest] sum, min, max */
    int64_t *n_runs;            /* [n_rel] this epoch's runs = evictions */
    int64_t *stats;             /* [n_rel][4] accumulated counters */
} walk_t;

static int by_bucket_then_run(const void *a, const void *b) {
    const order_t *x = (const order_t *)a, *y = (const order_t *)b;
    if (x->bucket != y->bucket)
        return x->bucket < y->bucket ? -1 : 1;
    return x->run < y->run ? -1 : (x->run > y->run);
}

/* One relation-epoch. Arrival j is raw row rows[j] (row j when rows is
 * NULL) at time t[j] with weight w[j]; vs/vmin/vmax are NULL for a
 * count-only stream. A raw relation reads an arrival's value at its row,
 * a child at j (its parent's evictions). */
static void walk_relation(
    walk_t *W, int64_t r, int64_t start, int64_t n, int64_t stride,
    int64_t m, const int64_t *rows, const int64_t *t, const int64_t *w,
    const double *vs, const double *vmin, const double *vmax)
{
    const int64_t L = W->longest;
    const int64_t k = W->key_off[r + 1] - W->key_off[r];
    const uint64_t **keys = W->keys + W->key_off[r];
    const uint64_t nb = (uint64_t)W->n_buckets[r];
    const uint64_t state = mix64(W->salt[r]);
    const int64_t flush_base = n + W->depth[r] * stride;
    const int has_values = vs != NULL;
    const int raw = W->parent[r] < 0;
    const int feeds = (int)W->feeds[r];
    int64_t *slot_run = W->slot_run;
    run_t *runs = W->runs;
    int64_t *ev_row = NULL, *ev_t = NULL, *ev_w = NULL;
    double *ev_vs = NULL, *ev_vmin = NULL, *ev_vmax = NULL;
    int64_t n_runs = 0, n_ev = 0, arr_intra = 0, ev_intra = 0;
    int64_t i, j, j0, j1, b, q, c, pos, offset, count;
    int64_t blk_bucket[INGEST_BLOCK], blk_row[INGEST_BLOCK];
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
            blk_bucket[j - j0] = (int64_t)(chain64(keys, k, row, state) % nb);
        }
        for (j = j0; j < j1; j++) {
            const int64_t row = blk_row[j - j0];
            const int64_t v = raw ? row : j;
            if (t[j] < n) arr_intra++;
            b = blk_bucket[j - j0];
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
                        R->vs += vs[v];
                        /* np.minimum/np.maximum: NaN always propagates */
                        if (isnan(vmin[v]) || vmin[v] < R->vmin)
                            R->vmin = vmin[v];
                        if (isnan(vmax[v]) || vmax[v] > R->vmax)
                            R->vmax = vmax[v];
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
            R->bucket = b;
            R->row = row;
            R->w = w[j];
            if (has_values) {
                R->vs = 0.0 + vs[v];  /* bincount seeds its sums at 0.0 */
                R->vmin = vmin[v];
                R->vmax = vmax[v];
            }
        }
    }

    /* End-of-epoch flush in bucket order: scan the table when it is
     * small against the runs, else sort the runs by (bucket, start). */
    dense = nb <= 8 * (uint64_t)n_runs + 1024;
    if (dense) {
        for (b = 0; b < (int64_t)nb; b++) {
            q = slot_run[b];
            if ((uint64_t)q < (uint64_t)n_runs && runs[q].bucket == b)
                EVICT(&runs[q], flush_base + b);
        }
    } else {
        for (q = 0; q < n_runs; q++) {
            W->order[q].bucket = runs[q].bucket;
            W->order[q].run = q;
        }
        qsort(W->order, (size_t)n_runs, sizeof(order_t), by_bucket_then_run);
        for (i = 0; i < n_runs; i++) {
            if (i + 1 < n_runs && W->order[i + 1].bucket == W->order[i].bucket)
                continue;  /* not the bucket's last run: evicted earlier */
            EVICT(&runs[W->order[i].run], flush_base + W->order[i].bucket);
        }
    }
#undef EVICT

    /* Emission in (bucket, start-time) order: the runs of a bucket are
     * numbered in start order, so a stable sort by bucket. */
    if (W->emit[r]) {
        int64_t *out_row = W->out_i + W->out_slot[r] * 2 * L;
        int64_t *out_w = out_row + L;
        double *out_vs = W->out_f + W->out_slot[r] * 3 * L;
        double *out_vmin = out_vs + L, *out_vmax = out_vmin + L;
        int64_t *bucket_pos = W->bucket_pos;
        if (dense) {
            for (b = 0; b < (int64_t)nb; b++)
                bucket_pos[b] = 0;
            for (q = 0; q < n_runs; q++)
                bucket_pos[runs[q].bucket]++;
            offset = 0;
            for (b = 0; b < (int64_t)nb; b++) {
                count = bucket_pos[b];
                bucket_pos[b] = offset;
                offset += count;
            }
        }
        for (i = 0; i < n_runs; i++) {
            if (dense) {
                q = i;
                pos = bucket_pos[runs[q].bucket]++;
            } else {
                q = W->order[i].run;
                pos = i;
            }
            out_row[pos] = runs[q].row;
            out_w[pos] = runs[q].w;
            if (has_values) {
                out_vs[pos] = runs[q].vs;
                out_vmin[pos] = runs[q].vmin;
                out_vmax[pos] = runs[q].vmax;
            }
        }
    }

    W->n_runs[r] = n_runs;
    W->stats[4 * r + 0] += arr_intra;
    W->stats[4 * r + 1] += m - arr_intra;
    W->stats[4 * r + 2] += ev_intra;
    W->stats[4 * r + 3] += n_runs - ev_intra;
}

/* One epoch through the whole forest: n rows of the stream arrive at
 * the raw relations at times t with weights w, arrival j being row
 * start + j, or start + rows[j] when rows is not NULL; every other
 * relation is fed its parent's evictions in eviction order. Returns -1,
 * or the first j whose start + rows[j] lies outside the stream, in
 * which case nothing has been walked. */
int64_t repro_walk(walk_t *W, int64_t start, const int64_t *rows,
                   const int64_t *t, const int64_t *w, int64_t n)
{
    const int64_t L = W->longest;
    const int64_t stride = n + W->max_buckets + 2;
    const double *values = W->values ? W->values + start : NULL;
    int64_t r, p, d, j;

    if (rows)
        for (j = 0; j < n; j++)
            if ((uint64_t)rows[j] >= (uint64_t)(W->n_stream - start))
                return j;

    for (r = 0; r < W->n_rel; r++) {
        W->n_runs[r] = 0;
        p = W->parent[r];
        if (p < 0) {
            if (n > 0)
                walk_relation(W, r, start, n, stride, n, rows, t, w,
                              values, values, values);
            continue;
        }
        if (W->n_runs[p] == 0)
            continue;
        d = W->depth[p];
        walk_relation(
            W, r, start, n, stride, W->n_runs[p],
            W->ev_i + d * 3 * L, W->ev_i + d * 3 * L + L,
            W->ev_i + d * 3 * L + 2 * L,
            values ? W->ev_f + d * 3 * L : NULL,
            values ? W->ev_f + d * 3 * L + L : NULL,
            values ? W->ev_f + d * 3 * L + 2 * L : NULL);
    }
    return -1;
}
"""


class _WalkStruct(ctypes.Structure):
    """``walk_t``: every pointer a ``void *`` on this side."""

    _fields_ = [(name, ctypes.c_int64) for name in
                ("n_rel", "longest", "max_buckets", "n_stream")] + \
        [(name, ctypes.c_void_p) for name in
         ("parent", "key_off", "key_col", "salt", "n_buckets", "depth",
          "emit", "feeds", "out_slot", "columns", "values", "keys",
          "slot_run", "bucket_pos", "runs", "order", "ev_i", "ev_f",
          "out_i", "out_f", "n_runs", "stats")]


_I64P = ctypes.POINTER(ctypes.c_int64)

_SIGNATURES = {"repro_walk": (ctypes.c_int64, [
    ctypes.POINTER(_WalkStruct), ctypes.c_int64, _I64P, _I64P, _I64P,
    ctypes.c_int64,
])}

#: 8-byte words of one ``run_t`` / ``order_t``.
_RUN_WORDS, _ORDER_WORDS = 6, 2


def _kernel() -> ctypes.CDLL | None:
    return load_kernel(KERNEL_NAME, _SOURCE, _SIGNATURES)


def kernel_available() -> bool:
    """Whether the fused ingest kernel could be compiled and loaded."""
    return _kernel() is not None


class Walk:
    """A configuration's forest and the kernel's scratch, for
    :func:`ingest_runs`; :meth:`bind` points it at a stream.

    Relations are numbered in topological order (a parent before its
    children, each subtree contiguous, as ``Configuration.order`` walks
    them). ``parent[r]`` is relation ``r``'s parent's number (negative
    for a raw relation), ``keys[r]`` the indices of its attributes among
    the bound stream's columns, and ``emit[r]`` whether it hands its runs
    out; ``values`` says whether the streams carry a value column.
    Scratch for epochs of up to ``longest`` records is allocated here,
    once, and serves every stream the walk is bound to. :attr:`stats`
    holds the per-relation counters ``(arrivals_intra, arrivals_flush,
    evictions_intra, evictions_flush)`` summed over every call since it
    was last zeroed.
    """

    def __init__(self, parent: Sequence[int],
                 keys: Sequence[Sequence[int]], salts: Sequence[int],
                 buckets: Sequence[int], emit: Sequence[bool],
                 values: bool, longest: int):
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
        self.out_slot = out_slot = [-1] * n_rel
        n_emit = 0
        for r, emits in enumerate(self.emit):
            if emits:
                out_slot[r], n_emit = n_emit, n_emit + 1
        levels = max((depth[r] + 1 for r in range(n_rel) if feeds[r]),
                     default=0)
        key_off = np.zeros(n_rel + 1, dtype=np.int64)
        key_off[1:] = np.cumsum([len(k) for k in keys])
        self.n_columns = max((max(k) + 1 for k in keys), default=0)
        max_b = max(buckets, default=1)
        fl = levels if values else 0
        fe = n_emit if values else 0
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
            "out_slot": np.array(out_slot, dtype=i64),
            "columns": np.zeros(self.n_columns, dtype=np.uintp),
            "keys": np.zeros(int(key_off[-1]), dtype=np.uintp),
            # scratch the kernel writes before it reads
            "slot_run": np.empty(max_b, dtype=i64),
            "bucket_pos": np.empty(max_b, dtype=i64),
            "runs": np.empty((L, _RUN_WORDS), dtype=i64),
            "order": np.empty((L, _ORDER_WORDS), dtype=i64),
            "ev_i": np.empty((levels, 3, L), dtype=i64),
            "ev_f": np.empty((fl, 3, L), dtype=np.float64),
            "out_i": np.empty((n_emit, 2, L), dtype=i64),
            "out_f": np.empty((fe, 3, L), dtype=np.float64),
            "n_runs": np.zeros(n_rel, dtype=i64),
            "stats": np.zeros((n_rel, 4), dtype=i64),
        }
        struct = self._struct = _WalkStruct(
            n_rel=n_rel, longest=L, max_buckets=max_b)
        for name, array in arrays.items():
            setattr(struct, name, array.ctypes.data)
        self.n_runs, self.stats = arrays["n_runs"], arrays["stats"]
        self._column_ptrs = arrays["columns"]
        self._out_i, self._out_f = arrays["out_i"], arrays["out_f"]
        self._ref = ctypes.byref(struct)
        self.rows = 0
        self.columns: list[np.ndarray] = []
        self.values: np.ndarray | None = None

    def bind(self, columns: Sequence[np.ndarray],
             values: np.ndarray | None) -> None:
        """Point the walk at a stream: its integer attribute columns (the
        ones ``keys`` index) and its value column, or None."""
        if len(columns) < self.n_columns or \
                (values is not None) != self.has_values:
            raise ValueError("the stream does not have the walk's columns")
        # The kernel reads the stream through base pointers: every
        # column must be one contiguous int64 (hence uint64) run.
        self.columns = [np.ascontiguousarray(col, dtype=np.int64)
                        .view(np.uint64) for col in columns]
        self.values = (None if values is None else
                       np.ascontiguousarray(values, dtype=np.float64))
        self._column_ptrs[:] = [
            col.ctypes.data for col in self.columns[:self.n_columns]]
        self._struct.values = (None if self.values is None
                               else self.values.ctypes.data)
        lengths = [col.shape[0] for col in self.columns]
        if self.values is not None:
            lengths.append(self.values.shape[0])
        self.rows = self._struct.n_stream = min(lengths, default=0)


def ingest_runs(walk: Walk, start: int, t: np.ndarray, w: np.ndarray,
                rows: np.ndarray | None = None):
    """Run one epoch through every relation of ``walk`` in one call.

    Rows ``[start, start + len(t))`` of the walk's stream arrive at the
    raw relations at times ``t`` (distinct and ascending; ``[0, n)`` in
    every runtime) with weights ``w`` (all 1 in every runtime). With
    ``rows`` (contiguous int64, one per arrival, each in ``[0, walk.rows
    - start)``, which the kernel checks before it walks) arrival ``j`` is
    row ``start + rows[j]`` instead, its attributes and value read
    through that index. The epoch is ``n = len(t)`` long, so the flush
    windows start at ``n``. Every other relation is fed its parent's
    evictions. Returns one ``(r, reps, run_w, run_vs, run_vmin,
    run_vmax)`` per emitting relation ``r`` with at least one run, in
    walk order; its runs are in the numpy path's (bucket, start-time)
    order and ``reps`` are the representatives' rows relative to
    ``start`` (a view of the walk's scratch, valid until the next call).
    The value arrays are None for a count-only stream. The counters
    accumulate in ``walk.stats``. Call only when
    :func:`kernel_available`.
    """
    lib = _kernel()
    assert lib is not None
    n = int(t.shape[0])
    if n > walk.longest or not 0 <= start <= walk.rows or \
            (rows is None and start + n > walk.rows):
        raise ValueError(f"epoch rows [{start}, {start + n}) outside the "
                         f"walk's stream or scratch")
    if w.shape != t.shape or t.dtype != np.int64 or w.dtype != np.int64 \
            or not (t.flags.c_contiguous and w.flags.c_contiguous):
        raise ValueError("t and w must be equal-length contiguous int64")
    raw = None
    if rows is not None:
        if rows.shape != t.shape or rows.dtype != np.int64 \
                or not rows.flags.c_contiguous:
            raise ValueError("rows must be contiguous int64, one per "
                             "arrival")
        raw = rows.ctypes.data_as(_I64P)
    bad = lib.repro_walk(walk._ref, start, raw, t.ctypes.data_as(_I64P),
                         w.ctypes.data_as(_I64P), n)
    if bad >= 0:
        raise ValueError(f"rows[{bad}] = {rows[bad]} outside [0, "
                         f"{walk.rows - start}): the walk's stream past "
                         f"row {start}")
    out = []
    n_runs = walk.n_runs
    for r, emits in enumerate(walk.emit):
        if not emits or not n_runs[r]:
            continue
        runs = int(n_runs[r])
        slot = int(walk.out_slot[r])
        reps, run_w = walk._out_i[slot, :, :runs]
        if not walk.has_values:
            vs = vmin = vmax = None
        else:
            vs, vmin, vmax = walk._out_f[slot, :, :runs].copy()
        out.append((r, reps, run_w.copy(), vs, vmin, vmax))
    return out
