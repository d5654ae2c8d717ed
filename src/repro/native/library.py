"""The one native library: one C source, one build, one load.

Every C loop of the repo is built from the same two parts: the salted
splitmix64 chain of :func:`repro.gigascope.hashing.combine_columns` and
an open-addressing group table whose probe, ``find_slot``, decides a
group by equality on the raw key columns (the hash only places a row,
so a hash collision costs probes, never correctness) — the design
*Global Hash Tables Strike Back!* argues for in the partial-aggregate
regime. :data:`SOURCE` holds both, the four things built on them, one
check of shard ids and the pool that runs them on other cores:

* ``repro_walk`` (with ``repro_walk_reserve``, ``repro_walk_take`` and
  ``repro_walk_free``):
  the engine's LFTA walk of the whole forest, one call per epoch, and
  the fold of every emitting relation's runs in the walk
  (:mod:`repro.native.ingest`): a walk is one thread's scratch over a
  ``forest_t``, the configuration and the stream its walks share; one
  epoch may walk on lanes, walks of one forest that each walk the
  relations they hold (``repro_walk_wait``);
* ``repro_pool_submit`` and ``repro_pool_wait``: the library's pool of
  persistent helper threads, which runs a job, a walk, a range of the
  partition hash or a helper's share of a call's epochs, off the
  caller's thread (:func:`job`; Linux only, as its waits are futexes);
  a call over several epochs is one ``epochs_t`` that the helpers and
  the caller (``repro_epochs_next``) pull epochs from;
* ``repro_group_stats``: the planner's exact group and flow counts of
  one relation in one pass (:func:`repro.native.partition.group_stats`);
* ``repro_partition_hash``: the sharded runtime's record-to-shard hash
  (:func:`repro.native.partition.hash_shards`), over a range of rows
  per call, so that ranges can hash on threads of their own; its
  remainder is ``fastmod``, a multiply by a reciprocal computed once per
  call, exact for every 64-bit hash and shard count, in place of a
  divide;
* ``repro_shard_counts``: one pass that checks every shard id of a
  record-to-shard assignment, any partitioner's, and counts each
  shard's records (:func:`repro.native.partition.shard_counts`);
* ``repro_kmv_observe``: one batch into every relation's KMV sketch,
  one call per batch
  (:meth:`repro.core.sketches.StreamStatisticsCollector.observe`); it
  hashes with the chain alone, with no group table.

The source is compiled once per process at first use, through
:func:`repro.native.build.load_kernel`, as the library named
:data:`NAME`. It is the only body of the four (a C compiler is an
install requirement, like numpy): :func:`library` hands it to every
caller (``simulate``, ``HashPartitioner.shard_ids``,
``measure_statistics``, ``StreamStatisticsCollector.observe``), and a
library that did not build raises
:class:`~repro.errors.NativeLibraryError` there, with the compiler's
message. :func:`available` only reports the outcome, for
``machine_info()``.

Every hash of a stream row goes through ``hash_block``, which hashes a
block of up to ``HASH_BLOCK`` rows (contiguous, or gathered through a
row index) column by column: one pass of independent splitmix64 rounds
per key column, which the compiler runs in vector lanes, where the
chain taken row by row is 2k - 1 dependent rounds per row. The walk
hashes a block of arrivals and then probes it; a fold hashes the seed
rows of the state it extends, and the partition hash and the
statistics pass the stream, the same way. The sketches hash each
stream column of a block once (``hash_block``'s first step) and finish
every relation's chain from those hashes in ``kmv_keys``, so a
column's hash is shared among relations. The library builds with
``-O3``; on x86-64 glibc with GCC >= 12, ``hash_block`` and
``kmv_keys`` are also cloned for
``x86-64-v4`` (AVX-512) through ``target_clones``, and the loader's
ifunc picks the clone the running CPU supports, so a cached library
stays valid on any host. Every other build, clang's included, is the
plain loop of the same source (the ``HASH_DISPATCH`` guard admits only
the compiler the clones were built and measured with). :func:`hash_isa`
says which one runs, and ``machine_info()`` records it.

Bit-identity rests on two things here: ``hash_block`` and ``kmv_keys``
replicate :func:`repro.gigascope.hashing._chain` op-for-op on C
``uint64_t``, whose arithmetic wraps exactly like numpy's in any lane
width, and the build flags (:data:`repro.native.build.DEFAULT_FLAGS`)
keep contraction and fast-math off, so C doubles round as numpy's
float64 ops do.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro.errors import NativeLibraryError
from repro.native.build import kernel_status, load_kernel

__all__ = ["JOB_EPOCHS", "JOB_HASH", "JOB_WALK", "NAME", "SOURCE", "address",
           "available", "hash_isa", "job", "library", "words"]

#: The library's name in the load memo, the on-disk cache and
#: ``machine_info()["kernels"]``.
NAME = "engine_ingest"

SOURCE = r"""
#define _GNU_SOURCE
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <sched.h>
#include <time.h>
#ifdef __linux__
#include <limits.h>
#include <linux/futex.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

/* ---- The hash chain ---- */

/* splitmix64 finalizer; uint64_t arithmetic wraps exactly like numpy's. */
static uint64_t mix64(uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Rows hashed per hash_block call: the walk's arrivals ahead of each
 * probe loop, a fold's seed rows, the partition and statistics passes. */
#define HASH_BLOCK 256

/* hash_block and kmv_keys, the sketches' rest of the chain, are cloned
 * for x86-64-v4 (AVX-512) where the loader can pick a clone at load time
 * (x86-64 glibc, through an ifunc) and the compiler is one the clones
 * were built with: GCC 12 and later, which take the level name in
 * target_clones and __builtin_cpu_supports alike. Any other build,
 * clang's included, is the plain loop from the same source. */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && \
    defined(__GNUC__) && __GNUC__ >= 12
#define HASH_DISPATCH 1
#endif

/* The salted chain of m rows at once: out[j] = mix64(c0 ^ s), then
 * out[j] = mix64(out[j] ^ mix64(ci ^ s)) for each further column ci of
 * cols[0..k), over row start + j or, when rows is not NULL, row
 * rows[start + j]. Column by column, each pass is m independent mix64
 * rounds, which the compiler runs in vector lanes; row by row the chain
 * is 2k - 1 dependent rounds. */
#ifdef HASH_DISPATCH
__attribute__((target_clones("default", "arch=x86-64-v4")))
#endif
static void hash_block(const uint64_t **cols, int64_t k,
                       const int64_t *rows, int64_t start, int64_t m,
                       uint64_t state, uint64_t *restrict out)
{
    const uint64_t *restrict col;
    int64_t c, j;

    if (rows != NULL) {
        const int64_t *restrict at = rows + start;
        col = cols[0];
        for (j = 0; j < m; j++)
            out[j] = mix64(col[at[j]] ^ state);
        for (c = 1; c < k; c++) {
            col = cols[c];
            for (j = 0; j < m; j++)
                out[j] = mix64(out[j] ^ mix64(col[at[j]] ^ state));
        }
        return;
    }
    col = cols[0] + start;
    for (j = 0; j < m; j++)
        out[j] = mix64(col[j] ^ state);
    for (c = 1; c < k; c++) {
        col = cols[c] + start;
        for (j = 0; j < m; j++)
            out[j] = mix64(out[j] ^ mix64(col[j] ^ state));
    }
}

/* Which hash_block runs: "x86-64-v4" or "default" (the clone the loader
 * picked, by the test its resolver makes), or "plain" (no clones). */
const char *repro_hash_isa(void)
{
#ifdef HASH_DISPATCH
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") ? "x86-64-v4" : "default";
#else
    return "plain";
#endif
}

/* ---- The forest walk, its group table and its fold ---- */

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
    const int64_t *seed_w;      /* [n_seed] the state's aggregates */
    const double *seed_vs, *seed_vmin, *seed_vmax;
    int64_t *rep;               /* new group's raw row; -1 - s: seed row s */
    int64_t *w;
    double *vs, *vmin, *vmax;
} fold_t;

/* A configuration's forest, built and checked once per binding, and
 * the stream a call is bound to; relations in topological order.
 * Relation r's table is n_slices slices of n_buckets[r] buckets side by
 * side; a row lands in slice shard[row] (slice 0 when shard is NULL). A
 * relation with children appends its evictions to its own list, slot
 * feeds[r] - 1 of a walk's ev_i/ev_f (feeds[r] is 0 for a relation
 * without). On a lane call holder[r] is the walk that walks relation r
 * and holds its eviction list and run count (see repro_walk); on a
 * one-lane or pool call holder is NULL. */
typedef struct walk_s walk_t;
typedef struct {
    int64_t n_rel, max_buckets, n_slices;
    const int64_t *parent;      /* index of the parent, -1 = raw */
    const int64_t *key_off;     /* [n_rel + 1] into key_col */
    const int64_t *key_col;     /* stream column of each key column */
    const uint64_t *salt;
    const int64_t *n_buckets, *depth, *emit, *feeds;
    const int64_t *fold_slot;   /* the fold of an emitting relation */
    const uint64_t *const *columns;  /* the stream's attribute columns */
    const double *values;       /* the stream's value column, or NULL */
    const int64_t *shard;       /* the stream's slice per row, or NULL */
    int64_t *done;              /* [n_rel + 1] a lane call's: r is walked;
                                 * [n_rel]: a lane failed (the stop word) */
    const walk_t *const *holder;    /* [n_rel] on a lane call, or NULL */
} forest_t;

/* One thread's scratch for walks of a forest, sized for the longest
 * epoch (`longest` arrivals per relation) and the largest table, every
 * slice included, with its folds and counters. */
struct walk_s {
    const forest_t *forest;
    int64_t longest;
    const uint64_t **keys;      /* [key_off[n_rel]] this epoch's columns */
    int64_t *slot_run;          /* [max_buckets], validated, never reset */
    int64_t *bucket_pos;        /* [max_buckets] */
    run_t *runs;                /* [longest] */
    order_t *order;             /* [longest] */
    int64_t *ev_i;              /* [feeders][3][longest] row, time, weight */
    double *ev_f;               /* [feeders][3][longest] sum, min, max */
    fold_t *folds;              /* [emitting] */
    int64_t *n_runs;            /* [n_rel] this epoch's runs = evictions */
    int64_t *stats;             /* [n_rel][4] accumulated counters */
    int64_t *table;             /* the folds' group table, malloc'd here */
    int64_t cap, base;          /* its capacity; entries >= base are live */
};

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

/* Fold a relation-epoch's runs, taken in the order order[0..n_runs), into
 * F: the seed's groups first, each run then extends its group or opens
 * one. A run is placed by the hash its bucket came from (hash_block with
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
    int64_t i, g, g0, g1, n_groups = n_seed, base;
    uint64_t s, mask, h[HASH_BLOCK];
    int64_t *table;
    const run_t *R;
    double vs, vmin, vmax;

    if (reserve_groups(W, n_seed + n_runs) < 0)
        return -1;
    table = W->table;
    mask = (uint64_t)W->cap - 1ULL;
    base = W->base;
    /* the state's groups are distinct: each finds an empty slot; a
     * state row enters as 0.0 + its sum, as in the HFTA's fold */
    for (g0 = 0; g0 < n_seed; g0 = g1) {
        g1 = n_seed - g0 < HASH_BLOCK ? n_seed : g0 + HASH_BLOCK;
        hash_block(F->seed, k, NULL, g0, g1 - g0, state, h);
        for (g = g0; g < g1; g++) {
            s = find_slot(F->seed, k, g, h[g - g0], mask, table, base,
                          F->rep, F->seed);
            table[s] = base + g;
            F->rep[g] = -1 - g;
            F->w[g] = F->seed_w[g];
            F->vs[g] = 0.0 + F->seed_vs[g];
            F->vmin[g] = F->seed_vmin[g];
            F->vmax[g] = F->seed_vmax[g];
        }
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
    const forest_t *T = W->forest;
    const int64_t L = W->longest;
    const int64_t k = T->key_off[r + 1] - T->key_off[r];
    const uint64_t **keys = W->keys + T->key_off[r];
    const uint64_t nb = (uint64_t)T->n_buckets[r];
    const int64_t nb_all = T->n_buckets[r] * T->n_slices;
    const int64_t *shard = T->shard ? T->shard + start : NULL;
    const uint64_t state = mix64(T->salt[r]);
    const int64_t flush_base = n + T->depth[r] * stride;
    const int has_values = vs != NULL;
    const int64_t feeds = T->feeds[r];
    int64_t *slot_run = W->slot_run;
    run_t *runs = W->runs;
    order_t *order = W->order;
    int64_t *ev_row = NULL, *ev_t = NULL, *ev_w = NULL;
    double *ev_vs = NULL, *ev_vmin = NULL, *ev_vmax = NULL;
    int64_t n_runs = 0, n_ev = 0, arr_intra = 0, ev_intra = 0;
    int64_t i, j, j0, j1, b, q, c, offset, count;
    uint64_t blk_hash[HASH_BLOCK];
    run_t *R;
    int dense;

    for (c = 0; c < k; c++)
        keys[c] = T->columns[T->key_col[T->key_off[r] + c]] + start;
    if (feeds) {
        ev_row = W->ev_i + (feeds - 1) * 3 * L;
        ev_t = ev_row + L;
        ev_w = ev_t + L;
        if (has_values) {
            ev_vs = W->ev_f + (feeds - 1) * 3 * L;
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
        j1 = m - j0 < HASH_BLOCK ? m : j0 + HASH_BLOCK;
        hash_block(keys, k, rows, j0, j1 - j0, state, blk_hash);
        for (j = j0; j < j1; j++) {
            const int64_t row = rows ? rows[j] : j;
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
    if (T->emit[r]) {
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
        if (fold_runs(W, &W->folds[T->fold_slot[r]], keys, k, state,
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

/* ---- Waits: the lanes' and the pool's ---- */

/* How long a waiting thread spins before it sleeps. A wait on a thread
 * that runs on another core is short: the longest a lane waits is the
 * second lane's wait for the first relation, one relation's walk
 * (50-100 us), and a thread that went to sleep wakes 10-50 us late. But
 * a thread that spins while the one it waits for shares its core holds
 * that core for a whole time slice. So it spins this long at most, then
 * sleeps until it is woken. The waits need Linux's futexes; on any other
 * system the pool has no helpers and every call runs on its caller. */
#define SPIN_NS 100000

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Sleep while *word reads seen (return at once if it does not), and
 * wake every sleeper on word. */
static void futex_sleep(int32_t *word, int32_t seen)
{
#ifdef __linux__
    syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, seen, NULL, NULL, 0);
#else
    (void)word;
    (void)seen;
    sched_yield();
#endif
}

static void futex_wake(int32_t *word)
{
#ifdef __linux__
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, INT_MAX, NULL, NULL, 0);
#else
    (void)word;
#endif
}

/* Spin, then sleep, until *flag >= want or, when stop is not NULL,
 * *stop is nonzero: 0, or -1 on a stop. *word counts the stores that
 * may end the wait (each counted after it is made) and *sleepers the
 * threads asleep on it: a waiter reads the word before the flags, so a
 * store after that read changes the word and the sleep returns at
 * once. */
static int wait_until(const int64_t *flag, int64_t want,
                      const int64_t *stop, int32_t *word,
                      int64_t *sleepers)
{
    int64_t spins, began = 0;
    int32_t seen;

    for (spins = 0;; spins++) {
        seen = __atomic_load_n(word, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(flag, __ATOMIC_SEQ_CST) >= want)
            return 0;
        if (stop != NULL && __atomic_load_n(stop, __ATOMIC_SEQ_CST))
            return -1;
        if (spins == 0) {
            began = now_ns();
        } else if ((spins & 255) == 255 && now_ns() - began > SPIN_NS) {
            __atomic_add_fetch(sleepers, 1, __ATOMIC_SEQ_CST);
            futex_sleep(word, seen);
            __atomic_sub_fetch(sleepers, 1, __ATOMIC_SEQ_CST);
        }
    }
}

/* Count a store that may end a wait on *word and wake the sleepers. */
static void wake_waiters(int32_t *word, int64_t *sleepers)
{
    __atomic_add_fetch(word, 1, __ATOMIC_SEQ_CST);
    if (__atomic_load_n(sleepers, __ATOMIC_SEQ_CST))
        futex_wake(word);
}

/* Store *flag = value, count it on *word and wake the sleepers. */
static void store_and_wake(int64_t *flag, int64_t value, int32_t *word,
                           int64_t *sleepers)
{
    __atomic_store_n(flag, value, __ATOMIC_SEQ_CST);
    wake_waiters(word, sleepers);
}

/* The most helpers the pool starts. */
#define MAX_HELPERS 256

/* What a job runs, its arguments in arg in this order:
 * JOB_WALK    repro_walk(W, start, t, w, n);
 * JOB_HASH    repro_partition_hash(cols, k, n, salt, n_shards, ids);
 * JOB_EPOCHS  epochs_pull(C), a helper's share of a call's epochs. */
enum { JOB_WALK = 0, JOB_HASH = 1, JOB_EPOCHS = 2 };

/* One job of a call: filled by the caller, handed to a helper
 * (repro_pool_submit) and waited for (repro_pool_wait) before the caller
 * reads, reuses or frees anything the job touches. stop, when not NULL,
 * is the call's stop word: the first of its jobs that fails sets it,
 * and a job that finds it set does not run. */
typedef struct {
    int64_t kind, status, done;
    int64_t *stop;
    uint64_t arg[6];
} job_t;

typedef struct {
    int32_t jobs;               /* futex word: jobs handed to the helper */
    int64_t busy;               /* from its claim until the job ran */
    job_t *job;
#ifdef __linux__
    int cpu;                    /* the submitter's CPU, or -1 */
    cpu_set_t allowed;          /* the submitter's CPUs */
#endif
} helper_t;

/* The helpers: started at the first submit that asks for more than run,
 * never stopped, asleep between jobs, each pinned away from its
 * submitter's CPU (woken there, it would share the submitter's core).
 * A forked child starts with none (pool_forked). */
static struct {
    int64_t started;            /* helpers running */
    int32_t ends;               /* futex word: jobs done, lane marks */
    int64_t sleepers;           /* threads asleep on it, in either wait */
    helper_t helper[MAX_HELPERS];
} pool;

/* Mark slot of a lane call's done words (a relation walked, or the stop
 * word), waking sleepers through the pool's wait word; a wake that ends
 * no wait is harmless, as wait_until reads its flags again. */
static void lane_mark(const forest_t *T, int64_t slot)
{
    store_and_wake(&T->done[slot], 1, &pool.ends, &pool.sleepers);
}

/* Wait until relation r of a lane call is walked, in any lane: 0, or -1
 * as soon as a lane has failed instead, so no lane waits for one that
 * stopped. */
int64_t repro_walk_wait(const forest_t *T, int64_t r)
{
    return wait_until(&T->done[r], 1, &T->done[T->n_rel], &pool.ends,
                      &pool.sleepers);
}

/* One epoch through the whole forest: rows start + j, j < n, of the
 * stream arrive at the raw relations at times t with weights w; every
 * other relation is fed its parent's evictions in eviction order.
 *
 * Lanes: walks of one forest, called at once on their threads with the
 * same arguments, each walking the relations it holds (holder[r] == W)
 * into its own scratch, folds and counters, and marking each done. A
 * relation whose parent another walk holds waits until the parent is
 * marked and reads its eviction list through holder[p]; it waits for
 * nothing else, as every list is written once a call. A parent comes
 * before its children, so the lowest relation not yet walked can always
 * go on and the lanes cannot wait on each other in a circle. Returns 0
 * once each of W's relations is marked, or -1 when a fold ran out of
 * memory (or, on lanes, when any lane's did: the failing lane sets the
 * stop word, and the others stop at their next wait). */
int64_t repro_walk(walk_t *W, int64_t start, const int64_t *t,
                   const int64_t *w, int64_t n)
{
    const forest_t *T = W->forest;
    const walk_t *const *holder = T->holder;
    const int64_t stride = n + T->max_buckets + 2;
    const double *values = T->values ? T->values + start : NULL;
    const walk_t *P;
    int64_t r, p, f, L;
    int failed;

    for (r = 0; r < T->n_rel; r++) {
        W->n_runs[r] = 0;
        if (T->emit[r])
            W->folds[T->fold_slot[r]].n_groups = 0;
    }
    for (r = 0; r < T->n_rel; r++) {
        if (holder != NULL && holder[r] != W)
            continue;
        p = T->parent[r];
        P = holder != NULL && p >= 0 ? holder[p] : W;  /* p's evictions */
        if (P != W && repro_walk_wait(T, p) < 0)
            return -1;
        if (p < 0) {
            failed = n > 0 && walk_relation(W, r, start, n, stride, n, NULL,
                                            t, w, values, values, values);
        } else if (P->n_runs[p] == 0) {
            failed = 0;
        } else {
            f = (T->feeds[p] - 1) * 3;
            L = P->longest;
            failed = walk_relation(
                W, r, start, n, stride, P->n_runs[p],
                P->ev_i + f * L, P->ev_i + (f + 1) * L,
                P->ev_i + (f + 2) * L,
                values ? P->ev_f + f * L : NULL,
                values ? P->ev_f + (f + 1) * L : NULL,
                values ? P->ev_f + (f + 2) * L : NULL);
        }
        if (holder != NULL)
            lane_mark(T, failed ? T->n_rel : r);
        if (failed)
            return -1;
    }
    return 0;
}

/* Hand over relation r's fold of the last repro_walk call: dst is room
 * for 4 + k rows of its n > 0 groups' int64 words, k its key columns:
 * the counts, the sums, minima and maxima (as their bits), then each
 * key column, a group's value read through its representative's raw
 * row or its seed row. On lanes the caller may take a relation of
 * another lane once it is walked (repro_walk_wait): nothing the take
 * reads is written again in that call. */
void repro_walk_take(const walk_t *W, int64_t r, int64_t *dst)
{
    const forest_t *T = W->forest;
    const fold_t *F = &W->folds[T->fold_slot[r]];
    const int64_t n = F->n_groups, k = T->key_off[r + 1] - T->key_off[r];
    const uint64_t **keys = W->keys + T->key_off[r];
    int64_t c, g, rep, *col;

    memcpy(dst, F->w, (size_t)n * sizeof(int64_t));
    memcpy(dst + n, F->vs, (size_t)n * sizeof(double));
    memcpy(dst + 2 * n, F->vmin, (size_t)n * sizeof(double));
    memcpy(dst + 3 * n, F->vmax, (size_t)n * sizeof(double));
    for (c = 0; c < k; c++) {
        col = dst + (4 + c) * n;
        for (g = 0; g < n; g++) {
            rep = F->rep[g];
            col[g] = (int64_t)(rep < 0 ? F->seed[c][-1 - rep]
                                       : keys[c][rep]);
        }
    }
}

/* Scratch for epochs of up to `longest` arrivals in place of W's: the
 * runs, their order and `feeders` eviction lists, with their partials
 * when `values`. It is malloc'd here, where numpy would ask for huge
 * pages for arrays this large: a walk touches only the head of each, and
 * a fresh huge page is zeroed whole at its first touch, which made a new
 * walk's first epoch twice as slow. 0, or -1 when out of memory, with
 * W's scratch as it was. */
int64_t repro_walk_reserve(walk_t *W, int64_t longest, int64_t feeders,
                           int64_t values)
{
    const size_t L = (size_t)longest, lists = (size_t)feeders * 3 * L;
    run_t *runs = (run_t *)malloc(L * sizeof(run_t));
    order_t *order = (order_t *)malloc(L * sizeof(order_t));
    int64_t *ev_i = (int64_t *)malloc(lists * sizeof(int64_t) + 1);
    double *ev_f = (double *)malloc((values ? lists : 0) * sizeof(double)
                                    + 1);

    if (runs == NULL || order == NULL || ev_i == NULL || ev_f == NULL) {
        free(runs);
        free(order);
        free(ev_i);
        free(ev_f);
        return -1;
    }
    free(W->runs);
    free(W->order);
    free(W->ev_i);
    free(W->ev_f);
    W->runs = runs;
    W->order = order;
    W->ev_i = ev_i;
    W->ev_f = ev_f;
    W->longest = longest;
    return 0;
}

/* Release what W malloc'd: its scratch and the folds' group table. */
void repro_walk_free(walk_t *W)
{
    free(W->runs);
    free(W->order);
    free(W->ev_i);
    free(W->ev_f);
    free(W->table);
    W->runs = NULL;
    W->order = NULL;
    W->ev_i = NULL;
    W->ev_f = NULL;
    W->table = NULL;
    W->longest = W->cap = W->base = 0;
}

/* ---- A call over several epochs, pulled by the threads that walk it ---- */

/* An epoch's words: its first row, its length and the addresses of its
 * times and weights (EPOCH_HEAD words), then for each fold slot the seed
 * that fold extends (SEED_WORDS words: its group count and the addresses
 * of its key-column array, counts, sums, minima and maxima; all 0 for
 * none). */
#define EPOCH_HEAD 4
#define SEED_WORDS 6

/* Point W's folds at the seeds of an epoch's words (the words after its
 * head), or at none when seeds is NULL. */
void repro_walk_arm(walk_t *W, const uint64_t *seeds)
{
    const forest_t *T = W->forest;
    const uint64_t *s;
    fold_t *F;
    int64_t r;

    for (r = 0; r < T->n_rel; r++) {
        if (!T->emit[r])
            continue;
        F = &W->folds[T->fold_slot[r]];
        s = seeds != NULL ? seeds + SEED_WORDS * T->fold_slot[r] : NULL;
        F->n_seed = s != NULL ? (int64_t)s[0] : 0;
        F->seed = s != NULL ? (const uint64_t **)(uintptr_t)s[1] : NULL;
        F->seed_w = s != NULL ? (const int64_t *)(uintptr_t)s[2] : NULL;
        F->seed_vs = s != NULL ? (const double *)(uintptr_t)s[3] : NULL;
        F->seed_vmin = s != NULL ? (const double *)(uintptr_t)s[4] : NULL;
        F->seed_vmax = s != NULL ? (const double *)(uintptr_t)s[5] : NULL;
    }
}

/* An epoch's state word in a call: 0 until it is walked, then 1 + the
 * walk that holds its folds, then EPOCH_TAKEN once the caller took them
 * and freed that walk. */
#define EPOCH_TAKEN (-1)

/* A call over several epochs, every thread that walks it working from
 * it: the caller (repro_epochs_next) and the helpers (JOB_EPOCHS jobs).
 * A thread takes a free walk, then claims the next epoch and walks it on
 * that walk, which stays the epoch's until the caller has taken its
 * folds. The caller takes each epoch as soon as it finds it walked, not
 * in epoch order; the epochs claimed and not taken never outnumber the
 * walks. */
typedef struct {
    int64_t n_epochs, n_walks, row;  /* row: words per epoch */
    const uint64_t *epochs;     /* [n_epochs][row] each epoch's words */
    walk_t *const *walks;       /* [n_walks] */
    int64_t *state;             /* [n_epochs] each epoch's state word */
    int64_t *idle;              /* [n_walks] 1 while the walk is free */
    int64_t free;               /* the free walks */
    int64_t next;               /* the next epoch to claim */
    int64_t walked;             /* the epochs walked so far */
    int64_t stop;               /* the call's stop word */
    int64_t by_caller;          /* the caller's: the epochs it walked */
    int64_t low;                /* the caller's: no epoch below is open */
} epochs_t;

/* Hand walk k back to C's free walks. */
static void give_walk(epochs_t *C, int64_t k)
{
    __atomic_store_n(&C->idle[k], 1, __ATOMIC_SEQ_CST);
    __atomic_add_fetch(&C->free, 1, __ATOMIC_SEQ_CST);
    wake_waiters(&pool.ends, &pool.sleepers);
}

/* Take a free walk of C and claim the next epoch: the epoch, its walk in
 * *k, or -1 when no epoch is left, the stop word is set or (unless
 * wait) no walk is free. With wait, a thread that finds no free walk
 * sleeps until a take frees one. */
static int64_t epochs_claim(epochs_t *C, int wait, int64_t *k)
{
    int64_t free, e, one;

    for (;;) {
        if (__atomic_load_n(&C->stop, __ATOMIC_SEQ_CST) ||
            __atomic_load_n(&C->next, __ATOMIC_SEQ_CST) >= C->n_epochs)
            return -1;
        free = __atomic_load_n(&C->free, __ATOMIC_SEQ_CST);
        if (free == 0) {
            if (!wait || wait_until(&C->free, 1, &C->stop, &pool.ends,
                                    &pool.sleepers) < 0)
                return -1;
            continue;
        }
        if (__atomic_compare_exchange_n(&C->free, &free, free - 1, 0,
                                        __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
            break;
    }
    for (*k = 0;; *k = (*k + 1) % C->n_walks) {  /* one is reserved */
        one = 1;
        if (__atomic_compare_exchange_n(&C->idle[*k], &one, 0, 0,
                                        __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
            break;
    }
    e = __atomic_fetch_add(&C->next, 1, __ATOMIC_SEQ_CST);
    if (e < C->n_epochs)
        return e;
    give_walk(C, *k);
    return -1;
}

/* Arm walk k with epoch e's seeds, walk e on it and mark e walked: 0, or
 * -1 when its fold ran out of memory (the stop word is then set). */
static int64_t epochs_walk(epochs_t *C, int64_t e, int64_t k)
{
    const uint64_t *row = C->epochs + e * C->row;
    walk_t *W = C->walks[k];

    repro_walk_arm(W, row + EPOCH_HEAD);
    if (repro_walk(W, (int64_t)row[0], (const int64_t *)(uintptr_t)row[2],
                   (const int64_t *)(uintptr_t)row[3], (int64_t)row[1]) < 0) {
        store_and_wake(&C->stop, 1, &pool.ends, &pool.sleepers);
        return -1;
    }
    __atomic_store_n(&C->state[e], 1 + k, __ATOMIC_SEQ_CST);
    __atomic_add_fetch(&C->walked, 1, __ATOMIC_SEQ_CST);
    wake_waiters(&pool.ends, &pool.sleepers);
    return 0;
}

/* A helper's share of C (JOB_EPOCHS): take a free walk, claim, walk,
 * repeat, until no epoch is left or the stop word is set. 0, or -1 when
 * a walk failed. */
static int64_t epochs_pull(epochs_t *C)
{
    int64_t e, k;

    while ((e = epochs_claim(C, 1, &k)) >= 0)
        if (epochs_walk(C, e, k) < 0)
            return -1;
    return 0;
}

/* The caller's part of C: epoch `taken`'s folds are taken (none when it
 * is negative), so its walk is free again. Returns an epoch walked and
 * not yet taken, the first found from the lowest open one; until there
 * is one, claims and walks epochs itself, and waits only when no walk is
 * free or no epoch is left. Returns n_epochs once every epoch is taken,
 * or -1 once the stop word is set. */
int64_t repro_epochs_next(epochs_t *C, int64_t taken)
{
    int64_t e, k, claimed, seen, walk;

    if (taken >= 0) {
        walk = __atomic_load_n(&C->state[taken], __ATOMIC_SEQ_CST) - 1;
        __atomic_store_n(&C->state[taken], EPOCH_TAKEN, __ATOMIC_SEQ_CST);
        give_walk(C, walk);
    }
    for (;;) {
        if (__atomic_load_n(&C->stop, __ATOMIC_SEQ_CST))
            return -1;
        seen = __atomic_load_n(&C->walked, __ATOMIC_SEQ_CST);
        while (C->low < C->n_epochs && __atomic_load_n(
                   &C->state[C->low], __ATOMIC_SEQ_CST) == EPOCH_TAKEN)
            C->low++;
        if (C->low == C->n_epochs)
            return C->n_epochs;
        claimed = __atomic_load_n(&C->next, __ATOMIC_SEQ_CST);
        for (e = C->low; e < claimed && e < C->n_epochs; e++)
            if (__atomic_load_n(&C->state[e], __ATOMIC_SEQ_CST) > 0)
                return e;
        e = epochs_claim(C, 0, &k);
        if (e >= 0) {
            C->by_caller++;
            if (epochs_walk(C, e, k) < 0)
                return -1;
        } else if (wait_until(&C->walked, seen + 1, &C->stop, &pool.ends,
                              &pool.sleepers) < 0) {
            return -1;
        }
    }
}

/* Set C's stop word from the caller: no epoch is claimed after it. */
void repro_epochs_stop(epochs_t *C)
{
    store_and_wake(&C->stop, 1, &pool.ends, &pool.sleepers);
}

/* ---- The planner's statistics pass ---- */

/* Exact group and flow counts of n records in arrival (non-decreasing
 * time) order, through the group table's probe.
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
    int64_t i, i0, i1, g;
    uint64_t s, h[HASH_BLOCK];

    for (i0 = 0; i0 < n; i0 = i1) {    /* hash a block, then probe it */
        i1 = n - i0 < HASH_BLOCK ? n : i0 + HASH_BLOCK;
        hash_block(cols, k, NULL, i0, i1 - i0, state, h);
        for (i = i0; i < i1; i++) {
            s = find_slot(cols, k, i, h[i - i0], mask, table, 0, rep, NULL);
            g = table[s];
            if (g < 0) {            /* new group, new flow */
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
    }
    *flows = n_flows;
    return n_groups;
}

/* ---- The partition hash ---- */

/* h % d without a divide, exact for every 64-bit h and d >= 1: Lemire,
 * Kaser and Kurz's fastmod_u64 ("Faster Remainder by Direct
 * Computation", 2019). With M = ceil(2**128 / d), computed once per
 * call, the low 128 bits of M * h are the fraction h / d in 128-bit
 * fixed point, and their product with d, shifted down 128 bits, is the
 * remainder; 128 fraction bits are enough for 64-bit h and d. d = 1
 * wraps M to 0, which gives 0, the remainder. Without a 128-bit type the
 * divide stays. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static u128 fastmod_m(uint64_t d)
{
    return ~(u128)0 / d + 1;
}

static inline uint64_t fastmod(uint64_t h, u128 m, uint64_t d)
{
    const u128 low = m * h;
    return (uint64_t)((((low & UINT64_MAX) * d >> 64) + (low >> 64) * d)
                      >> 64);
}
#endif

/* ids[i] = chain(cols[0..k)[i], salt) % n_shards, a block at a time;
 * n_shards >= 1. */
void repro_partition_hash(
    const uint64_t **cols, int64_t k, int64_t n,
    uint64_t salt, uint64_t n_shards, int64_t *ids)
{
    const uint64_t state = mix64(salt);
    uint64_t h[HASH_BLOCK];
    int64_t i, j, m;
#ifdef __SIZEOF_INT128__
    const u128 reciprocal = fastmod_m(n_shards);
#endif

    for (i = 0; i < n; i += m) {
        m = n - i < HASH_BLOCK ? n - i : HASH_BLOCK;
        hash_block(cols, k, NULL, i, m, state, h);
        for (j = 0; j < m; j++)
#ifdef __SIZEOF_INT128__
            ids[i + j] = (int64_t)fastmod(h[j], reciprocal, n_shards);
#else
            ids[i + j] = (int64_t)(h[j] % n_shards);
#endif
    }
}

/* One pass over n shard ids: each must lie in [0, n_shards), compared
 * as uint64_t so a negative id fails, and counts[id] (n_shards entries,
 * zeroed by the caller) counts them. Returns the index of the first id
 * out of range, or -1 when there is none. */
int64_t repro_shard_counts(const int64_t *ids, int64_t n,
                           uint64_t n_shards, int64_t *counts)
{
    int64_t i;
    uint64_t id;

    for (i = 0; i < n; i++) {
        id = (uint64_t)ids[i];
        if (id >= n_shards)
            return i;
        counts[id]++;
    }
    return -1;
}

/* ---- The pool: persistent helper threads ---- */

static void run_job(job_t *job)
{
    const uint64_t *a = job->arg;

    if (job->stop != NULL && __atomic_load_n(job->stop, __ATOMIC_SEQ_CST)) {
        job->status = -1;
        return;
    }
    job->status = 0;
    if (job->kind == JOB_WALK)
        job->status = repro_walk((walk_t *)(uintptr_t)a[0], (int64_t)a[1],
                                 (const int64_t *)(uintptr_t)a[2],
                                 (const int64_t *)(uintptr_t)a[3],
                                 (int64_t)a[4]);
    else if (job->kind == JOB_EPOCHS)
        job->status = epochs_pull((epochs_t *)(uintptr_t)a[0]);
    else
        repro_partition_hash((const uint64_t **)(uintptr_t)a[0],
                             (int64_t)a[1], (int64_t)a[2], a[3], a[4],
                             (int64_t *)(uintptr_t)a[5]);
    if (job->status < 0 && job->stop != NULL)
        __atomic_store_n(job->stop, 1, __ATOMIC_SEQ_CST);
}

#ifdef __linux__
static pthread_mutex_t pool_lock = PTHREAD_MUTEX_INITIALIZER;

static void *helper_main(void *arg)
{
    helper_t *H = (helper_t *)arg;
    int32_t taken = 0;
    cpu_set_t pinned, set;
    job_t *job;

    CPU_ZERO(&pinned);
    for (;;) {
        while (__atomic_load_n(&H->jobs, __ATOMIC_SEQ_CST) == taken)
            futex_sleep(&H->jobs, taken);
        taken++;
        set = H->allowed;
        if (H->cpu >= 0)
            CPU_CLR(H->cpu, &set);
        if (CPU_COUNT(&set) > 0 && !CPU_EQUAL(&set, &pinned)) {
            pinned = set;
            (void)sched_setaffinity(0, sizeof set, &set);
        }
        job = H->job;
        run_job(job);
        /* free before the job is done, so that the caller's next submit
         * finds the helper free; from here on the helper touches nothing
         * of the job's but its done word */
        __atomic_store_n(&H->busy, 0, __ATOMIC_SEQ_CST);
        store_and_wake(&job->done, 1, &pool.ends, &pool.sleepers);
    }
    return NULL;
}

/* The one fork rule: a child has no helpers, whatever the parent ran. */
static void pool_forked(void)
{
    memset(&pool, 0, sizeof pool);
    pthread_mutex_init(&pool_lock, NULL);
}

/* Start helpers until `helpers` run (or one fails to start): how many
 * of the first `helpers` run. */
static int64_t pool_grow(int64_t helpers)
{
    static int registered;
    pthread_t thread;
    int64_t i;

    pthread_mutex_lock(&pool_lock);
    if (!registered)
        registered = pthread_atfork(NULL, NULL, pool_forked) == 0;
    for (i = pool.started; registered && i < helpers; i++) {
        if (pthread_create(&thread, NULL, helper_main, &pool.helper[i]))
            break;
        pthread_detach(thread);
        __atomic_store_n(&pool.started, i + 1, __ATOMIC_SEQ_CST);
    }
    pthread_mutex_unlock(&pool_lock);
    return pool.started < helpers ? pool.started : helpers;
}
#endif

/* Hand a job to a free one of the pool's first `helpers` helpers,
 * starting them first where fewer run: 0, or -1 when none is free (or
 * there are none: not Linux, or none could start), and the caller runs
 * the job itself. */
int64_t repro_pool_submit(job_t *job, int64_t helpers)
{
#ifdef __linux__
    int64_t i, idle;
    helper_t *H;

    helpers = helpers > MAX_HELPERS ? MAX_HELPERS : helpers;
    if (__atomic_load_n(&pool.started, __ATOMIC_SEQ_CST) < helpers)
        helpers = pool_grow(helpers);
    for (i = 0; i < helpers; i++) {
        H = &pool.helper[i];
        idle = 0;
        if (!__atomic_compare_exchange_n(&H->busy, &idle, 1, 0,
                                         __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST))
            continue;
        H->job = job;
        H->cpu = sched_getcpu();
        if (sched_getaffinity(0, sizeof H->allowed, &H->allowed) != 0)
            CPU_ZERO(&H->allowed);
        __atomic_add_fetch(&H->jobs, 1, __ATOMIC_SEQ_CST);
        futex_wake(&H->jobs);
        return 0;
    }
#else
    (void)job;
    (void)helpers;
#endif
    return -1;
}

/* Wait until a submitted job has run: its status, 0 or -1. */
int64_t repro_pool_wait(job_t *job)
{
    wait_until(&job->done, 1, NULL, &pool.ends, &pool.sleepers);
    return job->status;
}

/* ---- The statistics sketches ---- */

/* The KMV keys of m rows of one relation, from its k columns' hashes
 * (hash_block's first step, mix64(c ^ state), of each): the chain's
 * further steps out[j] = mix64(out[j] ^ hashed[c][j]) from hashed[0],
 * then the sketch's salt, out[j] = mix64(out[j] ^ salt). */
#ifdef HASH_DISPATCH
__attribute__((target_clones("default", "arch=x86-64-v4")))
#endif
static void kmv_keys(const uint64_t *const *hashed, int64_t k, int64_t m,
                     uint64_t salt, uint64_t *restrict out)
{
    const uint64_t *restrict col = hashed[0];
    int64_t c, j;

    for (j = 0; j < m; j++)
        out[j] = col[j];
    for (c = 1; c < k; c++) {
        col = hashed[c];
        for (j = 0; j < m; j++)
            out[j] = mix64(out[j] ^ col[j]);
    }
    for (j = 0; j < m; j++)
        out[j] = mix64(out[j] ^ salt);
}

/* The index of the first of minima[0..len) that is not below key. */
static inline int64_t lower_bound(const uint64_t *minima, int64_t len,
                                  uint64_t key)
{
    const uint64_t *base = minima;
    int64_t half;

    if (len == 0)
        return 0;
    for (; len > 1; len -= half) {  /* no branch on the data */
        half = len / 2;
        base = base[half] < key ? base + half : base;
    }
    return (base - minima) + (*base < key);
}

/* One batch of n rows of the n_cols stream columns into every
 * relation's KMV sketch. Relation r's key columns are columns
 * idx[off[r]..off[r+1]), hashed through the chain with state mix64(0);
 * row j's key is then mix64(code ^ salt[r]). sketch[r] points at
 * {length, saturated, minima[cap[r]]}, the minima ascending. A full
 * sketch takes only keys below its largest minimum: a new key above it
 * saturates the sketch, a new key below it goes in, pushes the largest
 * out and saturates it. So a sketch holds the cap[r] smallest distinct
 * keys it has seen and is saturated once it has seen more. keys is room
 * for off[n_rel] pointers. Returns 0, or -1 when out of memory. */
int64_t repro_kmv_observe(
    const uint64_t **columns, int64_t n_cols, int64_t n,
    int64_t n_rel, const int64_t *off, const int64_t *idx,
    const uint64_t *salt, const int64_t *cap, uint64_t *const *sketch,
    const uint64_t **keys)
{
    const uint64_t state = mix64(0);
    uint64_t h[HASH_BLOCK], key, bound, above, *hashed, *minima;
    int64_t r, c, i, i0, m, k, len, lo, n_low;
    int room;

    /* each column's first chain step, a block at a time, shared by
     * every relation that reads the column */
    hashed = (uint64_t *)malloc((size_t)n_cols * HASH_BLOCK
                                * sizeof(uint64_t));
    if (hashed == NULL)
        return -1;
    for (c = 0; c < off[n_rel]; c++)
        keys[c] = hashed + idx[c] * HASH_BLOCK;
    for (i0 = 0; i0 < n; i0 += m) {
        m = n - i0 < HASH_BLOCK ? n - i0 : HASH_BLOCK;
        for (c = 0; c < n_cols; c++)
            hash_block(columns + c, 1, NULL, i0, m, state,
                       hashed + c * HASH_BLOCK);
        for (r = 0; r < n_rel; r++) {
            kmv_keys(keys + off[r], off[r + 1] - off[r], m, salt[r], h);
            k = cap[r];
            len = (int64_t)sketch[r][0];
            minima = sketch[r] + 2;
            /* Keep every key of a sketch that is not full and, of a
             * full one, the keys below its largest minimum, in order; a
             * key above it saturates the sketch. The largest minimum
             * only falls, so no other key could change it. */
            room = len < k;
            bound = room ? 0 : minima[k - 1];
            n_low = 0;
            above = 0;
            for (i = 0; i < m; i++) {
                key = h[i];
                h[n_low] = key;
                n_low += room | (key < bound);
                above |= !room & (key > bound);
            }
            if (above)
                sketch[r][1] = 1;
            for (i = 0; i < n_low; i++) {
                key = h[i];
                if (len == k && key >= minima[k - 1]) {
                    if (key > minima[k - 1])
                        sketch[r][1] = 1;
                    continue;
                }
                lo = lower_bound(minima, len, key);
                if (lo < len && minima[lo] == key)
                    continue;           /* held already */
                if (len == k) {         /* the largest makes room */
                    sketch[r][1] = 1;
                    len--;
                }
                memmove(minima + lo + 1, minima + lo,
                        (size_t)(len - lo) * sizeof(uint64_t));
                minima[lo] = key;
                len++;
            }
            sketch[r][0] = (uint64_t)len;
        }
    }
    free(hashed);
    return 0;
}
"""

_P, _I64 = ctypes.c_void_p, ctypes.c_int64

#: ctypes ``(restype, argtypes)`` of every entry; every pointer is
#: passed as an address.
_SIGNATURES = {
    "repro_walk": (_I64, [_P, _I64, _P, _P, _I64]),
    "repro_walk_take": (None, [_P, _I64, _P]),
    "repro_walk_free": (None, [_P]),
    "repro_walk_reserve": (_I64, [_P, _I64, _I64, _I64]),
    "repro_walk_wait": (_I64, [_P, _I64]),
    "repro_walk_arm": (None, [_P, _P]),
    "repro_epochs_next": (_I64, [_P, _I64]),
    "repro_epochs_stop": (None, [_P]),
    "repro_pool_submit": (_I64, [_P, _I64]),
    "repro_pool_wait": (_I64, [_P]),
    "repro_group_stats": (_I64, [_P, _I64, _I64, _P, ctypes.c_double, _I64,
                                 _P, _P, _P, _P]),
    "repro_partition_hash": (None, [_P, _I64, _I64, ctypes.c_uint64,
                                    ctypes.c_uint64, _P]),
    "repro_shard_counts": (_I64, [_P, _I64, ctypes.c_uint64, _P]),
    "repro_hash_isa": (ctypes.c_char_p, []),
    "repro_kmv_observe": (_I64, [_P, _I64, _I64, _I64, _P, _P, _P, _P,
                                  _P, _P]),
}


def library() -> ctypes.CDLL:
    """The loaded library, signatures applied. One attempt per process
    (the memo of :func:`repro.native.build.load_kernel`); when it
    failed, every call raises :class:`~repro.errors.NativeLibraryError`
    with the compiler's message on one line."""
    lib = load_kernel(NAME, SOURCE, _SIGNATURES)
    if lib is None:
        error = " ".join(kernel_status(NAME).error.split())
        raise NativeLibraryError(
            f"the native library {NAME!r} could not be built or loaded "
            f"(a C compiler is required): {error}")
    return lib


def available() -> bool:
    """Whether the library compiled and loaded; a failed build is
    reported, not raised."""
    return load_kernel(NAME, SOURCE, _SIGNATURES) is not None


def hash_isa() -> str | None:
    """Which block hasher the library runs: ``"x86-64-v4"`` or
    ``"default"`` (the clone the loader picked for this CPU) or
    ``"plain"`` (a build without clones); None when it is unavailable."""
    return library().repro_hash_isa().decode() if available() else None


_NO_BYTES = ctypes.c_char * 0

#: A job's kinds (``job_t`` of :data:`SOURCE`): a ``repro_walk`` call, a
#: ``repro_partition_hash`` call, a helper's share of a call's epochs
#: (an ``epochs_t``, :func:`repro.native.ingest.ingest_epochs`).
JOB_WALK, JOB_HASH, JOB_EPOCHS = 0, 1, 2


def job(row: np.ndarray, kind: int, stop: int, *args: int) -> int:
    """Write a ``job_t`` into ``row``, a contiguous row of 10 uint64
    words, and return its address for ``repro_pool_submit``: ``kind``,
    the address of the call's stop word (0 for none) and the entry's
    arguments, integers and addresses. The row must outlive the job's
    ``repro_pool_wait``."""
    row[:4] = kind, 0, 0, stop
    row[4:4 + len(args)] = args
    return address(row)


def address(array: np.ndarray) -> int:
    """The address of a writable C-contiguous array's data: what
    ``array.ctypes.data`` reads, at a fraction of its cost (a ctypes
    view of no bytes, made and dropped), for code that binds dozens of
    arrays per call."""
    return ctypes.addressof(_NO_BYTES.from_buffer(array))


def words(columns: Sequence[np.ndarray],
          n: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stream columns as the library reads them, checked once.

    Each column becomes one contiguous run of int64 words, viewed as the
    ``uint64_t`` the C code hashes and compares (a copy only where the
    column is not already one). There must be at least one column (the
    hash chain reads the first; the message is ``pack_tuples``'), and
    every column must be 1-D and ``n`` long (the first column's length
    when ``n`` is None), else ``ValueError``.
    Returns the address array a ``const uint64_t **`` parameter takes
    and the words, which must outlive every call that reads them.
    """
    if not columns:
        raise ValueError("need at least one column to pack")
    held = [np.ascontiguousarray(col, dtype=np.int64).view(np.uint64)
            for col in columns]
    if n is None:
        n = held[0].shape[0]
    for col in held:
        if col.shape != (n,):
            raise ValueError(f"stream columns must be 1-D and {n} long, "
                             f"got shape {col.shape}")
    return np.array([col.ctypes.data for col in held], dtype=np.uintp), held
