"""The vectorized LFTA engine: exact, array-at-a-time simulation.

Within an epoch, a direct-mapped table's behaviour is fully determined by,
per bucket, the time-ordered sequence of arriving group keys: a *run* of
equal keys accumulates into one entry; the entry is evicted when the next
run begins in the same bucket (a collision, at the time of the colliding
arrival) or at the end-of-epoch flush. This engine therefore:

1. stable-sorts each relation's arrival stream by (bucket, time),
2. detects run boundaries and computes per-run weights with segment sums,
3. derives each run's eviction time and cause, and
4. feeds the evicted runs — weights, value sums and projected group
   columns — to the relation's children (or to the HFTA from leaves).

Flush ordering is encoded in the time axis: intra-epoch arrivals occupy
times ``[0, n)``; the flush of a depth-``d`` relation occupies the window
``n + d * stride + bucket`` with ``stride > n`` large enough that windows
never overlap, reproducing the top-down bucket-scan flush of the sequential
reference exactly (tests assert counter-for-counter equality).

Which relations ship their evictions to the HFTA is one list of emit
flags built here: the queries. A query that feeds other relations ships
its evictions to the HFTA *and* feeds its children. This walk hands an
emitting relation's runs to the HFTA as one batch per epoch
(``HFTA.ingest_arrays``), which the HFTA folds into the key's state at
once.

When the host offers a C compiler, the whole walk runs instead as one
kernel call per epoch (:mod:`repro.native.ingest`): every relation in
topological order simulates its direct-mapped table record-at-a-time in
C, appends its evictions in eviction (= time) order to a list that is
its children's arrival stream, and *folds* the emitting relations' runs
itself, in the numpy walk's (bucket, start-time) order, into one row per
group. Who folds where: the kernel walk folds in the walk, extending the
state the HFTA already holds for that relation and epoch (its rows
first, then the runs: the HFTA's own ordering rule), and hands the HFTA
the folded state (``HFTA.ingest_folded``); this module gathers only the
new groups' key columns. Bit-identity contract: the same buckets, runs,
float accumulation order and counters as the numpy walk, and the same
HFTA state (NaN sums included), group order and fold counts as the
HFTA's fold of the numpy walk's batches. The numpy walk stays as the
path without a compiler and as the reference. Which of the two runs is decided by
:mod:`repro.native` alone (no compiler or ``REPRO_NO_CKERNEL=1`` leaves
the numpy walk); both are differentially tested against each other and
against the record-at-a-time reference.

*Epochs in parallel.* Every table is flushed at each epoch boundary, so
no LFTA state crosses an epoch and two epochs can be walked at the same
time. A kernel walk over more than one non-empty epoch runs on a pool of
threads, one per usable core and at most one per epoch, each with its
own scratch; they pull epochs in order from one queue, and the caller
hands the HFTA every folded state in epoch order, then relation order,
after the join, and sums the threads' counters. The calls, states and
floats are those of a one-thread walk, bit for bit. A one-epoch call
(every live epoch close) and the numpy walk stay on the calling thread.

*Shards.* A sharded run is one walk (``shards=``, one shard id per
record): each relation's table is ``max(id) + 1`` slices of its bucket
count side by side, and a record, or an eviction through its
representative's row, lands in bucket ``id * b + hash mod b``. Buckets
are shard-major, so every slice sees its shard's records in order, the
flush scans shard 0's slice first and every fold takes shard 0's runs
first: the counters, states and floats of the shards walked one after
the other, each key folded once.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.gigascope.hashing import (
    bucket_indices,
    pack_tuples,
    relation_salt,
)
from repro.gigascope.hfta import HFTA, ColumnarTotals
from repro.gigascope.metrics import CostCounters, SimulationResult
from repro.gigascope.records import Dataset
from repro.native import ingest as _native
from repro.observability.tracing import trace

__all__ = ["Tables", "bucket_counts", "simulate"]

# (times, weights, value-sums, value-mins, value-maxs, group columns,
# shard ids); the three value arrays are all present or all None, the
# shard ids None for a stream of one slice.
_Arrivals = tuple[np.ndarray, np.ndarray, np.ndarray | None,
                  np.ndarray | None, np.ndarray | None,
                  dict[str, np.ndarray], np.ndarray | None]


class Tables:
    """The LFTA's tables for one configuration, kept between
    :func:`simulate` calls.

    Without one, the kernel walk allocates its slot arrays, runs,
    eviction buffers, fold outputs and group table in every call, sized
    to the call's longest epoch and its largest fold. A caller that runs
    one configuration through many calls, one at a time —
    ``LiveStreamSystem`` closes each epoch with one — hands every call
    the same ``Tables``, and the buffers are allocated again only when
    the configuration, an allocation, the salts, the emit flags, the
    value column or the slice count change, or an epoch outgrows them.
    The results never depend on it.

    A one-epoch call walks on the kept buffers on the calling thread. A
    call over several epochs walks them on a pool of threads: the first
    one uses the kept buffers, every other thread gets its own for the
    call.
    """

    __slots__ = ("key", "walk")

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.walk: _native.Walk | None = None


def bucket_counts(relations, buckets: Mapping[AttributeSet, object] | None
                  ) -> dict[AttributeSet, int]:
    """Each relation's table size read from a ``buckets`` map: the one
    check of it, shared by :func:`simulate` and ``check_run``.

    Every relation needs an entry; the missing ones are named. A count
    is a real number (numpy's included, a bool not), floored, and at
    least 1, so the float allocations plans and experiments hand in
    pass. Anything else raises
    :class:`~repro.errors.ConfigurationError`.
    """
    buckets = {} if buckets is None else buckets
    missing = [rel.label() for rel in relations if rel not in buckets]
    if missing:
        raise ConfigurationError(
            f"buckets= has no entry for relations {missing}")
    sizes: dict[AttributeSet, int] = {}
    for rel in relations:
        b = size = buckets[rel]
        if type(b) is not int:  # a plain int needs no further check
            if not isinstance(b, numbers.Real) or isinstance(b, bool):
                raise ConfigurationError(
                    f"relation {rel} has bucket count {b!r}, not a number")
            try:
                size = math.floor(b)
            except (OverflowError, ValueError):  # inf, nan
                size = 0
        if size < 1:
            raise ConfigurationError(f"relation {rel} needs >= 1 bucket")
        sizes[rel] = size
    return sizes


#: The largest shard id ``simulate`` takes: slices times buckets stays
#: far inside int64.
_MAX_SHARD = 2**31 - 1


def _workers(n_epochs: int) -> int:
    """Threads for a kernel walk over ``n_epochs`` non-empty epochs: one
    per usable core, at most one per epoch."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_epochs))


def simulate(dataset: Dataset, config: Configuration,
             buckets: Mapping[AttributeSet, int], epoch_seconds: float,
             value_column: str | None = None,
             salt_seed: int = 0,
             counters: CostCounters | None = None,
             hfta: HFTA | None = None,
             registry=None,
             tables: Tables | None = None,
             shards: np.ndarray | None = None,
             ) -> SimulationResult:
    """Stream a dataset through a configuration; return counters + HFTA.

    ``shards``, when given, holds one shard id per record (1-D, integer,
    ``len(dataset)`` long, each in ``[0, 2**31)``, else
    :class:`~repro.errors.ConfigurationError`, raised before anything
    moves): every relation's table becomes ``max(id) + 1`` slices of its
    ``buckets`` entry, one per shard (one per id present when the largest
    id reaches the record count), and each record is walked in its
    shard's slice. The result is that of the shards walked one after
    the other, in shard order, into one HFTA.

    Pass existing ``counters``/``hfta`` to accumulate across several calls
    (the incremental runtime in :mod:`repro.gigascope.online` streams one
    epoch per call into shared accumulators), and the same ``tables`` to
    keep the kernel's buffers between them. With the kernel, a call over
    several epochs walks them on a thread pool and touches
    ``counters``/``hfta`` only once every epoch is walked: an error
    leaves both as they were. An optional
    :class:`~repro.observability.MetricsRegistry` records an ``engine``
    phase span, record/epoch counters and an ``engine.workers`` gauge;
    when None the engine performs no clock reads of its own.
    """
    rels = config.relations
    table_sizes = bucket_counts(rels, buckets)
    salts = {rel: relation_salt(rel.label(), salt_seed) for rel in rels}
    # Both walks read the emit rule from here; a relation that emits
    # still feeds its children.
    emit = [config.is_emitting(rel) for rel in rels]
    shards, slices = _shard_ids(shards, len(dataset))
    n_records = len(dataset)
    counters = counters if counters is not None else CostCounters(config)
    hfta = hfta if hfta is not None else HFTA()
    native = _native.kernel_available()
    with trace(registry, "engine"):
        epochs = list(dataset.epoch_slices(epoch_seconds))
        n_epochs = len(epochs)
        workers = _workers(n_epochs) if native and n_epochs > 1 else 1
        # A raw arrival's time is its index in the epoch and its weight
        # is 1: every epoch reads a prefix of the same two buffers.
        longest = max((end - start for _, start, end in epochs), default=0)
        times0 = np.arange(longest, dtype=np.int64)
        ones = np.ones(longest, dtype=np.int64)
        times0.flags.writeable = ones.flags.writeable = False
        values = dataset.values[value_column] if value_column else None
        if epochs and native:
            _walk_native(dataset, config, table_sizes, salts, emit,
                         counters, hfta, epochs, values, times0, ones,
                         shards, slices, tables, workers)
        elif epochs:
            _walk_numpy(dataset, config, table_sizes, salts, emit,
                        counters, hfta, epochs, values, times0, ones,
                        shards, slices)
    if registry is not None:
        registry.counter("engine.records").inc(n_records)
        registry.counter("engine.epochs").inc(n_epochs)
        registry.gauge("engine.workers").set(workers)
    walk = (f"native kernel, {workers} worker{'s' * (workers != 1)}"
            if native else "numpy")
    return SimulationResult(counters, hfta, n_records, n_epochs, walk)


def _shard_ids(shards, n_records: int) -> tuple[np.ndarray | None, int]:
    """``simulate``'s ``shards=``, checked once: None and one slice, or
    the ids as contiguous int64 and ``max(id) + 1`` slices, once they
    are known to be 1-D, integer, one per record and in ``[0, 2**31)``.
    Ids past the record count cannot all be in use: they become their
    ranks among the ids present, in the same order, so the tables grow
    with the shards in use and not with the largest id."""
    if shards is None:
        return None, 1
    ids = np.asarray(shards)
    if ids.ndim != 1:
        raise ConfigurationError(
            f"shards= must be 1-D shard ids, got shape {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            f"shards= must be integers, got dtype {ids.dtype}")
    if ids.shape[0] != n_records:
        raise ConfigurationError(
            f"shards= needs one id per record: {ids.shape[0]} ids for "
            f"{n_records} records")
    if not ids.size:
        return None, 1
    given, ids = ids, np.ascontiguousarray(ids, dtype=np.int64)
    # one pass: a negative id (or a wrapped uint64 one) reads as a huge
    # unsigned one
    unsigned = ids.view(np.uint64)
    high = int(unsigned.max())
    if high > _MAX_SHARD:
        bad = int(np.flatnonzero(unsigned > _MAX_SHARD)[0])
        raise ConfigurationError(
            f"shards= ids must lie in [0, 2**31): record {bad} has "
            f"shard id {given[bad]}")
    if high >= n_records:
        present, ranks = np.unique(ids, return_inverse=True)
        return ranks.astype(np.int64, copy=False), len(present)
    return ids, high + 1


def _walk_native(dataset: Dataset, config: Configuration,
                 table_sizes: dict[AttributeSet, int],
                 salts: dict[AttributeSet, int], emit: list[bool],
                 counters: CostCounters, hfta: HFTA,
                 epochs: list[tuple[int, int, int]],
                 values: np.ndarray | None, times0: np.ndarray,
                 ones: np.ndarray, shards: np.ndarray | None = None,
                 slices: int = 1, tables: Tables | None = None,
                 workers: int = 1) -> None:
    """Every epoch through the ingest kernel, one call per epoch, on
    ``workers`` threads (the calling one alone when 1), with ``slices``
    slices per table and each row in its ``shards`` slice. The walk
    folds each emitting relation's runs, extending the state the HFTA
    already holds for that relation and epoch; the HFTA and the counters
    take the folded states after the last epoch, in epoch order."""
    rels = config.relations
    names = list(dict.fromkeys(a for rel in rels for a in rel.names))

    def new_walk(longest: int) -> _native.Walk:
        position = {rel: i for i, rel in enumerate(rels)}
        column = {a: i for i, a in enumerate(names)}
        return _native.Walk(
            [-1 if p is None else position[p]
             for p in map(config.parent, rels)],
            [[column[a] for a in rel.names] for rel in rels],
            [salts[rel] for rel in rels],
            [table_sizes[rel] for rel in rels], emit, values is not None,
            longest, slices)

    key = (config, tuple(table_sizes[rel] for rel in rels),
           tuple(salts[rel] for rel in rels), tuple(emit), values is None,
           slices)
    walk = tables.walk if tables is not None and tables.key == key else None
    if walk is None or walk.longest < times0.shape[0]:
        # a kept walk that an epoch outgrew doubles
        walk = new_walk(max(times0.shape[0], 2 * walk.longest if walk else 0))
        if tables is not None:
            tables.key, tables.walk = key, walk
    walks = [walk] + [new_walk(times0.shape[0]) for _ in range(workers - 1)]
    # One conversion of the stream's columns serves every walk.
    columns = [np.ascontiguousarray(dataset.columns[a], dtype=np.int64)
               for a in names]
    if values is not None:
        values = np.ascontiguousarray(values, dtype=np.float64)
    # The states the folds extend: whatever the HFTA holds for an
    # emitting relation in an epoch of this call (a reopened live epoch,
    # an earlier call).
    seeds: dict[int, dict[int, ColumnarTotals]] = {}
    for epoch_id, _, _ in epochs:
        for r, emits in enumerate(emit):
            held = hfta.totals_columnar(rels[r], epoch_id) if emits else None
            if held is not None:
                seeds.setdefault(epoch_id, {})[r] = held
    # Fold outputs for the longest epoch after the largest seed, made on
    # this thread: an array a pool thread makes stays in its arena.
    room = times0.shape[0] + max((s.n_groups for held in seeds.values()
                                  for s in held.values()), default=0)
    for w in walks:
        w.bind(columns, values, shards)
        w.reserve_folds(room)
        w.stats[:] = 0

    def epoch_states(own: _native.Walk, epoch_id: int, lo: int,
                     hi: int) -> list:
        """One epoch's folded states. ``reps`` is a view of the walk's
        scratch, so the new groups' columns are gathered here, before
        the walk's next call."""
        n = hi - lo
        held = seeds.get(epoch_id, {})
        extend = {r: (s.columns, s.counts, s.value_sums, s.value_mins,
                      s.value_maxs) for r, s in held.items()}
        # the folds' rows are relative to ``lo``
        folds = _native.ingest_runs(own, lo, times0[:n], ones[:n], extend)
        states = []
        for fold in folds:
            rel = rels[fold.relation]
            cols = [dataset.columns[a][lo:][fold.reps] for a in rel.names]
            if fold.relation in held:
                cols = [np.concatenate((old, new)) for old, new
                        in zip(held[fold.relation].columns, cols)]
            states.append((rel, ColumnarTotals(
                rel.names, cols, fold.counts, fold.sums, fold.mins,
                fold.maxs), fold.runs))
        return states

    if len(walks) == 1:
        folded = [epoch_states(walk, *piece) for piece in epochs]
        stats = walk.stats
    else:
        folded = _on_pool(walks, epochs, epoch_states)
        stats = sum(w.stats for w in walks)
    for (epoch_id, _, _), states in zip(epochs, folded):
        for rel, state, runs in states:
            hfta.ingest_folded(rel, epoch_id, state, runs)
    # Every relation sees arrivals in every non-empty epoch.
    for rel, (a_intra, a_flush, e_intra, e_flush) in zip(
            rels, stats.tolist()):
        c = counters.counters(rel)
        c.arrivals_intra += a_intra
        c.arrivals_flush += a_flush
        c.evictions_intra += e_intra
        c.evictions_flush += e_flush


def _on_pool(walks: list[_native.Walk], epochs: list[tuple[int, int, int]],
             epoch_states) -> list[list]:
    """``epoch_states(walk, epoch_id, start, end)`` of every epoch, on
    one thread per walk; each thread pulls the next epoch from a shared
    queue. The first exception stops the threads after their current
    epoch and is raised here."""
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(epochs)):
        todo.put(i)
    folded: list = [None] * len(epochs)
    failed = threading.Event()

    def run(own: _native.Walk) -> None:
        try:
            while not failed.is_set():
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                folded[i] = epoch_states(own, *epochs[i])
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(len(walks)) as pool:
        futures = [pool.submit(run, w) for w in walks]
    errors = [f.exception() for f in futures if f.exception()]
    if errors:
        raise errors[0]
    return folded


def _walk_numpy(dataset: Dataset, config: Configuration,
                table_sizes: dict[AttributeSet, int],
                salts: dict[AttributeSet, int], emit: list[bool],
                counters: CostCounters, hfta: HFTA,
                epochs: list[tuple[int, int, int]],
                values: np.ndarray | None, times0: np.ndarray,
                ones: np.ndarray, shards: np.ndarray | None = None,
                slices: int = 1) -> None:
    """Every epoch through the numpy walk, one relation at a time, with
    ``slices`` slices per table and each row in its ``shards`` slice:
    the shard ids travel with every arrival batch."""
    depths = {rel: config.depth(rel) for rel in config.relations}
    max_b = max(table_sizes.values()) * slices
    raw = set(config.raw_relations)
    for epoch_id, lo, hi in epochs:
        n = hi - lo
        stride = np.int64(n + max_b + 2)
        arrivals: dict[AttributeSet, _Arrivals] = {}
        vals = values[lo:hi] if values is not None else None
        shard = shards[lo:hi] if shards is not None else None
        for root in raw:
            cols = {a: dataset.columns[a][lo:hi] for a in root.names}
            # A single record's partials: sum = min = max = its value.
            arrivals[root] = (times0[:n], ones[:n], vals, vals, vals, cols,
                              shard)
        for rel, emits in zip(config.relations, emit):  # parents first
            t, w, vs, vmin, vmax, cols, shard = arrivals.pop(rel)
            evicted = _process_relation(
                rel, t, w, vs, vmin, vmax, cols, n, stride,
                table_sizes[rel], salts[rel], depths[rel], counters,
                times_sorted=rel in raw, shard=shard)
            if evicted is None:
                continue
            ev_t, ev_w, ev_vs, ev_vmin, ev_vmax, ev_cols, ev_shard = evicted
            if emits:
                hfta.ingest_arrays(rel, epoch_id, ev_cols, ev_w, ev_vs,
                                   ev_vmin, ev_vmax)
            for child in config.children(rel):
                child_cols = {a: ev_cols[a] for a in child.names}
                arrivals[child] = (ev_t, ev_w, ev_vs, ev_vmin, ev_vmax,
                                   child_cols, ev_shard)


def _process_relation(rel: AttributeSet, t: np.ndarray, w: np.ndarray,
                      vs: np.ndarray | None, vmin: np.ndarray | None,
                      vmax: np.ndarray | None,
                      cols: dict[str, np.ndarray],
                      n: int, stride: np.int64, n_buckets: int, salt: int,
                      depth: int, counters: CostCounters,
                      times_sorted: bool = False,
                      shard: np.ndarray | None = None,
                      ) -> _Arrivals | None:
    c = counters.counters(rel)
    m = int(t.shape[0])
    if m == 0:
        return None

    flush_base = np.int64(n) + np.int64(depth) * stride
    intra = int(np.count_nonzero(t < n))
    c.arrivals_intra += intra
    c.arrivals_flush += m - intra
    columns = [cols[a] for a in rel.names]
    key = pack_tuples(columns)
    bkt = bucket_indices(columns, salt, n_buckets)
    if shard is not None:  # each shard's slice of the table
        bkt += shard * n_buckets
    if times_sorted:
        # t is already ascending (raw streams arrive in time order), so a
        # stable single-key sort on the bucket yields the same permutation
        # as the two-key lexsort at roughly half the cost.
        order = np.argsort(bkt, kind="stable")
    else:
        order = np.lexsort((t, bkt))
    sb = bkt[order]
    sk = key[order]
    st = t[order]

    new_bucket = np.empty(m, dtype=bool)
    new_bucket[0] = True
    np.not_equal(sb[1:], sb[:-1], out=new_bucket[1:])
    new_run = new_bucket.copy()
    new_run[1:] |= sk[1:] != sk[:-1]
    run_id = np.cumsum(new_run) - 1
    run_start = np.flatnonzero(new_run)
    n_runs = int(run_start.shape[0])

    run_w = np.bincount(run_id, weights=w[order],
                        minlength=n_runs).astype(np.int64)
    run_vs = (np.bincount(run_id, weights=vs[order], minlength=n_runs)
              if vs is not None else None)
    run_vmin = (np.minimum.reduceat(vmin[order], run_start)
                if vmin is not None else None)
    run_vmax = (np.maximum.reduceat(vmax[order], run_start)
                if vmax is not None else None)

    # Eviction time and cause per run: a run is evicted by the first arrival
    # of the next run if that run shares its bucket (collision), otherwise
    # at the flush, in bucket-scan order within this relation's window.
    evict_t = np.empty(n_runs, dtype=np.int64)
    flush_mask = np.ones(n_runs, dtype=bool)
    if n_runs > 1:
        nxt = run_start[1:]
        collided = ~new_bucket[nxt]
        flush_mask[:-1] = ~collided
        evict_t[:-1][collided] = st[nxt[collided]]
    evict_t[flush_mask] = flush_base + sb[run_start[flush_mask]]

    ev_intra = int(np.count_nonzero(evict_t < n))
    c.evictions_intra += ev_intra
    c.evictions_flush += n_runs - ev_intra

    rep = order[run_start]
    ev_cols = {a: cols[a][rep] for a in rel.names}
    ev_shard = shard[rep] if shard is not None else None
    return evict_t, run_w, run_vs, run_vmin, run_vmax, ev_cols, ev_shard
