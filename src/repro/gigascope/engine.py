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

When the host offers a C compiler, steps 1-3 run instead as one fused
native pass (:mod:`repro.native.ingest`) that simulates the direct-mapped
table record-at-a-time in C — pack, hash, probe, collision detect, and
eviction emission in a single loop — with bit-identical runs, counters,
and float partials. Which of the two runs is decided by
:mod:`repro.native` alone (no compiler or ``REPRO_NO_CKERNEL=1`` leaves
the numpy path); both are differentially tested against each other and
against the record-at-a-time reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.gigascope.hashing import (
    bucket_indices,
    pack_tuples,
    relation_salt,
)
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import CostCounters, SimulationResult
from repro.gigascope.records import Dataset
from repro.native import ingest as _native
from repro.observability.tracing import trace

__all__ = ["simulate"]

# (times, weights, value-sums, value-mins, value-maxs, group columns);
# the three value arrays are all present or all None.
_Arrivals = tuple[np.ndarray, np.ndarray, np.ndarray | None,
                  np.ndarray | None, np.ndarray | None,
                  dict[str, np.ndarray]]


def simulate(dataset: Dataset, config: Configuration,
             buckets: dict[AttributeSet, int], epoch_seconds: float,
             value_column: str | None = None,
             salt_seed: int = 0,
             counters: CostCounters | None = None,
             hfta: HFTA | None = None,
             registry=None,
             ) -> SimulationResult:
    """Stream a dataset through a configuration; return counters + HFTA.

    Pass existing ``counters``/``hfta`` to accumulate across several calls
    (the incremental runtime in :mod:`repro.gigascope.online` streams one
    epoch per call into shared accumulators). An optional
    :class:`~repro.observability.MetricsRegistry` records an ``engine``
    phase span plus record/epoch counters; when None the engine performs
    no clock reads of its own.
    """
    table_sizes: dict[AttributeSet, int] = {}
    for rel in config.relations:
        b = int(buckets[rel])
        if b < 1:
            raise ConfigurationError(f"relation {rel} needs >= 1 bucket")
        table_sizes[rel] = b
    salts = {rel: relation_salt(rel.label(), salt_seed)
             for rel in config.relations}
    depths = {rel: config.depth(rel) for rel in config.relations}
    max_b = max(table_sizes.values())
    counters = counters if counters is not None else CostCounters(config)
    hfta = hfta if hfta is not None else HFTA()
    with trace(registry, "engine"):
        slices = list(dataset.epoch_slices(epoch_seconds))
        n_epochs = len(slices)
        # A raw arrival's time is its index in the epoch and its weight
        # is 1: every epoch reads a prefix of the same two buffers.
        longest = max((end - start for _, start, end in slices), default=0)
        times0 = np.arange(longest, dtype=np.int64)
        ones = np.ones(longest, dtype=np.int64)
        times0.flags.writeable = ones.flags.writeable = False
        for epoch_id, start, end in slices:
            _simulate_epoch(dataset, config, table_sizes, salts, depths,
                            max_b, counters, hfta, epoch_id, start, end,
                            value_column, times0[:end - start],
                            ones[:end - start])
    if registry is not None:
        registry.counter("engine.records").inc(len(dataset))
        registry.counter("engine.epochs").inc(n_epochs)
    return SimulationResult(counters, hfta, len(dataset), n_epochs)


def _simulate_epoch(dataset: Dataset, config: Configuration,
                    table_sizes: dict[AttributeSet, int],
                    salts: dict[AttributeSet, int],
                    depths: dict[AttributeSet, int], max_b: int,
                    counters: CostCounters, hfta: HFTA, epoch_id: int,
                    start: int, end: int, value_column: str | None,
                    times0: np.ndarray, ones: np.ndarray) -> None:
    n = end - start
    stride = np.int64(n + max_b + 2)
    values = (dataset.values[value_column][start:end]
              if value_column else None)
    arrivals: dict[AttributeSet, _Arrivals] = {}
    raw = set(config.raw_relations)
    for root in raw:
        cols = {a: dataset.columns[a][start:end] for a in root.names}
        # A single record's partials: sum = min = max = its value.
        arrivals[root] = (times0, ones, values, values, values, cols)
    for rel in config.relations:  # topological: parents first
        t, w, vs, vmin, vmax, cols = arrivals.pop(rel)
        evicted = _process_relation(
            rel, t, w, vs, vmin, vmax, cols, n, stride, table_sizes[rel],
            salts[rel], depths[rel], counters,
            times_sorted=rel in raw)
        if evicted is None:
            continue
        ev_t, ev_w, ev_vs, ev_vmin, ev_vmax, ev_cols = evicted
        children = config.children(rel)
        if not children:
            hfta.ingest_arrays(rel, epoch_id, ev_cols, ev_w, ev_vs,
                               ev_vmin, ev_vmax)
            continue
        for child in children:
            child_cols = {a: ev_cols[a] for a in child.names}
            arrivals[child] = (ev_t, ev_w, ev_vs, ev_vmin, ev_vmax,
                               child_cols)


def _process_relation(rel: AttributeSet, t: np.ndarray, w: np.ndarray,
                      vs: np.ndarray | None, vmin: np.ndarray | None,
                      vmax: np.ndarray | None,
                      cols: dict[str, np.ndarray],
                      n: int, stride: np.int64, n_buckets: int, salt: int,
                      depth: int, counters: CostCounters,
                      times_sorted: bool = False,
                      ) -> _Arrivals | None:
    c = counters.counters(rel)
    m = int(t.shape[0])
    if m == 0:
        return None

    flush_base = np.int64(n) + np.int64(depth) * stride
    if _native.kernel_available():
        fused = _accounting_native(rel, t, w, vs, vmin, vmax, cols, n,
                                   n_buckets, salt, int(flush_base),
                                   times_sorted)
        if fused is not None:
            (rep, run_w, run_vs, run_vmin, run_vmax, evict_t,
             intra, ev_intra) = fused
            c.arrivals_intra += intra
            c.arrivals_flush += m - intra
            n_runs = int(rep.shape[0])
            c.evictions_intra += ev_intra
            c.evictions_flush += n_runs - ev_intra
            ev_cols = {a: cols[a][rep] for a in rel.names}
            return evict_t, run_w, run_vs, run_vmin, run_vmax, ev_cols

    intra = int(np.count_nonzero(t < n))
    c.arrivals_intra += intra
    c.arrivals_flush += m - intra
    columns = [cols[a] for a in rel.names]
    key = pack_tuples(columns)
    bkt = bucket_indices(columns, salt, n_buckets)
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
    return evict_t, run_w, run_vs, run_vmin, run_vmax, ev_cols


def _accounting_native(rel: AttributeSet, t: np.ndarray, w: np.ndarray,
                       vs: np.ndarray | None, vmin: np.ndarray | None,
                       vmax: np.ndarray | None, cols: dict[str, np.ndarray],
                       n: int, n_buckets: int, salt: int, flush_base: int,
                       times_sorted: bool):
    """Run the accounting pass through the fused C kernel, or None.

    Returns ``(rep, run_w, run_vs, run_vmin, run_vmax, evict_t,
    arrivals_intra, evictions_intra)`` with ``rep`` indexing the original
    (unsorted) arrival arrays, or None for a table vastly larger than
    the batch — the caller then takes the numpy path, which computes the
    identical result.
    """
    m = int(t.shape[0])
    # The kernel's table scan is O(n_buckets); beyond any sane
    # buckets-per-record ratio the numpy path's O(m log m) wins anyway.
    if n_buckets > 8 * m + 1024:
        return None
    # Dataset coerces attribute columns to int64 and value columns to
    # float64, and evictions are fancy-indexed from those. The uint64
    # view is the same bits the chain hashes.
    eq_cols = [cols[a].view(np.uint64) for a in rel.names]
    order = None
    if not times_sorted:
        # The kernel consumes arrivals in time order; fed streams arrive
        # in the parent's emission order instead. Times are distinct
        # within a relation, so a plain argsort is deterministic.
        order = np.argsort(t)
        eq_cols = [col[order] for col in eq_cols]
        t = t[order]
        w = w[order]
        if vs is not None:
            vs, vmin, vmax = vs[order], vmin[order], vmax[order]
    out = _native.ingest_runs(eq_cols, salt, t, w, vs, vmin, vmax,
                              n, n_buckets, flush_base)
    if order is not None:
        rep = order[out[0]]
        return (rep, *out[1:])
    return out
