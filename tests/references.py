"""Reference implementations for the differential suites.

The straightforward versions of three things the service control plane
runs optimized: the phantom closure on ``AttributeSet`` objects (the
production one runs on bitmasks), the KMV update without the k-th
minimum filter, and a collector ``observe`` that hashes every relation
from scratch. ``tests/core/test_feeding_graph.py`` and
``tests/core/test_sketches.py`` compare the production code against
them input by input; ``tests/service/test_service.py`` swaps them in
for a whole churn run and requires the same sequence of plans.

:func:`ref_epoch_slices` is the epoch cut as one floor/diff pass over
every timestamp; ``tests/gigascope/test_records.py`` holds the
search-based ``Dataset.epoch_slices`` to it.

For the data path the reference is the record-at-a-time ``SequentialLFTA``:
:func:`assert_matches_reference` compares an engine run, unsharded or
sharded (:func:`sharded_reference`, over the shard copies
:func:`split_dataset` gathers), with it, and :func:`reference_report`
is the ``RunReport`` a ``StreamSystem`` run would return, computed by
it.

The native library is the product's only body of four facts; their
numpy bodies live here as the references it is held to byte for byte:
the sort-based LFTA walk (:func:`numpy_walk`), the partition hash, the
statistics pass and the sketch update (:func:`reference_observe`).
:func:`numpy_bodies` swaps all four into the product, so a whole run
can be compared with one on the library.

:class:`RoundRobin` and :class:`KeyRange` are partitioners written the
way user code writes one: an object with ``shard_ids(dataset,
n_shards)`` returning numpy ids, which the sharded runtime validates and
walks like :class:`~repro.parallel.HashPartitioner`'s.

The ``ref_*`` functions are the planner as it ran on ``Configuration``
objects and dicts before it moved to index arrays, copied verbatim:
``with_phantom``, SL/PL, ``spaces_to_allocation``, Eqs. 7/8 and the
GC/GS loops (GS as its uncached full rescan, which chose exactly what
the cached one did), and :func:`ref_plan` wiring them like ``plan()``.
``tests/core/test_planner_differential.py`` and
``test_choosing_equivalence.py`` hold the production planner to them
bit for bit. :class:`RefExhaustiveAllocator`, :class:`RefCostEvaluator`
and :func:`ref_check_admission` are ES and admission from before they
priced allocations on the planner's forests (see their section below).
:class:`RefConfiguration` is ``Configuration`` as a dict tree, before it
became index arrays, and :func:`ref_enumerate_structures` the exhaustive
chooser's product walk over it (the last section).
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Mapping

import numpy as np
import pytest

from repro.core.allocation.analytic import flat_spaces, two_level_split
from repro.core.allocation.base import Allocation
from repro.core.attributes import AttributeSet
from repro.core.choosing.base import ChoiceResult, ChoiceStep
from repro.core.collision.base import clamp_rate
from repro.core.collision.lookup import PAPER_MU, LinearModel, LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostBreakdown, CostParameters
from repro.core.queries import QuerySet
from repro.core.sketches import StreamStatisticsCollector
from repro.errors import (
    AdmissionError,
    AllocationError,
    ConfigurationError,
    NotationError,
)
from repro.gigascope import Dataset, RunReport, StreamSchema, engine, simulate
from repro.gigascope.hashing import (
    bucket_indices,
    combine_columns,
    pack_tuples,
    splitmix64,
)
from repro.gigascope.hfta import HFTA
from repro.gigascope.lfta import SequentialLFTA, run_reference
from repro.gigascope.metrics import CostCounters, SimulationResult
from repro.native import partition as native_partition
from repro.parallel import HashPartitioner, ShardedStreamSystem
from repro.parallel.partition import check_shard_count, check_shard_ids
from tests.hfta_totals import totals

ABC_SCHEMA = StreamSchema(("A", "B", "C"), value_columns=("v",))


@dataclass(frozen=True)
class RoundRobin:
    """Record ``i`` to shard ``i % n_shards``: balanced, key-oblivious."""

    def shard_ids(self, dataset, n_shards):
        return np.arange(len(dataset)) % n_shards


@dataclass(frozen=True)
class KeyRange:
    """Contiguous ranges of one column, cut at the first ``n_shards - 1``
    of fixed increasing ``bounds``: shard ``i`` takes ``[b_i, b_{i+1})``."""

    column: str
    bounds: tuple = ()

    def shard_ids(self, dataset, n_shards):
        return np.searchsorted(np.asarray(self.bounds[:n_shards - 1]),
                               dataset.columns[self.column], side="right")


def space_used(allocation: Allocation, stats) -> float:
    """An allocation's total units: ``sum_R buckets_R * h_R``."""
    return sum(b * stats.entry_units(rel)
               for rel, b in allocation.buckets.items())


def reference_phantoms(query_attrs) -> list[AttributeSet]:
    """Close the query set under pairwise ``AttributeSet`` union."""
    queries = list(dict.fromkeys(query_attrs))
    query_set = set(queries)
    candidates: set[AttributeSet] = set()
    frontier: set[AttributeSet] = set(queries)
    while frontier:
        new: set[AttributeSet] = set()
        for a, b in combinations(sorted(frontier | candidates | query_set,
                                        key=AttributeSet.sort_key), 2):
            union = a | b
            if union in query_set or union in candidates or union in frontier:
                continue
            new.add(union)
        candidates |= frontier - query_set
        frontier = new
    candidates -= query_set
    return sorted(candidates, key=AttributeSet.sort_key)


def reference_kmv_update(counter, keys: np.ndarray) -> None:
    """A batch of keys into a ``KMVDistinctCounter``: each key salted and
    hashed, the whole batch merged into the minima, unfiltered, and the
    ``k`` smallest kept."""
    if len(keys) == 0:
        return
    hashes = splitmix64(np.asarray(keys, dtype=np.uint64) ^ counter.salt)
    merged = np.unique(np.concatenate([counter._minima, hashes]))
    if merged.size > counter.k:
        merged = merged[:counter.k]
        counter._saturated = True
    counter._minima = merged


def reference_observe(collector, columns) -> None:
    """``StreamStatisticsCollector.observe``, one hash chain per relation
    and the unfiltered update."""
    n = None
    for rel in collector.relations:
        codes = combine_columns([np.asarray(columns[a]) for a in rel])
        if n is None:
            n = codes.size
        reference_kmv_update(collector._distinct[rel], codes)
    collector.records_seen += int(n or 0)


def abc_stream(seed: int, n: int, domain: int, duration: float,
               clustered: bool) -> Dataset:
    """A small A/B/C stream with a value column; ``clustered`` repeats
    each group for a run of records, as flows do."""
    rng = np.random.default_rng(seed)
    if clustered:
        n_runs = max(1, n // 5)
        lengths = rng.integers(1, 10, n_runs)
        cols = {name: np.repeat(rng.integers(0, domain, n_runs),
                                lengths)[:n]
                for name in ABC_SCHEMA.attributes}
        n = len(next(iter(cols.values())))
    else:
        cols = {name: rng.integers(0, domain, n)
                for name in ABC_SCHEMA.attributes}
    return Dataset(ABC_SCHEMA, cols, np.sort(rng.uniform(0, duration, n)),
                   {"v": rng.uniform(40, 1500, n)})


def reference_report(dataset, queries, config, buckets,
                     value_column=None) -> RunReport:
    """``StreamSystem(dataset, queries, config, buckets, value_column=
    value_column).run()``, with the sequential reference LFTA in place of
    the engine."""
    result = run_reference(dataset, config, buckets, queries.epoch_seconds,
                           value_column)
    return RunReport(result, CostParameters(), queries)


def ref_epoch_slices(timestamps, epoch_seconds):
    """``Dataset.epoch_slices`` as a whole-array pass: floor every
    quotient, cut where it changes. O(n) per call, and the definition
    the search-based cut must reproduce slice for slice."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if len(timestamps) == 0:
        return []
    epoch_ids = np.floor(timestamps / epoch_seconds).astype(np.int64)
    boundaries = np.flatnonzero(np.diff(epoch_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(timestamps)]))
    return [(int(epoch_ids[start]), int(start), int(end))
            for start, end in zip(starts, ends)]


class _Batches:
    """Stands in for a shard LFTA's HFTA: keeps the batches it is handed,
    ``(relation, epoch, columns, counts, sums, mins, maxs)``."""

    def __init__(self) -> None:
        self.batches: list[tuple] = []

    def ingest_arrays(self, relation, epoch, columns, *partials) -> None:
        self.batches.append((relation, epoch, columns, *partials))


def sharded_reference(parts, config, buckets, epoch_seconds,
                      value_column=None) -> SimulationResult:
    """A sharded run as ``ShardedStreamSystem`` defines it, computed by
    the sequential LFTA: each shard (``parts``, in shard order) has its
    own LFTA, and each query's evictions of one epoch, every shard's in
    shard order, reach one HFTA as one batch, so every key is folded
    once; the counters are the shards' summed."""
    counters = CostCounters(config)
    shipped: dict[tuple, list] = {}
    for part in parts:
        lfta = SequentialLFTA(config, buckets)
        lfta.hfta = outbox = _Batches()
        values = part.values[value_column] if value_column else None
        for epoch_id, start, end in part.epoch_slices(epoch_seconds):
            lfta.start_epoch(epoch_id)
            for i in range(start, end):
                lfta.process_record(
                    {a: int(col[i]) for a, col in part.columns.items()},
                    None if values is None else float(values[i]))
            lfta.flush_epoch()
        for rel, counter in lfta.counters.relations.items():
            counters.counters(rel).merge(counter)
        for rel, epoch, *batch in outbox.batches:
            shipped.setdefault((rel, epoch), []).append(batch)
    hfta = HFTA()
    for (rel, epoch), batches in shipped.items():
        columns = {a: np.concatenate([cols[a] for cols, *_ in batches])
                   for a in rel.names}
        hfta.ingest_arrays(rel, epoch, columns, *(
            np.concatenate([np.asarray(batch[k]) for batch in batches])
            for k in range(1, 5)))
    epochs = {epoch for part in parts
              for epoch, _, _ in part.epoch_slices(epoch_seconds)}
    return SimulationResult(counters, hfta, sum(len(part) for part in parts),
                            len(epochs), "record at a time")


def assert_matches_reference(dataset, config, buckets, epoch_seconds,
                             value_column=None, shards=1):
    """The engine's counters and HFTA totals equal the sequential
    reference's, field for field; returns the engine's result.

    With ``shards > 1`` the engine side is a ``ShardedStreamSystem`` run
    and the reference side :func:`sharded_reference` over the shards of
    the same partition — so the partitioner and the shard slices of the
    one walk are both inside the comparison.
    """
    if shards == 1:
        got = simulate(dataset, config, buckets, epoch_seconds,
                       value_column)
        ref = run_reference(dataset, config, buckets, epoch_seconds,
                            value_column)
    else:
        queries = QuerySet.counts([q.label() for q in config.queries],
                                  epoch_seconds=epoch_seconds)
        system = ShardedStreamSystem(dataset, queries, config, buckets,
                                     value_column=value_column,
                                     shards=shards)
        got = system.run().result
        ids = HashPartitioner().shard_ids(dataset, shards)
        ref = sharded_reference(
            [part for part in split_dataset(dataset, ids, shards)
             if len(part)], config, system.shard_buckets, epoch_seconds,
            value_column)
    assert got.counters.relations == ref.counters.relations
    for field in ("evictions_received", "folds", "rows_folded"):
        assert getattr(got.hfta, field) == getattr(ref.hfta, field), field
    for query in config.queries:
        assert got.hfta.epochs(query) == ref.hfta.epochs(query)
        for epoch in ref.hfta.epochs(query):
            assert totals(got.hfta, query, epoch) == \
                totals(ref.hfta, query, epoch)
    return got


# ----------------------------------------------------------------------
# The numpy bodies of the native library's four entries
# ----------------------------------------------------------------------
# (times, weights, value-sums, value-mins, value-maxs, group columns,
# shard ids); the three value arrays are all present or all None, the
# shard ids None for a stream of one slice.
_Arrivals = tuple[np.ndarray, np.ndarray, np.ndarray | None,
                  np.ndarray | None, np.ndarray | None,
                  dict[str, np.ndarray], np.ndarray | None]


def numpy_walk(tables: engine.Tables, columns: Mapping[str, np.ndarray],
               values: np.ndarray | None, epochs: list[tuple[int, int, int]],
               hfta: HFTA, shards: np.ndarray | None = None,
               slices: int = 1) -> None:
    """Every epoch through the numpy walk, one relation at a time, with
    ``slices`` slices per table and each row in its ``shards`` slice:
    the shard ids travel with every arrival batch. ``tables.stats``
    takes the call's counters.

    The sort-based twin of the kernel's hash-based walk. Per relation
    it stable-sorts the arrivals by (bucket, time), finds the runs of
    equal keys with segment sums, derives each run's eviction time and
    cause, and hands the evicted runs to the children, and an emitting
    relation's to the HFTA as one batch per epoch. Flush order is
    encoded in the time axis: arrivals occupy ``[0, n)``, the flush of
    a depth-``d`` relation the window ``n + d * stride + bucket``,
    ``stride > n``, so windows never overlap and the top-down
    bucket-scan flush comes out in order."""
    rels, forest = tables.rels, tables.forest
    stats = tables.stats = np.zeros((len(rels), 4), dtype=np.int64)
    max_b = max(forest.sizes) * slices
    times0, ones = tables.arrivals(max(end - start
                                       for _, start, end in epochs))
    raw = [r for r, p in enumerate(forest.parent) if p < 0]
    depths = [0] * len(rels)
    children: list[list[int]] = [[] for _ in rels]
    for r, p in enumerate(forest.parent):  # parents first
        if p >= 0:
            depths[r] = depths[p] + 1
            children[p].append(r)
    for epoch_id, lo, hi in epochs:
        n = hi - lo
        stride = np.int64(n + max_b + 2)
        arrivals: dict[int, _Arrivals] = {}
        vals = values[lo:hi] if values is not None else None
        shard = shards[lo:hi] if shards is not None else None
        for r in raw:
            cols = {a: columns[a][lo:hi] for a in rels[r].names}
            # A single record's partials: sum = min = max = its value.
            arrivals[r] = (times0[:n], ones[:n], vals, vals, vals, cols,
                           shard)
        for r, rel in enumerate(rels):  # parents first
            t, w, vs, vmin, vmax, cols, shard = arrivals.pop(r)
            evicted = numpy_relation(
                rel, t, w, vs, vmin, vmax, cols, n, stride,
                forest.sizes[r], forest.salts[r], depths[r],
                stats[r], times_sorted=forest.parent[r] < 0, shard=shard)
            if evicted is None:
                continue
            ev_t, ev_w, ev_vs, ev_vmin, ev_vmax, ev_cols, ev_shard = evicted
            if forest.emit[r]:
                hfta.ingest_arrays(rel, epoch_id, ev_cols, ev_w, ev_vs,
                                   ev_vmin, ev_vmax)
            for child in children[r]:
                child_cols = {a: ev_cols[a] for a in rels[child].names}
                arrivals[child] = (ev_t, ev_w, ev_vs, ev_vmin, ev_vmax,
                                   child_cols, ev_shard)


def numpy_relation(rel: AttributeSet, t: np.ndarray, w: np.ndarray,
                   vs: np.ndarray | None, vmin: np.ndarray | None,
                   vmax: np.ndarray | None,
                   cols: dict[str, np.ndarray],
                   n: int, stride: np.int64, n_buckets: int, salt: int,
                   depth: int, counts: np.ndarray,
                   times_sorted: bool = False,
                   shard: np.ndarray | None = None,
                   ) -> _Arrivals | None:
    """One relation-epoch of the numpy walk: its arrivals' runs, their
    eviction times and partials, and its counters added to ``counts``
    (arrivals intra, at the flush, evictions intra, at the flush)."""
    m = int(t.shape[0])
    if m == 0:
        return None

    flush_base = np.int64(n) + np.int64(depth) * stride
    intra = int(np.count_nonzero(t < n))
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
    counts += (intra, m - intra, ev_intra, n_runs - ev_intra)

    rep = order[run_start]
    ev_cols = {a: cols[a][rep] for a in rel.names}
    ev_shard = shard[rep] if shard is not None else None
    return evict_t, run_w, run_vs, run_vmin, run_vmax, ev_cols, ev_shard


def reference_walk(tables, columns, values, epochs, hfta, shards=None,
                   workers=1) -> tuple[int, int]:
    """``engine._walk`` on :func:`numpy_walk`: always one thread and one
    lane, so the calling thread walks every epoch. ``shards`` are the
    engine's checked ``ShardIds``, or None."""
    if shards is None:
        numpy_walk(tables, columns, values, epochs, hfta)
    else:
        numpy_walk(tables, columns, values, epochs, hfta, shards.ids,
                   shards.slices)
    return 1, len(epochs)


def reference_hash_shards(cols, salt: int, n_shards: int) -> np.ndarray:
    """``native.partition.hash_shards``: the chain modulo the shards."""
    return (combine_columns(cols, salt) % np.uint64(n_shards)).astype(
        np.int64)


def reference_group_stats(cols, timestamps, timeout) -> tuple[int, int]:
    """``native.partition.group_stats`` as numpy counts it: the distinct
    packed keys, and the records that open a flow in (key, time) order,
    ``flow_count``'s rule (the flows are the groups when ``timeout`` is
    None, an infinite timeout)."""
    codes = pack_tuples(cols)
    groups = int(np.unique(codes).size)
    if timeout is None:
        return groups, groups
    order = np.lexsort((timestamps, codes))
    codes, times = codes[order], np.asarray(timestamps)[order]
    heads = np.ones(codes.shape[0], dtype=bool)
    heads[1:] = ~((codes[1:] == codes[:-1])
                  & ((times[1:] - times[:-1]) <= timeout))
    return groups, int(np.count_nonzero(heads))


@contextmanager
def numpy_bodies():
    """Inside the block the product runs the numpy bodies of this
    section in place of the native library's: the walk, the partition
    hash, the statistics pass and the sketch update. Whole systems run
    on them so, to be compared with a run on the library."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_walk", reference_walk)
        patch.setattr(native_partition, "hash_shards", reference_hash_shards)
        patch.setattr(native_partition, "group_stats", reference_group_stats)
        patch.setattr(StreamStatisticsCollector, "observe",
                      reference_observe)
        yield


def split_dataset(dataset: Dataset, shard_ids: np.ndarray,
                  n_shards: int) -> list[Dataset]:
    """Materialize the shard streams for a record-to-shard assignment.

    ``shard_ids`` must assign every record an integer id in
    ``[0, n_shards)``. Each shard gathers its rows in ascending order, so
    records keep their arrival order and timestamps remain
    non-decreasing.
    """
    n_shards = check_shard_count(n_shards)
    ids, _ = check_shard_ids(shard_ids, n_shards, len(dataset))
    return [Dataset(dataset.schema,
                    {a: col[rows] for a, col in dataset.columns.items()},
                    dataset.timestamps[rows],
                    {v: col[rows] for v, col in dataset.values.items()})
            for rows in (np.flatnonzero(ids == shard)
                         for shard in range(n_shards))]


# ----------------------------------------------------------------------
# The planner on Configuration objects and dicts
# ----------------------------------------------------------------------
def ref_with_phantom(config, phantom):
    """``Configuration.with_phantom``: minimal superset, captured children."""
    if phantom in config:
        raise ConfigurationError(f"{phantom} is already instantiated")
    relations = config.relations
    supersets = [r for r in relations if phantom < r]
    minimal = [s for s in supersets if not any(t < s for t in supersets)]
    new_parent_of_phantom = (min(minimal, key=AttributeSet.sort_key)
                             if minimal else None)
    parent = {rel: config.parent(rel) for rel in relations}
    parent[phantom] = new_parent_of_phantom
    for rel in relations:
        if config.parent(rel) == new_parent_of_phantom and rel < phantom:
            parent[rel] = phantom
    return Configuration(parent, config.queries)


def ref_collision_rates(config, stats, buckets, model, clustered=True):
    rates = {}
    for rel in config.relations:
        try:
            b = buckets[rel]
        except KeyError:
            raise AllocationError(
                f"no bucket count allocated for {rel}") from None
        if b <= 0:
            raise AllocationError(f"non-positive bucket count for {rel}: {b}")
        x = model.rate(stats.group_count(rel), b)
        if clustered and config.is_raw(rel):
            x = x / stats.flow_length(rel)
        rates[rel] = clamp_rate(x)
    return rates


def ref_intra_epoch_cost(config, rates, params):
    """Eq. 7; a query, leaf or not, pays ``c2`` on its collisions."""
    coeff = {}
    probe = 0.0
    evict = 0.0
    for rel in config.relations:  # topological: parents first
        parent = config.parent(rel)
        if parent is None:
            coeff[rel] = 1.0
        else:
            coeff[rel] = coeff[parent] * rates[parent]
        probe += coeff[rel]
        if rel in config.queries:
            evict += coeff[rel] * rates[rel]
    return CostBreakdown(probe * params.probe_cost,
                         evict * params.evict_cost)


def ref_per_record_cost(config, stats, buckets, model, params,
                        clustered=True):
    rates = ref_collision_rates(config, stats, buckets, model, clustered)
    return ref_intra_epoch_cost(config, rates, params).total


def ref_expected_occupancy(groups, buckets):
    if groups <= 0 or buckets <= 0:
        return 0.0
    if buckets <= 1.0:
        return 1.0
    p_empty = math.exp(groups * math.log1p(-1.0 / buckets))
    return buckets * (1.0 - p_empty)


def ref_flush_cost(config, stats, buckets, model, params):
    """Eq. 8; a query, leaf or not, ships its flush to the HFTA."""
    rates = ref_collision_rates(config, stats, buckets, model,
                                clustered=False)
    occ = {rel: ref_expected_occupancy(stats.group_count(rel), buckets[rel])
           for rel in config.relations}
    arrivals = {}
    probe = 0.0
    evict = 0.0
    for rel in config.relations:
        parent = config.parent(rel)
        if parent is None:
            arrivals[rel] = 0.0
        else:
            arrivals[rel] = occ[parent] + rates[parent] * arrivals[parent]
            probe += arrivals[rel]
        if rel in config.queries:
            evict += occ[rel] + arrivals[rel]
    return CostBreakdown(probe * params.probe_cost,
                         evict * params.evict_cost)


def ref_demand_score(config, stats, rel):
    v = stats.group_count(rel) * stats.entry_units(rel)
    if config.is_raw(rel):
        v /= stats.flow_length(rel)
    return v


def ref_spaces_to_allocation(config, stats, spaces, memory):
    min_needed = float(sum(stats.entry_units(rel)
                           for rel in config.relations))
    if memory < min_needed:
        raise AllocationError(
            f"memory {memory} units cannot hold one bucket per relation "
            f"({min_needed} units needed)")
    spaces = {rel: max(float(spaces[rel]), 0.0) for rel in config.relations}
    pinned = {}
    free = dict(spaces)
    budget = float(memory)
    while True:
        total = sum(free.values())
        if total <= 0:
            share = budget / len(free) if free else 0.0
            free = {rel: share for rel in free}
            total = budget
        scale = budget / total if total > 0 else 0.0
        below = [rel for rel in free
                 if free[rel] * scale < stats.entry_units(rel)]
        if not below:
            for rel in free:
                pinned[rel] = free[rel] * scale
            break
        for rel in below:
            pinned[rel] = float(stats.entry_units(rel))
            budget -= pinned[rel]
            del free[rel]
        if not free:
            break
    return Allocation({rel: pinned[rel] / stats.entry_units(rel)
                       for rel in config.relations})


def ref_sl_allocate(config, stats, memory, params, mu=PAPER_MU):
    """SL: supernode scores summed, flat split of the roots, two-level
    split of every supernode."""
    combined = {}
    for rel in reversed(config.relations):
        own = ref_demand_score(config, stats, rel)
        kids = config.children(rel)
        if not kids:
            combined[rel] = own
        else:
            combined[rel] = own + sum([combined[k] for k in kids])
    spaces = {}
    root_spaces = flat_spaces(
        {root: combined[root] for root in config.raw_relations}, memory)

    def decompose(rel, space):
        kids = config.children(rel)
        if not kids:
            spaces[rel] = space
            return
        own_space, kid_spaces = two_level_split(
            [combined[k] for k in kids], space, params, mu)
        spaces[rel] = own_space
        for kid, kid_space in zip(kids, kid_spaces):
            decompose(kid, kid_space)

    for root in config.raw_relations:
        decompose(root, root_spaces[root])
    return ref_spaces_to_allocation(config, stats, spaces, memory)


def ref_pl_allocate(config, stats, memory, params):
    """PL: space proportional to group counts."""
    weights = {rel: stats.group_count(rel) for rel in config.relations}
    total = sum(weights.values())
    spaces = {rel: memory * w / total for rel, w in weights.items()}
    return ref_spaces_to_allocation(config, stats, spaces, memory)


def ref_gc_choose(allocate, queries, stats, memory, params, model,
                  clustered=True, min_benefit=1e-12):
    """GreedyCollision.choose with ``allocate(config, stats, memory,
    params)`` as its allocator."""
    config = Configuration.nested(queries.group_bys, queries.group_bys)
    allocation = allocate(config, stats, memory, params)
    cost = ref_per_record_cost(config, stats, allocation.buckets, model,
                               params, clustered)
    trajectory = [ChoiceStep(None, config, cost)]
    remaining = [p for p in reference_phantoms(queries.group_bys)
                 if stats.has(p)]
    while remaining:
        best = None
        for phantom in remaining:
            try:
                trial_config = ref_with_phantom(config, phantom)
                trial_alloc = allocate(trial_config, stats, memory, params)
            except (ConfigurationError, AllocationError):
                continue
            trial_cost = ref_per_record_cost(
                trial_config, stats, trial_alloc.buckets, model, params,
                clustered)
            if best is None or trial_cost < best[0]:
                best = (trial_cost, phantom, trial_config, trial_alloc)
        if best is None or cost - best[0] <= min_benefit:
            break
        cost, chosen, config, allocation = best
        remaining.remove(chosen)
        trajectory.append(ChoiceStep(chosen, config, cost))
    return ChoiceResult(config, allocation, cost, tuple(trajectory))


def ref_phi_buckets(phi, config, stats):
    return {rel: max(phi * stats.group_count(rel), 1.0)
            for rel in config.relations}


def ref_gs_final_allocation(phi, config, stats, memory):
    """Leftover space by group counts; everything scaled down (floored
    at one bucket, unpaid) when the phi-sized tables do not fit."""
    buckets = ref_phi_buckets(phi, config, stats)
    used = sum(b * stats.entry_units(rel) for rel, b in buckets.items())
    if used > memory:
        factor = memory / used
        return Allocation({rel: max(1.0, b * factor)
                           for rel, b in buckets.items()})
    leftover = memory - used
    total_groups = sum(stats.group_count(rel) for rel in config.relations)
    for rel in config.relations:
        share = leftover * stats.group_count(rel) / total_groups
        buckets[rel] += share / stats.entry_units(rel)
    return Allocation(buckets)


def ref_gs_choose(phi, queries, stats, memory, params, model,
                  clustered=True, min_benefit=1e-12):
    """GreedySpace.choose, every candidate re-scored every round."""
    def cost_of(config):
        return ref_per_record_cost(config, stats,
                                   ref_phi_buckets(phi, config, stats),
                                   model, params, clustered)

    def distributed_cost(config):
        allocation = ref_gs_final_allocation(phi, config, stats, memory)
        return ref_per_record_cost(config, stats, allocation.buckets, model,
                                   params, clustered)

    config = Configuration.nested(queries.group_bys, queries.group_bys)
    cost = cost_of(config)
    trajectory = [ChoiceStep(None, config, distributed_cost(config))]
    remaining = [p for p in reference_phantoms(queries.group_bys)
                 if stats.has(p)]
    used = sum(max(phi * stats.group_count(rel), 1.0)
               * stats.entry_units(rel) for rel in config.relations)
    while remaining:
        best = None
        for phantom in remaining:
            extra = (max(phi * stats.group_count(phantom), 1.0)
                     * stats.entry_units(phantom))
            if used + extra > memory:
                continue
            try:
                trial_config = ref_with_phantom(config, phantom)
            except ConfigurationError:
                continue
            trial_cost = cost_of(trial_config)
            benefit_per_unit = (cost - trial_cost) / extra
            if best is None or benefit_per_unit > best[0]:
                best = (benefit_per_unit, phantom, extra)
        if best is None or best[0] <= min_benefit:
            break
        _, chosen, extra = best
        config = ref_with_phantom(config, chosen)
        cost = cost_of(config)
        used += extra
        remaining.remove(chosen)
        trajectory.append(ChoiceStep(chosen, config,
                                     distributed_cost(config)))
    allocation = ref_gs_final_allocation(phi, config, stats, memory)
    final_cost = ref_per_record_cost(config, stats, allocation.buckets,
                                     model, params, clustered)
    return ChoiceResult(config, allocation, final_cost, tuple(trajectory))


def ref_choose(algorithm, queries, stats, memory, params, phi=1.0,
               clustered=True, model=None):
    """The chooser ``plan(algorithm=...)`` runs (all but ``epes``)."""
    model = model or LookupModel()
    if algorithm == "gs":
        return ref_gs_choose(phi, queries, stats, memory, params, model,
                             clustered)
    allocate = ref_pl_allocate if algorithm == "gcpl" else ref_sl_allocate
    min_benefit = float("inf") if algorithm == "none" else 1e-12
    return ref_gc_choose(allocate, queries, stats, memory, params, model,
                         clustered, min_benefit)


def ref_plan(queries, stats, memory, params, algorithm="gcsl", phi=1.0,
             clustered=True, integer=True):
    """``plan()`` without peak-load repair: the choice, the allocation
    handed to the runtime, and Eqs. 7/8 of it."""
    model = LookupModel()
    result = ref_choose(algorithm, queries, stats, memory, params, phi,
                        clustered, model)
    allocation = result.allocation
    if integer:
        allocation = allocation.rounded(stats, memory)
    cost = ref_per_record_cost(result.configuration, stats,
                               allocation.buckets, model, params, clustered)
    flush = ref_flush_cost(result.configuration, stats, allocation.buckets,
                           model, params).total
    return result, allocation, cost, flush


# ----------------------------------------------------------------------
# ES and admission as they priced allocations through their own
# evaluator, before they moved onto the planner's forests: the evaluator
# (scalar ``cost`` and the batched ``cost_many``, with the lane-capable
# Eq. 7 and the vectorized ``LinearModel.rates`` it relied on), ES's
# ``allocate`` with its literal 1 % grid, and admission's candidate rows
# and check. ``tests/core/test_es_differential.py`` holds the production
# code to them bit for bit; the grid is also the reference the descent is
# checked against (``tests/core/test_allocation.py``).
# ----------------------------------------------------------------------


def ref_eq7_sums(order, parent, emits, x, zero=0.0):
    """Eq. 7's sums; each ``x[i]`` a rate or a column of lane rates."""
    reach = [0.0] * len(parent)
    probe = evict = zero
    for i in order:
        p = parent[i]
        r = 1.0 if p < 0 else reach[p] * x[p]
        reach[i] = r
        probe = probe + r
        if emits[i]:
            evict = evict + r * x[i]
    return probe, evict


def ref_linear_rates(model, groups, buckets):
    """``LinearModel.rates``: elementwise its scalar ``rate``."""
    g = np.asarray(groups, dtype=np.float64)
    b = np.asarray(buckets, dtype=np.float64)
    g, b = np.broadcast_arrays(g, b)
    valid = (g > 1.0) & (b > 0)
    safe_b = np.where(b > 0, b, 1.0)
    raw = model.alpha + model.mu * g / safe_b
    clamped = np.where(raw < 0.0, 0.0, np.where(raw > 1.0, 1.0, raw))
    return np.where(valid, clamped, 0.0)


class RefCostEvaluator:
    """Eq. 7 for space vectors over a fixed configuration, one vector
    (``cost``) or a batch lane by lane (``cost_many``)."""

    def __init__(self, config, stats, params, model=None, clustered=True):
        self.config = config
        self.relations = config.relations
        self.model = model if model is not None else LookupModel()
        index = {rel: i for i, rel in enumerate(self.relations)}
        self.parent_index = [
            -1 if config.parent(rel) is None else index[config.parent(rel)]
            for rel in self.relations
        ]
        self.emits = [rel in config.queries for rel in self.relations]
        self._order = range(len(self.relations))
        self.groups = [stats.group_count(rel) for rel in self.relations]
        self.entry_units = [stats.entry_units(rel) for rel in self.relations]
        self.flow_div = [
            stats.flow_length(rel) if (clustered and config.is_raw(rel))
            else 1.0
            for rel in self.relations
        ]
        self.c1 = params.probe_cost
        self.c2 = params.evict_cost
        self._groups_arr = np.asarray(self.groups, dtype=np.float64)
        self._entry_arr = np.asarray(self.entry_units, dtype=np.float64)
        self._flow_arr = np.asarray(self.flow_div, dtype=np.float64)
        self._groups_valid = self._groups_arr > 1.0

    def rates(self, spaces):
        return [clamp_rate(self.model.rate(self.groups[i],
                                           space / self.entry_units[i])
                           / self.flow_div[i])
                for i, space in enumerate(spaces)]

    def cost(self, spaces):
        probe, evict = ref_eq7_sums(self._order, self.parent_index,
                                    self.emits, self.rates(spaces))
        return probe * self.c1 + evict * self.c2

    def _model_rates(self, buckets_2d):
        if type(self.model) is LookupModel:
            return self._lookup_rates(buckets_2d)
        groups = np.broadcast_to(self._groups_arr, buckets_2d.shape)
        if type(self.model) is LinearModel:
            return np.array(ref_linear_rates(self.model, groups, buckets_2d),
                            dtype=np.float64)
        rate = self.model.rate
        flat = [rate(g, b) for g, b in zip(groups.ravel().tolist(),
                                           buckets_2d.ravel().tolist())]
        return np.asarray(flat, dtype=np.float64).reshape(buckets_2d.shape)

    def _lookup_rates(self, buckets_2d):
        table = np.asarray(self.model._table, dtype=np.float64)
        tstep = self.model._step
        positive = buckets_2d > 0
        valid = positive & self._groups_valid
        safe = np.where(positive, buckets_2d, 1.0)
        position = self._groups_arr / safe
        position /= tstep
        hi = position >= float(table.size - 1)
        invalid = ~valid
        idx = np.where(hi | invalid, 0.0, position).astype(np.int64)
        frac = position - idx
        left = table[idx]
        right = table[idx + 1]
        left *= 1.0 - frac
        right *= frac
        left += right
        np.copyto(left, table[-1], where=hi)
        np.copyto(left, 0.0, where=invalid)
        return left

    def cost_many(self, spaces_2d):
        spaces = np.asarray(spaces_2d, dtype=np.float64)
        if spaces.ndim != 2:
            raise ValueError("cost_many expects an (m, n) space matrix")
        m, n = spaces.shape
        if n != len(self.relations):
            raise ValueError(
                f"space matrix has {n} columns for {len(self.relations)} "
                "relations")
        buckets = spaces / self._entry_arr
        x = self._model_rates(buckets)
        np.divide(x, self._flow_arr, out=x)
        np.maximum(x, 0.0, out=x)
        np.minimum(x, 1.0, out=x)
        probe, evict = ref_eq7_sums(self._order, self.parent_index,
                                    self.emits, x.T,
                                    zero=np.zeros(m, dtype=np.float64))
        return probe * self.c1 + evict * self.c2

    def to_allocation(self, spaces):
        return Allocation({
            rel: spaces[i] / self.entry_units[i]
            for i, rel in enumerate(self.relations)
        })


def compositions(total, parts, minimums):
    """All ways to split ``total`` steps into ``parts`` with per-part
    floors."""
    if parts == 1:
        if total >= minimums[0]:
            yield (total,)
        return
    rest_min = sum(minimums[1:])
    for first in range(minimums[0], total - rest_min + 1):
        for rest in compositions(total - first, parts - 1, minimums[1:]):
            yield (first,) + rest


def ref_scalar_descend(evaluator, spaces, floors, step, min_step):
    n = len(spaces)
    cost = evaluator.cost(spaces)
    while step >= min_step:
        improved = True
        while improved:
            improved = False
            for i in range(n):
                if spaces[i] - step < floors[i]:
                    continue
                for j in range(n):
                    if i == j:
                        continue
                    spaces[i] -= step
                    spaces[j] += step
                    trial = evaluator.cost(spaces)
                    if trial < cost - 1e-15:
                        cost = trial
                        improved = True
                    else:
                        spaces[i] += step
                        spaces[j] -= step
                    if spaces[i] - step < floors[i]:
                        break
        step /= 2.0
    return spaces


@dataclass(frozen=True)
class RefExhaustiveAllocator:
    """ES: the literal grid for configurations of at most
    ``max_grid_relations`` relations (polished by a descent from
    ``grid_step / 2``), else multi-start descent from SL, PL and
    uniform."""

    grid_step: float = 0.01
    max_grid_relations: int = 0
    polish_step: float = 0.0025
    model: object = None
    clustered: bool = True

    def allocate(self, config, stats, memory, params):
        if memory < ref_minimum_space(config, stats):
            raise AllocationError(
                f"memory {memory} too small for {len(config)} relations")
        evaluator = RefCostEvaluator(config, stats, params, self.model,
                                     self.clustered)
        if len(config) <= self.max_grid_relations:
            spaces = self._grid_spaces(evaluator, stats, memory)
            spaces = self._descend(evaluator, stats, memory, list(spaces),
                                   initial_step=self.grid_step / 2)
        else:
            spaces = self._multistart_spaces(evaluator, config, stats,
                                             memory, params)
        return evaluator.to_allocation(spaces)

    def _grid_spaces(self, evaluator, stats, memory):
        steps = max(int(round(1.0 / self.grid_step)), len(evaluator.relations))
        unit = memory / steps
        minimums = [max(1, math.ceil(h / unit))
                    for h in evaluator.entry_units]
        best_cost = float("inf")
        best = None
        chunk = []
        for combo in compositions(steps, len(evaluator.relations), minimums):
            chunk.append(combo)
            if len(chunk) >= 16384:
                best_cost, best = self._best_grid_point(
                    evaluator, chunk, unit, best_cost, best)
                chunk = []
        if chunk:
            best_cost, best = self._best_grid_point(
                evaluator, chunk, unit, best_cost, best)
        if best is None:
            raise AllocationError(
                "grid too coarse to give every relation a bucket; lower "
                "grid_step or raise memory")
        return tuple(k * unit for k in best)

    @staticmethod
    def _best_grid_point(evaluator, chunk, unit, best_cost, best):
        rows = np.asarray(chunk, dtype=np.float64) * unit
        costs = evaluator.cost_many(rows)
        ranked = np.where(np.isnan(costs), np.inf, costs)
        k = int(np.argmin(ranked))
        if costs[k] < best_cost:
            return float(costs[k]), chunk[k]
        return best_cost, best

    def _descend(self, evaluator, stats, memory, spaces,
                 initial_step=None):
        floors = [float(h) for h in evaluator.entry_units]
        step = (initial_step if initial_step is not None
                else self.grid_step) * memory
        min_step = self.polish_step * memory
        base = [float(v) for v in spaces]
        if step < min_step:
            return base
        return ref_scalar_descend(evaluator, base, floors, step, min_step)

    def _multistart_spaces(self, evaluator, config, stats, memory, params):
        starts = []
        for allocate in (ref_sl_allocate, ref_pl_allocate):
            allocation = allocate(config, stats, memory, params)
            starts.append([allocation[rel] * stats.entry_units(rel)
                           for rel in evaluator.relations])
        allocation = ref_spaces_to_allocation(
            config, stats,
            {rel: memory / len(config) for rel in config.relations}, memory)
        starts.append([allocation[rel] * stats.entry_units(rel)
                       for rel in evaluator.relations])
        best_cost = float("inf")
        best = None
        for start in starts:
            refined = self._descend(evaluator, stats, memory, list(start),
                                    initial_step=0.08)
            cost = evaluator.cost(refined)
            if cost < best_cost:
                best_cost = cost
                best = refined
        assert best is not None
        return best


def ref_minimum_space(config, stats):
    return float(sum(stats.entry_units(rel) for rel in config.relations))


def ref_candidate_rows(evaluator, stats, memory):
    """Admission's sqrt-demand, proportional and uniform space splits,
    floored at one bucket per table."""
    entry = np.asarray(evaluator.entry_units, dtype=np.float64)
    demand = np.asarray([ref_demand_score(evaluator.config, stats, rel)
                         for rel in evaluator.relations], dtype=np.float64)
    shapes = [
        np.sqrt(demand) * entry,
        demand * entry,
        np.ones_like(entry),
    ]
    rows = []
    for shape in shapes:
        total = float(shape.sum())
        if total <= 0 or not math.isfinite(total):
            continue
        spaces = shape * (memory / total)
        deficit = float(np.clip(entry - spaces, 0.0, None).sum())
        spaces = np.maximum(spaces, entry)
        surplus = spaces > entry
        if deficit > 0 and surplus.any():
            excess = float((spaces[surplus] - entry[surplus]).sum())
            if excess > 0:
                scale = max(0.0, 1.0 - deficit / excess)
                spaces[surplus] = (entry[surplus]
                                   + (spaces[surplus] - entry[surplus])
                                   * scale)
        rows.append(spaces)
    return np.asarray(rows, dtype=np.float64)


def ref_check_admission(policy, registry, tenant, query, stats,
                        params=None):
    """``check_admission`` with the cost SLO priced by ``cost_many``."""
    params = params or CostParameters()
    candidate = registry.physical_query_set(extra=query)
    config = Configuration.flat(candidate.group_bys)

    floor = ref_minimum_space(config, stats)
    if floor > policy.memory:
        raise AdmissionError(
            f"cannot admit tenant {tenant!r}: binding constraint is "
            f"global-memory — {len(config)} tables need {floor:.0f} units "
            f"just for one bucket each, budget is {policy.memory:.0f}",
            constraint="global-memory", tenant=tenant,
            required=floor, limit=policy.memory)

    quota = policy.quota_for(tenant)
    if quota is not None:
        held = [r.group_by for r in registry.queries_for(tenant)]
        if query.group_by not in held:
            held.append(query.group_by)
        price = 0.0
        for attrs in held:
            sharing = set(registry.sharers(attrs)) | {tenant}
            price += (max(policy.phi * stats.group_count(attrs), 1.0)
                      * stats.entry_units(attrs)) / len(sharing)
        if price > quota:
            raise AdmissionError(
                f"cannot admit tenant {tenant!r}: binding constraint is "
                f"tenant-quota — reservation price {price:.0f} units "
                f"(phi={policy.phi:g} sizing, shared tables split) "
                f"exceeds the tenant's quota of {quota:.0f}",
                constraint="tenant-quota", tenant=tenant,
                required=price, limit=quota)

    if policy.max_cost_per_record is not None:
        evaluator = RefCostEvaluator(config, stats, params)
        rows = ref_candidate_rows(evaluator, stats, policy.memory)
        if rows.size:
            costs = evaluator.cost_many(rows)
            best = float(np.nanmin(costs))
            if best > policy.max_cost_per_record:
                raise AdmissionError(
                    f"cannot admit tenant {tenant!r}: binding constraint "
                    f"is cost-slo — best predicted cost {best:.3f}/record "
                    f"over {len(rows)} candidate allocations exceeds the "
                    f"SLO of {policy.max_cost_per_record:.3f}",
                    constraint="cost-slo", tenant=tenant,
                    required=best, limit=policy.max_cost_per_record)


# ----------------------------------------------------------------------
# Configuration as a dict tree, before it became index arrays, copied
# verbatim from the last version that had no index form at all (the
# version after it kept this tree and only added conversions to and from
# the planner's arrays), and the exhaustive chooser's structure
# generator over it. ``tests/core/test_configuration_reference.py`` and
# ``tests/core/test_enumerate_structures.py`` hold the production code
# to them.
# ----------------------------------------------------------------------


def _ref_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    current = ""
    for ch in text:
        if ch in "()":
            if current:
                tokens.append(current)
                current = ""
            tokens.append(ch)
        elif ch.isspace():
            if current:
                tokens.append(current)
                current = ""
        else:
            current += ch
    if current:
        tokens.append(current)
    return tokens


class _RefParser:
    """Recursive-descent parser for the configuration notation."""

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise NotationError("unexpected end of configuration notation")
        self._pos += 1
        return token

    def parse_forest(self) -> list[tuple[AttributeSet, list]]:
        """Parse a whitespace-separated list of nodes until ')' or EOF."""
        nodes: list[tuple[AttributeSet, list]] = []
        while True:
            token = self._peek()
            if token is None or token == ")":
                return nodes
            if token == "(":
                # A bare parenthesized group splices its contents (the paper
                # wraps whole configurations in one extra pair of parens).
                self._next()
                nodes.extend(self.parse_forest())
                if self._next() != ")":
                    raise NotationError("unbalanced parentheses")
                continue
            label = self._next()
            attrs = AttributeSet.parse(label)
            children: list = []
            if self._peek() == "(":
                self._next()
                children = self.parse_forest()
                if not children:
                    raise NotationError(f"empty child list for {label!r}")
                if self._next() != ")":
                    raise NotationError("unbalanced parentheses")
            nodes.append((attrs, children))

    def finish(self) -> None:
        if self._peek() is not None:
            raise NotationError(
                f"trailing tokens in configuration notation: {self._tokens[self._pos:]}"
            )


class RefConfiguration:
    """An immutable forest of instantiated relations.

    Parameters
    ----------
    parent:
        Mapping from each instantiated relation to its feeding parent, or
        ``None`` for raw relations (fed directly by the stream).
    queries:
        The user-query grouping sets. Every query must be instantiated, and
        every leaf of the forest must be a query.

    Notes
    -----
    Use :meth:`from_notation`, :meth:`from_relations`, :meth:`flat` or the
    surgery methods :meth:`with_phantom` / :meth:`without_phantom` rather
    than building parent maps by hand.
    """

    def __init__(self, parent: Mapping[AttributeSet, AttributeSet | None],
                 queries: Iterable[AttributeSet]):
        self._parent: dict[AttributeSet, AttributeSet | None] = dict(parent)
        self._queries: frozenset[AttributeSet] = frozenset(queries)
        self._children: dict[AttributeSet, list[AttributeSet]] = {
            rel: [] for rel in self._parent
        }
        for rel, par in self._parent.items():
            if par is not None:
                if par not in self._parent:
                    raise ConfigurationError(
                        f"parent {par} of {rel} is not instantiated")
                self._children[par].append(rel)
        for lst in self._children.values():
            lst.sort(key=AttributeSet.sort_key)
        self._validate()
        self._order = self._topological_order()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, queries: Iterable[AttributeSet]) -> "RefConfiguration":
        """The no-phantom configuration: every query is raw and leaf."""
        qs = list(queries)
        return cls({q: None for q in qs}, qs)

    @classmethod
    def from_notation(cls, text: str,
                      queries: Iterable[AttributeSet] | None = None
                      ) -> "RefConfiguration":
        """Parse the paper's notation, e.g. ``"(ABCD(AB BCD(BC BD CD)))"``.

        If ``queries`` is omitted, the leaves of the parsed forest are taken
        to be the user queries (the paper's convention: only queries are
        leaves).
        """
        parser = _RefParser(_ref_tokenize(text))
        forest = parser.parse_forest()
        parser.finish()
        if not forest:
            raise NotationError(f"no relations in notation {text!r}")
        parent: dict[AttributeSet, AttributeSet | None] = {}

        def visit(node: tuple[AttributeSet, list],
                  par: AttributeSet | None) -> None:
            attrs, children = node
            if attrs in parent:
                raise ConfigurationError(f"relation {attrs} appears twice")
            parent[attrs] = par
            for child in children:
                visit(child, attrs)

        for root in forest:
            visit(root, None)
        if queries is None:
            queries = [rel for rel in parent
                       if not any(p == rel for p in parent.values())]
        return cls(parent, queries)

    @classmethod
    def from_relations(cls, relations: Iterable[AttributeSet],
                       queries: Iterable[AttributeSet],
                       tie_break: Callable[[AttributeSet], object] | None = None
                       ) -> "RefConfiguration":
        """Derive the forest for a set of instantiated relations.

        Each relation's parent is its *minimal* instantiated strict superset.
        When several incomparable minimal supersets exist, ``tie_break``
        chooses among them (smallest key wins); the default prefers the
        smallest attribute set, then lexicographic order, which favours the
        parent with the fewest groups in typical data.
        """
        rels = sorted(set(relations), key=AttributeSet.sort_key)
        if tie_break is None:
            tie_break = AttributeSet.sort_key
        parent: dict[AttributeSet, AttributeSet | None] = {}
        for rel in rels:
            supersets = [other for other in rels if rel < other]
            minimal = [s for s in supersets
                       if not any(t < s for t in supersets)]
            if not minimal:
                parent[rel] = None
            else:
                parent[rel] = min(minimal, key=tie_break)
        return cls(parent, queries)

    # ------------------------------------------------------------------
    # Validation & structure
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._parent:
            raise ConfigurationError("a configuration must not be empty")
        for rel, par in self._parent.items():
            if par is not None and not rel < par:
                raise ConfigurationError(
                    f"{rel} cannot be fed by {par}: not a strict subset")
        missing = self._queries - set(self._parent)
        if missing:
            raise ConfigurationError(
                f"queries not instantiated: {sorted(missing, key=AttributeSet.sort_key)}")
        for rel in self._parent:
            if not self._children[rel] and rel not in self._queries:
                raise ConfigurationError(
                    f"leaf relation {rel} is not a user query")

    def _topological_order(self) -> list[AttributeSet]:
        order: list[AttributeSet] = []
        roots = sorted((r for r, p in self._parent.items() if p is None),
                       key=AttributeSet.sort_key)
        stack = list(reversed(roots))
        while stack:
            rel = stack.pop()
            order.append(rel)
            stack.extend(reversed(self._children[rel]))
        if len(order) != len(self._parent):
            raise ConfigurationError("configuration contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def relations(self) -> list[AttributeSet]:
        """All instantiated relations in topological order (parents first)."""
        return list(self._order)

    @property
    def queries(self) -> frozenset[AttributeSet]:
        return self._queries

    @property
    def phantoms(self) -> list[AttributeSet]:
        """Instantiated relations that are not user queries."""
        return [r for r in self._order if r not in self._queries]

    @property
    def raw_relations(self) -> list[AttributeSet]:
        """Relations fed directly by the stream (the forest roots)."""
        return [r for r in self._order if self._parent[r] is None]

    @property
    def leaves(self) -> list[AttributeSet]:
        """Relations with no children (always user queries)."""
        return [r for r in self._order if not self._children[r]]

    def parent(self, rel: AttributeSet) -> AttributeSet | None:
        return self._parent[rel]

    def children(self, rel: AttributeSet) -> list[AttributeSet]:
        return list(self._children[rel])

    def ancestors(self, rel: AttributeSet) -> list[AttributeSet]:
        """Instantiated ancestors, nearest (parent) first."""
        chain: list[AttributeSet] = []
        current = self._parent[rel]
        while current is not None:
            chain.append(current)
            current = self._parent[current]
        return chain

    def depth(self, rel: AttributeSet) -> int:
        """0 for raw relations, 1 for their children, and so on."""
        return len(self.ancestors(rel))

    def is_raw(self, rel: AttributeSet) -> bool:
        return self._parent[rel] is None

    def is_leaf(self, rel: AttributeSet) -> bool:
        return not self._children[rel]

    def __contains__(self, rel: object) -> bool:
        return rel in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefConfiguration):
            return NotImplemented
        return self._parent == other._parent and self._queries == other._queries

    def __hash__(self) -> int:
        return hash((frozenset(self._parent.items()), self._queries))

    # ------------------------------------------------------------------
    # Surgery
    # ------------------------------------------------------------------
    def with_phantom(self, phantom: AttributeSet) -> "RefConfiguration":
        """Add a phantom, re-attaching the affected relations.

        The phantom's parent becomes its minimal instantiated strict superset
        (or the stream); relations currently attached to that parent whose
        attributes are strict subsets of the phantom are re-attached to it.
        """
        if phantom in self._parent:
            raise ConfigurationError(f"{phantom} is already instantiated")
        supersets = [r for r in self._parent if phantom < r]
        minimal = [s for s in supersets if not any(t < s for t in supersets)]
        new_parent_of_phantom = (min(minimal, key=AttributeSet.sort_key)
                                 if minimal else None)
        parent = dict(self._parent)
        parent[phantom] = new_parent_of_phantom
        for rel, par in self._parent.items():
            if par == new_parent_of_phantom and rel < phantom:
                parent[rel] = phantom
        return RefConfiguration(parent, self._queries)

    def without_phantom(self, phantom: AttributeSet) -> "RefConfiguration":
        """Remove a phantom, re-attaching its children to its parent."""
        if phantom not in self._parent:
            raise ConfigurationError(f"{phantom} is not instantiated")
        if phantom in self._queries:
            raise ConfigurationError(f"{phantom} is a user query; it cannot be removed")
        grand = self._parent[phantom]
        parent = {rel: par for rel, par in self._parent.items() if rel != phantom}
        for rel in self._children[phantom]:
            parent[rel] = grand
        return RefConfiguration(parent, self._queries)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def to_notation(self) -> str:
        """Render in the paper's notation (inverse of :meth:`from_notation`)."""

        def render(rel: AttributeSet) -> str:
            kids = self._children[rel]
            if not kids:
                return rel.label()
            inner = " ".join(render(k) for k in kids)
            return f"{rel.label()}({inner})"

        return " ".join(render(root) for root in self.raw_relations)

    def __repr__(self) -> str:
        return f"RefConfiguration({self.to_notation()!r})"

    def __str__(self) -> str:
        return self.to_notation()


def ref_enumerate_structures(relations, queries, limit=64,
                             prune_single_child=False):
    """``enumerate_structures`` over ``AttributeSet`` relations: the
    cartesian product of minimal-superset parent choices, each
    assignment counted with a ``Counter``."""
    rels = sorted(set(relations), key=lambda r: r.sort_key())
    choices: list[list] = []
    for rel in rels:
        supersets = [other for other in rels if rel < other]
        minimal = [s for s in supersets
                   if not any(t < s for t in supersets)]
        choices.append(minimal if minimal else [None])
    queries = frozenset(queries)
    phantoms = [rel for rel in rels if rel not in queries]
    count = 0
    for assignment in product(*choices):
        if count >= limit:
            return
        fed = Counter(assignment)
        fewest = min((fed[p] for p in phantoms), default=2)
        if fewest == 0:
            continue  # a childless phantom: not a configuration
        if prune_single_child and fewest < 2:
            count += 1
            continue
        try:
            config = RefConfiguration(dict(zip(rels, assignment)), queries)
        except ConfigurationError:
            continue
        count += 1
        yield config
