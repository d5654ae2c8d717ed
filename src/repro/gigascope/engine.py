"""The LFTA engine: exact simulation of the direct-mapped tables.

Within an epoch, a direct-mapped table's behaviour is fully determined by,
per bucket, the time-ordered sequence of arriving group keys: a *run* of
equal keys accumulates into one entry; the entry is evicted when the next
run begins in the same bucket (a collision, at the time of the colliding
arrival) or at the end-of-epoch flush, which scans the tables top-down,
bucket by bucket. The record-at-a-time reference
(:class:`repro.gigascope.lfta.SequentialLFTA`) is that machine as the
paper states it (Sec. 2.2, Eqs. 7/8); this engine computes the same
counters and answers, counter for counter.

The walk is the native library's, one kernel call per epoch
(:mod:`repro.native.ingest`): every relation in topological order
simulates its direct-mapped table record-at-a-time in C, appends its
evictions in eviction (= time) order to a list that is its children's
arrival stream, and *folds* the emitting relations' runs itself, in
(bucket, start-time) order, into one row per group. Which relations
emit is one list of flags built here: the queries. A query that feeds
other relations ships its evictions to the HFTA *and* feeds its
children. The kernel folds in the walk, extending the state the HFTA
already holds for that relation and epoch (its rows first, then the
runs: the HFTA's own ordering rule), writes every group's aggregates
and key columns (read through its representative's row) into one block
per fold sized to its groups, and the HFTA keeps those arrays as its
state (``HFTA.ingest_folded``). There is no other body: without a C
compiler a call raises :class:`~repro.errors.NativeLibraryError`. The
test suite keeps a sort-based numpy walk (``tests/references.py``) that
holds the kernel to the same buckets, runs, float accumulation order,
counters, HFTA states (NaN sums included), group order and fold counts,
byte for byte.

*A bound walk.* Everything a configuration, its allocation, the salt
seed and the presence of a value column fix — relation order, table
sizes, salts, emit flags, column order, each relation's parent, which
counters are priced — is resolved once, when a :class:`Tables` binds to
them, and the kernel's walks of that forest are built from it at first
need and kept, one list of them (:meth:`Tables.walks`) for every way a
call walks. Every :func:`simulate` call walks through a bound
``Tables``: its own, or the caller's (``LiveStreamSystem`` keeps one
for the whole run, so an epoch close pays only for binding the walk to
the epoch's columns, the walk and the fold, and an era only for
binding its configuration).

*Epochs in parallel.* Every table is flushed at each epoch boundary, so
no LFTA state crosses an epoch and two epochs can be walked at the same
time. A kernel walk over more than one non-empty epoch runs on kept
walks, one per usable core and at most one per epoch, all bound to the
one stream the first walk converted and checked: the native library's
pool of helper threads walks epochs on them and the calling thread walks
too, and takes every epoch's folds in epoch order
(:func:`repro.native.ingest.ingest_epochs`). The HFTA gets the folded
states in epoch order, then relation order, and the walks' counters are
summed: the call is a one-walk call, bit for bit.

*One epoch on two lanes.* Once a relation is walked, its children's
subtrees are independent work (the paper's per-relation cost, Sec. 2.2).
A one-epoch kernel call (every live epoch close) through a ``Tables``
that has walked before splits the forest between two lanes when two
cores are usable and the split pays (:meth:`Tables.lanes`): the first
kept walk on the calling thread, the second a job of the pool. Lanes
are assigned once per binding, by list scheduling on the counters of
the binding's first call; a relation waits for what the lanes' one wait
rule names (:func:`repro.native.ingest.lane_waits`). The calling thread
takes both lanes' folds, and the call is a one-lane call, bit for bit
(:class:`repro.native.ingest.Lanes`).

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
from typing import Mapping

import numpy as np

from repro import native
from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostBreakdown, CostParameters
from repro.errors import ConfigurationError
from repro.gigascope.hashing import relation_salt
from repro.gigascope.hfta import HFTA, ColumnarTotals
from repro.gigascope.metrics import CostCounters, SimulationResult
from repro.gigascope.records import Dataset
from repro.native import ingest as _native
from repro.native.ingest import ShardIds
from repro.observability.tracing import trace

__all__ = ["Tables", "bucket_counts", "simulate"]


class Tables:
    """The LFTA of one configuration and allocation, bound once.

    :meth:`bind` resolves what the configuration, the bucket map, the
    salt seed and the presence of a value column fix: the relation
    order, table sizes, salts, emit flags, column order, each relation's
    parent, and which counters are priced. The kernel's walks of the
    bound forest are one kept list (:meth:`walks`), which serves a
    one-epoch call, the walks of a call over several epochs and the
    two lanes of a one-epoch call (:meth:`lanes`) alike. Every
    :func:`simulate` call binds the ``Tables`` it is handed, or a new
    one, and walks through it; a caller that runs one configuration
    through many calls (``LiveStreamSystem``, once per epoch close)
    hands each the same one and pays for the binding, the walks and the
    lane schedule once. Binding to another configuration, allocation,
    salt seed or value column starts again. The results never depend on
    it.

    After each call :attr:`stats` holds that call's counters,
    ``(arrivals_intra, arrivals_flush, evictions_intra,
    evictions_flush)`` per relation, until the next call.
    """

    __slots__ = ("config", "buckets", "salt_seed", "has_values", "rels",
                 "sizes", "salts", "emit", "names", "keys", "parent",
                 "stats", "_walks", "_epochs", "_lane_of", "_lanes",
                 "_priced", "_times", "_ones")

    def __init__(self) -> None:
        self.config: Configuration | None = None
        self.stats: np.ndarray | None = None
        self._walks: list[_native.Walk] = []

    def bind(self, config: Configuration,
             buckets: Mapping[AttributeSet, object], salt_seed: int = 0,
             values: bool = False) -> None:
        """Resolve what ``config``, ``buckets``, ``salt_seed`` and
        ``values`` (whether the stream carries a value column) fix,
        unless this ``Tables`` is bound to them already. A bad bucket
        map raises :class:`~repro.errors.ConfigurationError` and leaves
        the binding as it was."""
        if self.config is not None and (
                config is self.config or config == self.config) \
                and salt_seed == self.salt_seed \
                and values == self.has_values and buckets == self.buckets:
            return
        rels = config.relations
        sizes = bucket_counts(rels, buckets)
        position = {rel: r for r, rel in enumerate(rels)}
        parent = [-1 if p is None else position[p]
                  for p in map(config.parent, rels)]
        names = list(dict.fromkeys(a for rel in rels for a in rel.names))
        column = {a: c for c, a in enumerate(names)}
        # The walk reads the emit rule from here; a relation that emits
        # still feeds its children.
        emit = [config.is_emitting(rel) for rel in rels]
        # Which counters the cost model prices (as CostCounters prices
        # them): every intra arrival, a flush arrival below the stream,
        # and an emitting relation's evictions, intra and at the flush.
        priced = np.zeros((4, len(rels), 4), dtype=np.int64)
        priced[0, :, 0] = 1
        priced[1, :, 2] = priced[3, :, 3] = emit
        priced[2, :, 1] = [p >= 0 for p in parent]
        self.config, self.buckets = config, dict(buckets)
        self.salt_seed, self.has_values = salt_seed, values
        self.rels, self.sizes = rels, [sizes[rel] for rel in rels]
        self.salts = [relation_salt(rel.label(), salt_seed) for rel in rels]
        self.emit, self.names, self.parent = emit, names, parent
        self.keys = [[column[a] for a in rel.names] for rel in rels]
        self._priced = priced.reshape(4, -1)
        self._times = self._ones = np.empty(0, dtype=np.int64)
        self._walks = []
        self.stats = self._lanes = self._lane_of = None
        self._epochs = 0

    def walks(self, n: int, longest: int,
              slices: int = 1) -> list[_native.Walk]:
        """The first ``n`` kept kernel walks of the bound forest, with
        scratch for epochs of up to ``longest`` records and ``slices``
        slices per table. The list is built at first need; a walk whose
        scratch an epoch outgrows doubles it in place, and another slice
        count builds the whole list again."""
        kept = self._walks
        if kept and kept[0].slices != slices:
            kept.clear()
        for walk in kept[:n]:
            if walk.longest < longest:
                walk.reserve(max(longest, 2 * walk.longest))
        while len(kept) < n:
            kept.append(_native.Walk(self.parent, self.keys, self.salts,
                                     self.sizes, self.emit, self.has_values,
                                     longest, slices))
        return kept[:n]

    def lanes(self, longest: int, slices: int = 1) -> _native.Lanes | None:
        """The two lanes of a one-epoch kernel call, or None for one.

        A binding schedules its lanes once, at the first one-epoch call
        after a call that walked: that call's counters, per epoch, are
        each relation's expected work: its arrivals and runs, and a
        query's runs once more for its fold and once for the take of its
        folds (:func:`_schedule`). The binding's one-epoch calls split
        when the schedule saves at least one more :data:`LANE_HANDOFF`
        against one lane and at least two cores are usable; the lanes
        are the first two kept walks (:meth:`walks`)."""
        if native.cores() < 2:
            return None
        if self._lane_of is None:
            if not self._epochs:
                return None
            # a query's fold takes each run once more, and the take of
            # its folds as much again (a group per run at most)
            per_epoch = self.stats / self._epochs
            take = per_epoch[:, 2:].sum(axis=1) * self.emit
            lanes, saving = _schedule(
                self._walks[0], (per_epoch.sum(axis=1) + take).tolist(),
                take.tolist())
            self._lane_of = tuple(lanes) if saving >= LANE_HANDOFF else ()
        if not self._lane_of:
            return None
        first, second = self.walks(2, longest, slices)
        if self._lanes is None or self._lanes.walks[0] is not first:
            self._lanes = _native.Lanes(first, second, self._lane_of)
        return self._lanes

    def arrivals(self, longest: int) -> tuple[np.ndarray, np.ndarray]:
        """A raw arrival's times and weights for an epoch of up to
        ``longest`` records: its index in the epoch and 1. Every epoch
        reads a prefix of the same two read-only buffers."""
        if self._times.shape[0] < longest:
            self._times = np.arange(longest, dtype=np.int64)
            self._ones = np.ones(longest, dtype=np.int64)
            self._times.flags.writeable = self._ones.flags.writeable = False
        return self._times, self._ones

    def count_into(self, counters: CostCounters) -> None:
        """Add the last call's :attr:`stats` to ``counters``."""
        for rel, (a_intra, a_flush, e_intra, e_flush) in zip(
                self.rels, self.stats.tolist()):
            c = counters.counters(rel)
            c.arrivals_intra += a_intra
            c.arrivals_flush += a_flush
            c.evictions_intra += e_intra
            c.evictions_flush += e_flush

    def call_costs(self, params: CostParameters) -> tuple[float, float]:
        """The last call's intra-epoch and flush costs: its counters
        priced as :class:`CostCounters` prices a run's."""
        probe, evict, flush_probe, flush_evict = (
            self._priced @ self.stats.ravel()).tolist()
        return (CostBreakdown(probe * params.probe_cost,
                              evict * params.evict_cost).total,
                CostBreakdown(flush_probe * params.probe_cost,
                              flush_evict * params.evict_cost).total)


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


#: One hand-off between the two lanes of a one-epoch call, in the
#: schedule's unit of work (an arrival, a run or a folded run of one
#: relation): the pool's helper starts its lane this much after the
#: caller starts its own, and a wait for the other lane ends this much
#: after the relation waited for. On a 2-core Xeon (AVX-512) under KVM,
#: a ``highcard_live`` close (seed 1) walks about 40 000 such units in
#: 300-560 us, 8-14 ns each; the helper, asleep between closes, started
#: its lane 13 us after the caller, and a wait that had gone to sleep
#: ended about 13 us late, where a Python thread woken through a queue
#: took 20-45 us. A call splits only when the schedule
#: saves at least one more hand-off over one lane (:meth:`Tables.lanes`).
LANE_HANDOFF = 2048


def _schedule(walk: _native.Walk, work: list[float],
              take: list[float]) -> tuple[list[int], float]:
    """Two-lane list scheduling of ``walk``'s forest in walk order: each
    relation's lane, and the work the schedule saves against one lane.

    ``work[r]`` is relation ``r``'s work in its lane, ``take[r]`` the
    work of handing its folds over, which the calling thread does for
    both lanes: its own lane's as soon as it is walked, the other's
    once that is walked too. A relation starts on a lane once the lane
    is free and what it waits for there has finished
    (:func:`~repro.native.ingest.lane_waits`). Lane 1 starts
    :data:`LANE_HANDOFF` late, and a wait for the other lane ends as
    much late. Each relation takes the lane that leaves the call's end
    earliest, its parent's (lane 0 for a raw relation) on a tie."""
    parent = walk.parent
    finish = [0.0] * len(parent)
    lane = [0] * len(parent)
    free = [0.0, float(LANE_HANDOFF)]
    took = [0.0, 0.0]
    end = 0.0
    for r, p in enumerate(parent):
        best = (math.inf, 0.0, 0)
        for choice in ((lane[p], 1 - lane[p]) if p >= 0 else (0, 1)):
            lane[r] = choice
            begin = max([free[choice]] + [
                finish[q] + LANE_HANDOFF
                for q in _native.lane_waits(walk, lane, r)])
            done = begin + work[r]
            if choice == 0:
                ends = max(done + took[0] + take[r], free[1]) + took[1]
            else:
                ends = max(free[0] + took[0], done) + took[1] + take[r]
            if ends < best[0]:
                best = (ends, done, choice)
        end, finish[r], lane[r] = best
        free[lane[r]] = finish[r]
        took[lane[r]] += take[r]
    if 1 not in lane:
        return lane, 0.0
    return lane, sum(work) + sum(take) - end


def simulate(dataset: Dataset, config: Configuration,
             buckets: Mapping[AttributeSet, int], epoch_seconds: float,
             value_column: str | None = None,
             salt_seed: int = 0,
             counters: CostCounters | None = None,
             hfta: HFTA | None = None,
             registry=None,
             tables: Tables | None = None,
             shards: np.ndarray | ShardIds | None = None,
             ) -> SimulationResult:
    """Stream a dataset through a configuration; return counters + HFTA.

    ``dataset`` is a :class:`Dataset`, or records cut from checked ones
    that read like one: ``columns`` and ``values`` mappings, ``len()``
    and ``epoch_slices(epoch_seconds)`` (the live close hands the open
    epoch's records so, checked once, when they were pushed).

    ``shards``, when given, holds one shard id per record (1-D, integer,
    ``len(dataset)`` long, each in ``[0, 2**31)``, else
    :class:`~repro.errors.ConfigurationError`, raised before anything
    moves): every relation's table becomes ``max(id) + 1`` slices of its
    ``buckets`` entry, one per shard (one per id present when the largest
    id reaches the record count), and each record is walked in its
    shard's slice. The result is that of the shards walked one after
    the other, in shard order, into one HFTA. Ids whose maker checked
    them may come as :class:`~repro.native.ingest.ShardIds` with
    ``max(id) + 1`` as ``slices``, at most the record count; only their
    length and slice count are compared then, and no pass reads them
    before the walk.

    Pass existing ``counters``/``hfta`` to accumulate across several calls
    (the incremental runtime in :mod:`repro.gigascope.online` streams one
    epoch per call into shared accumulators), and the same ``tables`` to
    bind the configuration once and keep the kernel's walks between them
    (:class:`Tables`, which also holds each call's own counters). A call
    over several epochs walks them on the native library's pool, and a
    one-epoch call may walk on two lanes; either touches
    ``counters``/``hfta`` only once every job has run: an error (a fold
    out of memory in any walk or lane) leaves both as they were. Without
    the native library a call with records raises
    :class:`~repro.errors.NativeLibraryError`. An optional
    :class:`~repro.observability.MetricsRegistry` records an ``engine``
    phase span, record/epoch counters and the ``engine.workers`` and
    ``engine.lanes`` gauges (the kept walks of a call over several
    epochs, the caller's and the helpers' together; the lanes of a
    one-epoch call, 2 when it split); when None the
    engine performs no clock reads of its own.
    """
    tables = tables if tables is not None else Tables()
    tables.bind(config, buckets, salt_seed, value_column is not None)
    ids, slices = _shard_ids(shards, len(dataset))
    n_records = len(dataset)
    counters = counters if counters is not None else CostCounters(config)
    hfta = hfta if hfta is not None else HFTA()
    with trace(registry, "engine"):
        epochs = list(dataset.epoch_slices(epoch_seconds))
        n_epochs = len(epochs)
        workers = max(1, min(native.cores(), n_epochs))
        values = dataset.values[value_column] if value_column else None
        lanes = 1
        if epochs:
            lanes = _walk(tables, dataset.columns, values, epochs, hfta,
                          None if ids is None else ShardIds(ids, slices),
                          workers)
            tables.count_into(counters)
        else:
            tables.stats = np.zeros((len(tables.rels), 4), dtype=np.int64)
    if registry is not None:
        registry.counter("engine.records").inc(n_records)
        registry.counter("engine.epochs").inc(n_epochs)
        registry.gauge("engine.workers").set(workers)
        registry.gauge("engine.lanes").set(lanes)
    walk = (f"native kernel, {workers} worker{'s' * (workers != 1)}"
            + ", 2 lanes" * (lanes == 2))
    return SimulationResult(counters, hfta, n_records, n_epochs, walk)


def _shard_ids(shards, n_records: int) -> tuple[np.ndarray | None, int]:
    """``simulate``'s ``shards=``, checked once: None and one slice, or
    the ids as contiguous int64 and ``max(id) + 1`` slices, once they
    are known to be 1-D, integer, one per record and in ``[0, 2**31)``.
    Ids past the record count cannot all be in use: they become their
    ranks among the ids present, in the same order, so the tables grow
    with the shards in use and not with the largest id. Checked
    :class:`~repro.native.ingest.ShardIds` are taken as they are, once
    their length and slice count fit the records."""
    if shards is None:
        return None, 1
    if isinstance(shards, ShardIds):
        if shards.ids.shape != (n_records,) or \
                not 1 <= shards.slices <= n_records:
            raise ConfigurationError(
                f"checked shard ids do not fit {n_records} records: "
                f"{shards.ids.shape[0]} ids in {shards.slices} slices")
        return shards
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


def _walk(tables: Tables, columns: Mapping[str, np.ndarray],
          values: np.ndarray | None, epochs: list[tuple[int, int, int]],
          hfta: HFTA, shards: ShardIds | None = None,
          workers: int = 1) -> int:
    """Every epoch through the ingest kernel, one call per epoch, on
    ``workers`` kept walks (the caller and the library's pool,
    :func:`~repro.native.ingest.ingest_epochs`), with ``shards.slices``
    slices per table and each row in its ``shards`` slice (one slice
    without shards); one epoch alone walks on the lanes
    :meth:`Tables.lanes` gives. The walk folds each emitting relation's
    runs, extending the state the HFTA already holds for that relation
    and epoch; the HFTA takes the folded states after the last epoch, in
    epoch order, and ``tables.stats`` the call's counters. Returns the
    lanes the one epoch walked on (1 for several epochs)."""
    rels = tables.rels
    slices = 1 if shards is None else shards.slices
    longest = max(end - start for _, start, end in epochs)
    times0, ones = tables.arrivals(longest)
    lanes = tables.lanes(longest, slices) if len(epochs) == 1 else None
    walks = tables.walks(workers if lanes is None else 2, longest, slices)
    walk = walks[0]
    # One conversion and one check of the stream serve every walk.
    walk.bind([columns[a] for a in tables.names], values, shards)
    for other in walks[1:]:
        other.bind_like(walk)
    # The states the folds extend: whatever the HFTA holds for an
    # emitting relation in an epoch of this call (a reopened live epoch,
    # an earlier call).
    pieces = []
    for epoch_id, lo, hi in epochs:
        held = (hfta.totals_columnar(rels[r], epoch_id) if emits else None
                for r, emits in enumerate(tables.emit))
        pieces.append((lo, times0[:hi - lo], ones[:hi - lo], {
            r: (s.columns, s.counts, s.value_sums, s.value_mins,
                s.value_maxs)
            for r, s in enumerate(held) if s is not None}))
    for w in walks:
        w.stats[:] = 0
    if len(pieces) > 1:
        folded = _native.ingest_epochs(walks, pieces)
    else:
        folded = [_native.ingest_runs(walk, *pieces[0], lanes)]
    tables.stats, tables._epochs = sum(w.stats for w in walks), len(epochs)
    for (epoch_id, _, _), folds in zip(epochs, folded):
        for fold in folds:
            rel = rels[fold.relation]
            hfta.ingest_folded(rel, epoch_id, ColumnarTotals(
                rel.names, fold.columns, fold.counts, fold.sums, fold.mins,
                fold.maxs), fold.runs)
    return 1 if lanes is None else lanes.ran
