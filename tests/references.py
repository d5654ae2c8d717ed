"""Reference implementations for the differential suites.

The straightforward versions of three things the service control plane
runs optimized: the phantom closure on ``AttributeSet`` objects (the
production one runs on bitmasks), the KMV update without the k-th
minimum filter, and a collector ``observe`` that hashes every relation
from scratch. ``tests/core/test_feeding_graph.py`` and
``tests/core/test_sketches.py`` compare the production code against
them input by input; ``tests/service/test_service.py`` swaps them in
for a whole churn run and requires the same sequence of plans.

For the data path the reference is the record-at-a-time ``SequentialLFTA``:
:func:`assert_matches_reference` compares an engine run, unsharded or
sharded, on whichever kernels the caller left available, with it, and
:func:`reference_report` is the ``RunReport`` a ``StreamSystem`` run
would return, computed by it.

:class:`RoundRobin` and :class:`KeyRange` are partitioners written the
way user code writes one: an object with ``shard_ids(dataset,
n_shards)`` returning numpy ids, which the sharded runtime validates and
scatters like :class:`~repro.parallel.HashPartitioner`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.cost_model import CostParameters
from repro.core.queries import QuerySet
from repro.gigascope import Dataset, RunReport, StreamSchema, simulate
from repro.gigascope.hashing import combine_columns, splitmix64
from repro.gigascope.lfta import run_reference
from repro.parallel import HashPartitioner, ShardedStreamSystem, split_dataset
from repro.parallel.merge import merge_results

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
    """``KMVDistinctCounter.update`` merging the whole batch, unfiltered."""
    if len(keys) == 0:
        return
    hashes = splitmix64(np.asarray(keys, dtype=np.uint64) ^ counter.salt)
    merged = np.unique(np.concatenate([counter._minima, hashes]))
    if merged.size > counter.k:
        merged = merged[:counter.k]
        counter._saturated = True
    counter._minima = merged


def reference_observe(collector, columns) -> None:
    """``StreamStatisticsCollector.observe``, one hash chain per relation."""
    n = None
    for rel in collector.relations:
        codes = combine_columns([np.asarray(columns[a]) for a in rel])
        if n is None:
            n = codes.size
        collector._distinct[rel].update(codes)
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


def assert_matches_reference(dataset, config, buckets, epoch_seconds,
                             value_column=None, shards=1):
    """The engine's counters and HFTA totals equal the sequential
    reference's, field for field; returns the engine's result.

    With ``shards > 1`` the engine side is a ``ShardedStreamSystem`` run
    and the reference side the sequential LFTA over each shard of the
    same partition, merged — so the partitioner, the per-shard engines
    and the merge are all inside the comparison.
    """
    if shards == 1:
        got = simulate(dataset, config, buckets, epoch_seconds,
                       value_column)
        ref = run_reference(dataset, config, buckets, epoch_seconds,
                            value_column)
    else:
        queries = QuerySet.counts([leaf.label() for leaf in config.leaves],
                                  epoch_seconds=epoch_seconds)
        system = ShardedStreamSystem(dataset, queries, config, buckets,
                                     value_column=value_column,
                                     shards=shards)
        got = system.run().result
        ids = HashPartitioner().shard_ids(dataset, shards)
        ref = merge_results(
            [run_reference(part, config, system.shard_buckets,
                           epoch_seconds, value_column)
             for part in split_dataset(dataset, ids, shards) if len(part)],
            config)
    assert got.counters.relations == ref.counters.relations
    assert got.hfta.evictions_received == ref.hfta.evictions_received
    for leaf in config.leaves:
        assert got.hfta.epochs(leaf) == ref.hfta.epochs(leaf)
        for epoch in ref.hfta.epochs(leaf):
            assert got.hfta.totals(leaf, epoch) == \
                ref.hfta.totals(leaf, epoch)
    return got
