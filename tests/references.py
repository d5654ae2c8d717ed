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

The ``ref_*`` functions are the planner as it ran on ``Configuration``
objects and dicts before it moved to index arrays, copied verbatim:
``with_phantom``, SL/PL, ``spaces_to_allocation``, Eqs. 7/8 and the
GC/GS loops (GS as its uncached full rescan, which chose exactly what
the cached one did), and :func:`ref_plan` wiring them like ``plan()``.
``tests/core/test_planner_differential.py`` and
``test_choosing_equivalence.py`` hold the production planner to them
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.allocation.analytic import flat_spaces, two_level_split
from repro.core.allocation.base import Allocation
from repro.core.attributes import AttributeSet
from repro.core.choosing.base import ChoiceResult, ChoiceStep
from repro.core.collision.base import clamp_rate
from repro.core.collision.lookup import PAPER_MU, LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostBreakdown, CostParameters
from repro.core.queries import QuerySet
from repro.errors import AllocationError, ConfigurationError
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
    """Eq. 7."""
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
        if config.is_leaf(rel):
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
    """Eq. 8."""
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
        if config.is_leaf(rel):
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
    config = Configuration.from_relations(queries.group_bys,
                                          queries.group_bys)
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

    config = Configuration.from_relations(queries.group_bys,
                                          queries.group_bys)
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
