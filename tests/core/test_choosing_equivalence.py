"""Chooser fast paths vs verbatim pre-PR references.

``GreedySpace`` gained a cross-round benefit cache and an incremental
used-space accumulator. These tests pin the promised behaviour: GS with
the cache (the default) reproduces the original exhaustive rescan
*exactly* — configuration, allocation, cost and trajectory — and GC,
which has no cache, is the exhaustive rescan.
"""

import itertools
import random

import pytest

from repro.core.choosing.base import ChoiceResult, ChoiceStep
from repro.core.choosing.greedy_collision import GreedyCollision, gcsl, gcpl
from repro.core.choosing.greedy_space import GreedySpace
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError, ConfigurationError

STATS4 = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "CD": 2050, "BC": 1730, "BD": 1940,
    "ABC": 2117, "BCD": 2520, "ABCD": 2837,
})
PARAMS = CostParameters()


def _stats6(seed=7):
    rng = random.Random(seed)
    counts = {}
    for r in range(1, 7):
        for combo in itertools.combinations("ABCDEF", r):
            counts["".join(combo)] = float(rng.randint(200, 4000)) * r
    return RelationStatistics.from_counts(counts)


STATS6 = _stats6()

CASES = [
    (QuerySet.counts(["AB", "BC", "CD"]), STATS4, 5000.0),
    (QuerySet.counts(["AB", "BC", "CD"]), STATS4, 40000.0),
    (QuerySet.counts(["AB", "AC", "BD", "CD"]), STATS4, 15000.0),
    (QuerySet.counts(["AB", "AC", "BD", "CD"]), STATS4, 120000.0),
    (QuerySet.counts(["A", "B", "C", "D"]), STATS4, 40000.0),
    (QuerySet.counts(["ABC", "BCD", "AB", "CD"]), STATS4, 40000.0),
    (QuerySet.counts(["AB", "BC", "CD", "DE", "EF", "ACE", "BDF"]),
     STATS6, 250000.0),
    (QuerySet.counts(["ABC", "CDE", "DEF", "BD", "AF"]), STATS6, 30000.0),
    (QuerySet.counts(["ABC", "CDE", "DEF", "BD", "AF"]), STATS6, 900000.0),
]


def result_key(result: ChoiceResult):
    return (
        sorted(str(r) for r in result.configuration.relations),
        {str(rel): b for rel, b in result.allocation.buckets.items()},
        result.cost,
        [(str(s.phantom) if s.phantom else None, s.cost)
         for s in result.trajectory],
    )


def reference_gs_choose(gs: GreedySpace, queries, stats, memory, params):
    """Verbatim pre-PR GreedySpace.choose (full rescan every round)."""
    graph = FeedingGraph(queries)
    config = Configuration.from_relations(queries.group_bys,
                                          queries.group_bys)
    cost = gs._cost(config, stats, params)
    trajectory = [ChoiceStep(None, config,
                             gs._distributed_cost(config, stats, memory,
                                                  params))]
    remaining = [p for p in graph.phantoms if stats.has(p)]
    while remaining:
        used = gs._phi_space(config, stats)
        best = None
        for phantom in remaining:
            extra = (max(gs.phi * stats.group_count(phantom), 1.0)
                     * stats.entry_units(phantom))
            if used + extra > memory:
                continue
            try:
                trial_config = config.with_phantom(phantom)
            except ConfigurationError:
                continue
            trial_cost = gs._cost(trial_config, stats, params)
            benefit_per_unit = (cost - trial_cost) / extra
            if best is None or benefit_per_unit > best[0]:
                best = (benefit_per_unit, phantom, trial_config, trial_cost)
        if best is None or best[0] <= gs.min_benefit:
            break
        _, chosen, config, cost = best
        remaining.remove(chosen)
        trajectory.append(ChoiceStep(
            chosen, config,
            gs._distributed_cost(config, stats, memory, params)))
    allocation = gs._final_allocation(config, stats, memory)
    final_cost = per_record_cost(config, stats, allocation.buckets,
                                 gs.model, params, gs.clustered)
    return ChoiceResult(config, allocation, final_cost, tuple(trajectory))


def reference_gc_choose(gc: GreedyCollision, queries, stats, memory, params):
    """Verbatim pre-PR GreedyCollision.choose (exhaustive rescan)."""
    graph = FeedingGraph(queries)
    config = Configuration.from_relations(queries.group_bys,
                                          queries.group_bys)
    allocation = gc.allocator.allocate(config, stats, memory, params)
    cost = per_record_cost(config, stats, allocation.buckets, gc.model,
                           params, gc.clustered)
    trajectory = [ChoiceStep(None, config, cost)]
    remaining = [p for p in graph.phantoms if stats.has(p)]
    while remaining:
        best = None
        for phantom in remaining:
            try:
                trial_config = config.with_phantom(phantom)
                trial_alloc = gc.allocator.allocate(
                    trial_config, stats, memory, params)
            except (ConfigurationError, AllocationError):
                continue
            trial_cost = per_record_cost(
                trial_config, stats, trial_alloc.buckets, gc.model,
                params, gc.clustered)
            if best is None or trial_cost < best[0]:
                best = (trial_cost, phantom, trial_config, trial_alloc)
        if best is None or cost - best[0] <= gc.min_benefit:
            break
        cost, chosen, config, allocation = best
        remaining.remove(chosen)
        trajectory.append(ChoiceStep(chosen, config, cost))
    return ChoiceResult(config, allocation, cost, tuple(trajectory))


class TestGreedySpaceCache:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_cached_matches_reference_exactly(self, case):
        queries, stats, memory = CASES[case]
        cached = GreedySpace().choose(queries, stats, memory, PARAMS)
        reference = reference_gs_choose(GreedySpace(), queries, stats,
                                        memory, PARAMS)
        assert result_key(cached) == result_key(reference)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_uncached_matches_reference_exactly(self, case):
        queries, stats, memory = CASES[case]
        plain = GreedySpace(cache_benefits=False).choose(
            queries, stats, memory, PARAMS)
        reference = reference_gs_choose(GreedySpace(), queries, stats,
                                        memory, PARAMS)
        assert result_key(plain) == result_key(reference)

    def test_cache_saves_evaluations(self, monkeypatch):
        import repro.core.choosing.greedy_space as gsm
        queries, stats, memory = CASES[6]
        calls = {"n": 0}
        original = per_record_cost

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(gsm, "per_record_cost", counting)
        GreedySpace().choose(queries, stats, memory, PARAMS)
        cached_calls = calls["n"]
        calls["n"] = 0
        GreedySpace(cache_benefits=False).choose(queries, stats, memory,
                                                 PARAMS)
        assert cached_calls < calls["n"]


class TestGreedyCollision:
    @pytest.mark.parametrize("maker", [gcsl, gcpl])
    @pytest.mark.parametrize("case", [0, 1, 3, 5])
    def test_default_matches_reference_exactly(self, maker, case):
        queries, stats, memory = CASES[case]
        got = maker().choose(queries, stats, memory, PARAMS)
        reference = reference_gc_choose(maker(), queries, stats, memory,
                                        PARAMS)
        assert result_key(got) == result_key(reference)

    @pytest.mark.parametrize("case", [1, 5, 6])
    def test_lazy_scan_is_sane(self, case):
        """GC has one scan, the exhaustive one: its greedy invariants
        hold (a strictly improving trajectory that ends at the reported
        cost), and the approximate lazy scan is not a setting."""
        queries, stats, memory = CASES[case]
        result = gcsl().choose(queries, stats, memory, PARAMS)
        costs = [step.cost for step in result.trajectory]
        assert len(costs) > 1
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert result.cost == costs[-1]
        with pytest.raises(TypeError):
            gcsl(cache_benefits=True)
