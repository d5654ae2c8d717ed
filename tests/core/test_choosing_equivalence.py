"""Choosers vs the frozen dict-based planner of ``tests/references.py``.

The index-form choosers must reproduce the planner they replaced
*exactly* — configuration, allocation, cost and trajectory — on hand-picked
query sets: GS scores a round's candidates in one pass and re-scores only
the leaders exactly, GC prices every trial on index arrays.
``test_planner_differential.py`` runs the same comparison over random
query sets.
"""

import itertools
import random

import pytest

from repro.core.choosing.base import MIN_BENEFIT, ChoiceResult
from repro.core.choosing.greedy_collision import gcsl, gcpl
from repro.core.choosing.greedy_space import GreedySpace
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from tests.references import (
    ref_gc_choose,
    ref_gs_choose,
    ref_pl_allocate,
    ref_sl_allocate,
)

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
    return ref_gs_choose(gs.phi, queries, stats, memory, params, gs.model,
                         gs.clustered, MIN_BENEFIT)


def reference_gc_choose(gc, queries, stats, memory, params):
    allocate = {"SL": ref_sl_allocate, "PL": ref_pl_allocate}[
        gc.allocator.name]
    return ref_gc_choose(allocate, queries, stats, memory, params, gc.model,
                         gc.clustered, MIN_BENEFIT)


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
        """Every round scores every candidate, so there is no cache to
        turn off (``cache_benefits=`` is a ``TypeError``), and unclustered
        GS at other ``phi`` values also equals the full rescan."""
        queries, stats, memory = CASES[case]
        with pytest.raises(TypeError):
            GreedySpace(cache_benefits=False)
        for phi in (0.5, 2.0):
            gs = GreedySpace(phi=phi, clustered=False)
            assert result_key(gs.choose(queries, stats, memory, PARAMS)) == \
                result_key(reference_gs_choose(gs, queries, stats, memory,
                                               PARAMS))

    def test_cache_saves_evaluations(self, monkeypatch):
        """What the benefit cache used to save is now structural: a
        chooser prices index arrays and records the configurations it
        priced, so a plan builds no ``Configuration`` from a parent map
        and every trajectory step lives on the plan's one universe."""
        queries, stats, memory = CASES[6]
        built = []
        init = Configuration.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Configuration, "__init__", counting_init)
        for chooser in (GreedySpace(), gcsl()):
            built.clear()
            result = chooser.choose(queries, stats, memory, PARAMS)
            assert len(result.trajectory) > 1
            assert built == []
            assert result.configuration is \
                result.trajectory[-1].configuration
            assert len({id(step.configuration.universe)
                        for step in result.trajectory}) == 1


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
