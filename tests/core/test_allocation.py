"""Tests for space allocation (paper Section 5)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.allocation import (
    Allocation,
    ExhaustiveAllocator,
    ProportionalLinear,
    ProportionalSqrt,
    SupernodeLinear,
    SupernodeSqrt,
    flat_allocation,
    minimum_space,
    two_level_allocation,
    two_level_split,
)
from repro.core.allocation.base import allocation_of, split_to_buckets
from repro.core.collision.lookup import PAPER_MU, LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError
from tests.references import (
    RefExhaustiveAllocator,
    compositions,
    space_used,
)


def A(label):
    return AttributeSet.parse(label)


STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "CD": 2050, "BC": 1730, "BD": 1940,
    "ABC": 2117, "BCD": 2520, "ABCD": 2837,
})
PARAMS = CostParameters()
ALL_ALLOCATORS = [SupernodeLinear(), SupernodeSqrt(), ProportionalLinear(),
                  ProportionalSqrt(), ExhaustiveAllocator()]


class TestAllocationContainer:
    def test_scaled_floors_at_one(self):
        alloc = Allocation({A("A"): 2.0}).scaled(0.1)
        assert alloc[A("A")] == 1.0

    def test_rounded_fits_budget(self):
        alloc = Allocation({A("A"): 10.7, A("B"): 20.9})
        rounded = alloc.rounded(STATS, memory=64)
        assert all(float(b).is_integer() for b in rounded.buckets.values())
        assert space_used(rounded, STATS) <= 64
        assert rounded[A("A")] >= 10 and rounded[A("B")] >= 20

    def test_rounded_too_small_raises(self):
        alloc = Allocation({A("A"): 10.0})
        with pytest.raises(AllocationError):
            alloc.rounded(STATS, memory=5)


def spaces_to_allocation(config, stats, spaces, memory):
    """Per-relation space shares through the one-bucket floor
    (``split_to_buckets``) into an allocation."""
    priced = config.with_stats(stats)
    index = priced.universe.index
    shares = {index[rel]: space for rel, space in spaces.items()}
    return allocation_of(priced, split_to_buckets(priced, shares, memory))


class TestSpacesToAllocation:
    def test_respects_budget_and_floors(self):
        cfg = Configuration.flat([A("A"), A("B")])
        alloc = spaces_to_allocation(cfg, STATS,
                                     {A("A"): 1.0, A("B"): 999.0}, 100.0)
        assert alloc[A("A")] >= 1.0
        assert space_used(alloc, STATS) <= 100.0 + 1e-9

    def test_insufficient_memory_raises(self):
        cfg = Configuration.flat([A("A"), A("B")])
        with pytest.raises(AllocationError):
            spaces_to_allocation(cfg, STATS, {A("A"): 1, A("B"): 1}, 3.0)

    def test_degenerate_zero_scores_split_evenly(self):
        cfg = Configuration.flat([A("A"), A("B")])
        alloc = spaces_to_allocation(cfg, STATS,
                                     {A("A"): 0.0, A("B"): 0.0}, 100.0)
        assert alloc[A("A")] == pytest.approx(alloc[A("B")])


class TestAnalytic:
    def test_flat_is_sqrt_proportional(self):
        """Section 5.1: b_i proportional to sqrt(g_i) for equal entry sizes."""
        stats = RelationStatistics.from_counts({"A": 400, "B": 1600})
        cfg = Configuration.flat([A("A"), A("B")])
        alloc = flat_allocation(cfg, stats, 3000.0)
        assert alloc[A("B")] / alloc[A("A")] == pytest.approx(2.0, rel=1e-6)

    def test_flat_rejects_phantoms(self):
        cfg = Configuration.from_notation("AB(A B)")
        with pytest.raises(AllocationError):
            flat_allocation(cfg, STATS, 1000.0)

    def test_two_level_matches_eq_20_21(self):
        """Closed form reduces to the paper's Eq. 20/21 for h = l = 1."""
        scores = [400.0, 900.0, 2500.0]  # g_i with h=1, l=1
        memory, f = 10_000.0, 3
        c1, c2, mu = PARAMS.probe_cost, PARAMS.evict_cost, PAPER_MU
        g_sum = sum(math.sqrt(g) for g in scores)
        denom = g_sum + math.sqrt(g_sum ** 2 + f * c1 * memory / (mu * c2))
        expected = [memory * math.sqrt(g) / denom for g in scores]
        root, children = two_level_split(scores, memory, PARAMS)
        assert children == pytest.approx(expected)
        assert root == pytest.approx(memory - sum(expected))

    def test_two_level_root_takes_majority(self):
        """Paper: b_0 always takes more than half the available space."""
        root, children = two_level_split([100, 200, 300], 5000.0, PARAMS)
        assert root > 5000.0 / 2

    def test_two_level_children_sqrt_proportional(self):
        root, children = two_level_split([100.0, 400.0], 5000.0, PARAMS)
        assert children[1] / children[0] == pytest.approx(2.0)

    def test_two_level_allocation_structure_checks(self):
        with pytest.raises(AllocationError):
            two_level_allocation(Configuration.flat([A("A")]), STATS,
                                 1000.0, PARAMS)
        deep = Configuration.from_notation("ABC(AB(A B) C)",
                                           queries=[A("A"), A("B"), A("C")])
        with pytest.raises(AllocationError):
            two_level_allocation(deep, STATS, 1000.0, PARAMS)

    def test_two_level_allocation_end_to_end(self):
        cfg = Configuration.from_notation("ABC(A B C)")
        alloc = two_level_allocation(cfg, STATS, 20_000.0, PARAMS)
        assert space_used(alloc, STATS) == pytest.approx(20_000.0, rel=1e-6)

    def test_two_level_empty_children_raises(self):
        with pytest.raises(AllocationError):
            two_level_split([], 100.0, PARAMS)


class TestHeuristicAllocators:
    @pytest.mark.parametrize("allocator", ALL_ALLOCATORS,
                             ids=lambda a: a.name)
    def test_uses_budget_with_minimums(self, allocator):
        cfg = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
        alloc = allocator.allocate(cfg, STATS, 40_000.0, PARAMS)
        assert set(alloc.buckets) == set(cfg.relations)
        assert space_used(alloc, STATS) <= 40_000.0 + 1e-6
        assert all(b >= 1.0 for b in alloc.buckets.values())

    @pytest.mark.parametrize("allocator", ALL_ALLOCATORS,
                             ids=lambda a: a.name)
    def test_flat_configuration_supported(self, allocator):
        cfg = Configuration.flat([A(t) for t in "ABCD"])
        alloc = allocator.allocate(cfg, STATS, 20_000.0, PARAMS)
        assert space_used(alloc, STATS) <= 20_000.0 + 1e-6

    def test_sl_sr_optimal_on_two_level(self):
        """Paper: both SL and SR are exact for one phantom feeding all."""
        cfg = Configuration.from_notation("ABC(A B C)")
        exact = two_level_allocation(cfg, STATS, 30_000.0, PARAMS)
        for allocator in (SupernodeLinear(), SupernodeSqrt()):
            alloc = allocator.allocate(cfg, STATS, 30_000.0, PARAMS)
            for rel in cfg.relations:
                assert alloc[rel] == pytest.approx(exact[rel], rel=1e-9)

    def test_sl_sr_optimal_on_flat(self):
        cfg = Configuration.flat([A(t) for t in "ABC"])
        exact = flat_allocation(cfg, STATS, 10_000.0)
        for allocator in (SupernodeLinear(), SupernodeSqrt()):
            alloc = allocator.allocate(cfg, STATS, 10_000.0, PARAMS)
            for rel in cfg.relations:
                assert alloc[rel] == pytest.approx(exact[rel], rel=1e-9)

    def test_pl_space_proportional_to_groups(self):
        stats = RelationStatistics.from_counts({"A": 100, "B": 300})
        cfg = Configuration.flat([A("A"), A("B")])
        alloc = ProportionalLinear().allocate(cfg, stats, 8000.0, PARAMS)
        ratio = (alloc[A("B")] * stats.entry_units(A("B"))) / \
            (alloc[A("A")] * stats.entry_units(A("A")))
        assert ratio == pytest.approx(3.0)

    def test_pr_space_proportional_to_sqrt_groups(self):
        stats = RelationStatistics.from_counts({"A": 100, "B": 900})
        cfg = Configuration.flat([A("A"), A("B")])
        alloc = ProportionalSqrt().allocate(cfg, stats, 8000.0, PARAMS)
        ratio = (alloc[A("B")] * stats.entry_units(A("B"))) / \
            (alloc[A("A")] * stats.entry_units(A("A")))
        assert ratio == pytest.approx(3.0)


def cost_of(cfg, allocation):
    return per_record_cost(cfg, STATS, allocation.buckets, LookupModel(),
                           PARAMS)


class TestExhaustive:
    def test_compositions_cover_simplex(self):
        got = list(compositions(6, 3, [1, 1, 1]))
        assert len(got) == 10  # C(5,2)
        assert all(sum(c) == 6 for c in got)
        assert all(all(x >= 1 for x in c) for c in got)

    def test_compositions_respect_minimums(self):
        got = list(compositions(6, 2, [4, 1]))
        assert got == [(4, 2), (5, 1)]

    def test_grid_matches_descent(self):
        """The descent oracle reaches the paper's literal 1%-grid optimum
        (the grid, polished, lives on in ``tests/references.py``)."""
        cfg = Configuration.from_notation("AB(A B)")
        grid = RefExhaustiveAllocator(max_grid_relations=4)
        for memory in (5000.0, 20_000.0):
            g = grid.allocate(cfg, STATS, memory, PARAMS)
            d = ExhaustiveAllocator().allocate(cfg, STATS, memory, PARAMS)
            assert cost_of(cfg, d) <= cost_of(cfg, g) * 1.0001

    def test_es_beats_or_matches_heuristics(self):
        """ES is the reference optimum: never worse than any heuristic."""
        cfg = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
        es = ExhaustiveAllocator().allocate(cfg, STATS, 40_000.0, PARAMS)
        for allocator in (SupernodeLinear(), SupernodeSqrt(),
                          ProportionalLinear(), ProportionalSqrt()):
            alloc = allocator.allocate(cfg, STATS, 40_000.0, PARAMS)
            assert cost_of(cfg, es) <= cost_of(cfg, alloc) * 1.001

    def test_memory_too_small_raises(self):
        cfg = Configuration.flat([A(t) for t in "ABCD"])
        with pytest.raises(AllocationError):
            ExhaustiveAllocator().allocate(cfg, STATS,
                                           minimum_space(cfg, STATS) - 1,
                                           PARAMS)


class TestMinimumSpace:
    def test_counts_entry_units(self):
        cfg = Configuration.from_notation("AB(A B)")
        # h(AB)=3, h(A)=h(B)=2
        assert minimum_space(cfg, STATS) == 7.0


@given(st.sampled_from(ALL_ALLOCATORS),
       st.floats(min_value=500.0, max_value=200_000.0))
@settings(max_examples=60, deadline=None)
def test_allocators_always_fit_budget(allocator, memory):
    cfg = Configuration.from_notation("ABCD(AB BCD(BC BD CD))")
    alloc = allocator.allocate(cfg, STATS, memory, PARAMS)
    assert space_used(alloc, STATS) <= memory * (1 + 1e-9)
    assert all(b >= 1.0 - 1e-12 for b in alloc.buckets.values())
