"""Tests for phantom-choosing algorithms (GS, GC, EPES)."""

import pytest

from repro.core.attributes import AttributeSet
from repro.core.choosing import (
    ExhaustiveChoice,
    GreedyCollision,
    GreedySpace,
    gcpl,
    gcsl,
)
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.collision import LinearModel, LookupModel
from repro.core.optimizer import plan
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError
from repro.experiments.timing import PAPER_LIKE_GROUPS
from tests.references import space_used


def A(label):
    return AttributeSet.parse(label)


def phantoms_chosen(result) -> list[AttributeSet]:
    """The phantoms a choice added, in the order it added them."""
    return [step.phantom for step in result.trajectory
            if step.phantom is not None]


STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "AD": 1610, "BC": 1730, "BD": 1940, "CD": 2050,
    "ABC": 2117, "ABD": 2260, "ACD": 2390, "BCD": 2520,
    "ABCD": 2837,
})
PARAMS = CostParameters()
QUERIES = QuerySet.counts(["A", "B", "C", "D"])
PAIR_QUERIES = QuerySet.counts(["AB", "BC", "BD", "CD"])


class TestGreedyCollision:
    def test_improves_over_flat(self):
        result = gcsl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        flat_cost = result.trajectory[0].cost
        assert result.cost < flat_cost
        assert phantoms_chosen(result)  # at least one phantom chosen

    def test_trajectory_costs_decrease(self):
        """Each greedy step strictly improves the predicted cost."""
        result = gcsl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        costs = [step.cost for step in result.trajectory]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_first_phantom_biggest_gain(self):
        """Figure 12: the first phantom introduces the largest decrease."""
        result = gcsl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        costs = [step.cost for step in result.trajectory]
        if len(costs) >= 3:
            drops = [a - b for a, b in zip(costs, costs[1:])]
            assert drops[0] == max(drops)

    def test_queries_always_instantiated(self):
        result = gcsl().choose(PAIR_QUERIES, STATS, 40_000.0, PARAMS)
        for q in PAIR_QUERIES.group_bys:
            assert q in result.configuration

    def test_tiny_memory_never_hurts(self):
        """Under saturated tables every greedy step must still pay off.

        (With the precise collision model, x < 1 strictly, so phantom
        chains can filter marginally even at tiny sizes — the greedy may
        legitimately keep some; what it must never do is end up costlier
        than the query-only configuration.)
        """
        result = gcsl().choose(QUERIES, STATS, 60.0, PARAMS)
        assert result.cost <= result.trajectory[0].cost

    def test_gcpl_uses_pl_allocation(self):
        assert gcpl().name == "GCPL"
        result = gcpl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        assert result.cost > 0

    def test_allocation_matches_configuration(self):
        result = gcsl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        assert set(result.allocation.buckets) == \
            set(result.configuration.relations)

    def test_skips_unknown_relations(self):
        """Candidates without recorded statistics are ignored."""
        partial = RelationStatistics.from_counts(
            {"A": 552, "B": 760, "C": 940, "D": 1120, "ABCD": 2837})
        result = gcsl().choose(QUERIES, partial, 40_000.0, PARAMS)
        for phantom in result.configuration.phantoms:
            assert partial.has(phantom)


class TestGreedySpace:
    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            GreedySpace(phi=0)

    def test_allocation_uses_leftover(self):
        result = GreedySpace(phi=1.0).choose(QUERIES, STATS, 40_000.0,
                                             PARAMS)
        # Leftover space is distributed: total used should be ~ the budget.
        assert space_used(result.allocation, STATS) == pytest.approx(
            40_000.0, rel=1e-6)

    def test_large_phi_blocks_phantoms(self):
        """Figure 11: phi = 1.3 leaves no room for more than one phantom."""
        few = GreedySpace(phi=3.0).choose(QUERIES, STATS, 40_000.0, PARAMS)
        many = GreedySpace(phi=0.6).choose(QUERIES, STATS, 40_000.0, PARAMS)
        assert len(phantoms_chosen(few)) <= len(phantoms_chosen(many))

    def test_oversized_queries_scale_down(self):
        """If phi*g for the queries alone exceeds M, tables shrink to fit."""
        result = GreedySpace(phi=5.0).choose(QUERIES, STATS, 3000.0, PARAMS)
        assert space_used(result.allocation, STATS) <= 3000.0 * (1 + 1e-9)
        assert result.configuration == Configuration.flat(QUERIES.group_bys)

    def test_scaled_down_tables_pay_for_their_one_bucket_floor(self):
        """When the phi-sized query tables do not fit, scaling them down
        pins a table that would fall below one bucket at one bucket and
        rescales the rest, so the allocation fits the budget; below one
        bucket per table GS raises GCSL's error."""
        stats = RelationStatistics.from_counts(
            {"AB": 100, "BC": 1, "ABC": 100})
        queries = QuerySet.counts(["AB", "BC"])
        for memory in (6.5, 12.0):
            fractional = plan(queries, stats, memory, PARAMS,
                              algorithm="gs", integer=False)
            assert space_used(fractional.allocation, stats) == \
                pytest.approx(memory)
        assert plan(queries, stats, 12.0, PARAMS, algorithm="gs",
                    integer=False).allocation.buckets == \
            {A("AB"): 3.0, A("BC"): 1.0}
        rounded = plan(queries, stats, 6.5, PARAMS, algorithm="gs")
        assert rounded.allocation.buckets == {A("AB"): 1, A("BC"): 1}
        with pytest.raises(AllocationError) as gs_error:
            plan(queries, stats, 5, PARAMS, algorithm="gs")
        with pytest.raises(AllocationError) as gcsl_error:
            plan(queries, stats, 5, PARAMS, algorithm="gcsl")
        assert str(gs_error.value) == str(gcsl_error.value) == (
            "memory 5 units cannot hold one bucket per relation "
            "(6.0 units needed)")

    def test_trajectory_records_distributed_costs(self):
        """Trajectory costs reflect leftover-distributed allocations.

        (GS selects by phi-sized benefit, so distributed costs need not be
        monotone — the paper's Figure 12 shows exactly that for phi=0.6.)
        """
        result = GreedySpace(phi=1.0).choose(QUERIES, STATS, 40_000.0,
                                             PARAMS)
        assert result.trajectory[0].configuration == \
            Configuration.flat(QUERIES.group_bys)
        assert phantoms_chosen(result)
        assert result.cost < result.trajectory[0].cost


class TestExhaustiveChoice:
    def test_beats_greedy(self):
        epes = ExhaustiveChoice().choose(QUERIES, STATS, 40_000.0, PARAMS)
        greedy = gcsl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        assert epes.cost <= greedy.cost * 1.001

    def test_greedy_near_optimal(self):
        """The paper's headline: heuristics within ~15-20% of optimal."""
        epes = ExhaustiveChoice().choose(QUERIES, STATS, 40_000.0, PARAMS)
        greedy = gcsl().choose(QUERIES, STATS, 40_000.0, PARAMS)
        assert greedy.cost <= epes.cost * 1.35

    def test_pair_queries(self):
        epes = ExhaustiveChoice().choose(PAIR_QUERIES, STATS, 40_000.0,
                                         PARAMS)
        # All four queries plus whatever phantoms won.
        for q in PAIR_QUERIES.group_bys:
            assert q in epes.configuration

    def test_allocates_under_its_own_model(self):
        """ES inside EPES optimises the model EPES prices with: under the
        linear model the optimum must not lose to GCSL (it once allocated
        under the lookup model and reported 20.127 against GCSL's
        20.050)."""
        stats = RelationStatistics.from_counts(PAPER_LIKE_GROUPS)
        epes = plan(QUERIES, stats, 20_000.0, PARAMS, algorithm="epes",
                    model=LinearModel(), integer=False)
        greedy = plan(QUERIES, stats, 20_000.0, PARAMS, algorithm="gcsl",
                      model=LinearModel(), integer=False)
        assert epes.predicted_cost <= greedy.predicted_cost
        assert epes.predicted_cost == pytest.approx(20.048, abs=5e-4)

    def test_cost_is_consistent(self):
        epes = ExhaustiveChoice().choose(QUERIES, STATS, 40_000.0, PARAMS)
        recomputed = per_record_cost(
            epes.configuration, STATS, epes.allocation.buckets,
            LookupModel(), PARAMS)
        assert epes.cost == pytest.approx(recomputed)


class TestNames:
    def test_algorithm_names(self):
        assert gcsl().name == "GCSL"
        assert GreedyCollision().name == "GCSL"
        assert GreedySpace(phi=1.2).name == "GS(phi=1.2)"
        assert ExhaustiveChoice().name == "EPES"
