"""Tests for the plan explainer."""

import pytest

from repro.core import QuerySet, RelationStatistics, plan
from repro.core.collision.lookup import LinearModel
from repro.core.cost_model import CostParameters
from repro.core.explain import explain
from repro.core.feeding_graph import FeedingGraph
from repro.workloads import paper_like_trace
from repro.workloads.datasets import measure_statistics

STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "AD": 1610, "BC": 1730, "BD": 1940, "CD": 2050,
    "ABC": 2117, "ABD": 2260, "ACD": 2390, "BCD": 2520, "ABCD": 2837,
})
QUERIES = QuerySet.counts(["A", "B", "C", "D"])
PARAMS = CostParameters()


@pytest.fixture(scope="module")
def explained():
    the_plan = plan(QUERIES, STATS, 40_000, PARAMS)
    return the_plan, explain(the_plan, STATS, PARAMS)


class TestExplain:
    def test_covers_every_relation(self, explained):
        the_plan, result = explained
        labels = {row.label for row in result.relations}
        assert labels == {rel.label()
                          for rel in the_plan.configuration.relations}

    def test_costs_sum_to_plan_cost(self, explained):
        the_plan, result = explained
        total = sum(row.total_cost for row in result.relations)
        assert total == pytest.approx(result.per_record_cost)
        assert result.per_record_cost == pytest.approx(
            the_plan.predicted_cost, rel=1e-9)

    def test_raw_relations_have_full_reach(self, explained):
        _, result = explained
        for row in result.relations:
            if row.role.startswith("raw"):
                assert row.reach == 1.0
            else:
                assert row.reach <= 1.0

    def test_only_leaves_evict(self, explained):
        the_plan, result = explained
        leaves = {rel.label() for rel in the_plan.configuration.leaves}
        for row in result.relations:
            if row.label not in leaves:
                assert row.evict_cost == 0.0

    def test_roles(self, explained):
        the_plan, result = explained
        roles = {row.label: row.role for row in result.relations}
        for rel in the_plan.configuration.relations:
            expected = "query" if rel in the_plan.configuration.queries \
                else "phantom"
            assert roles[rel.label()].endswith(expected)

    def test_render_is_readable(self, explained):
        _, result = explained
        text = result.render()
        assert "per-record cost" in text
        assert "g/b" in text
        for row in result.relations:
            assert row.label in text

    def test_load_factor_consistency(self, explained):
        _, result = explained
        for row in result.relations:
            assert row.load_factor == pytest.approx(
                row.groups / row.buckets)
            assert 0 <= row.collision_rate <= 1
            assert row.occupancy <= min(row.groups, row.buckets) + 1e-6


class TestPlanModel:
    """``explain`` prices under the plan's own model and clusteredness,
    so its rows sum to the plan's predicted cost whatever those are."""

    @pytest.fixture(scope="class")
    def trace_stats(self):
        queries = QuerySet.counts(["AB", "BC", "BD", "CD"])
        stats = measure_statistics(paper_like_trace(100_000, seed=1),
                                   FeedingGraph(queries).nodes,
                                   flow_timeout=1.0)
        return queries, stats

    @pytest.mark.parametrize("kwargs", [
        {}, {"clustered": False}, {"model": LinearModel()}])
    def test_rows_sum_to_predicted_cost(self, trace_stats, kwargs):
        queries, stats = trace_stats
        the_plan = plan(queries, stats, 40_000, PARAMS, **kwargs)
        result = explain(the_plan, stats, PARAMS)
        total = sum(row.total_cost for row in result.relations)
        assert total == pytest.approx(the_plan.predicted_cost, rel=1e-12)
        assert result.per_record_cost == pytest.approx(
            the_plan.predicted_cost, rel=1e-12)
