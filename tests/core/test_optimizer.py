"""Tests for the planning facade."""

import pytest

from repro.core import Plan, QuerySet, RelationStatistics, plan
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, flush_cost
from repro.core.collision import LookupModel
from tests.references import space_used

STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "AD": 1610, "BC": 1730, "BD": 1940, "CD": 2050,
    "ABC": 2117, "ABD": 2260, "ACD": 2390, "BCD": 2520,
    "ABCD": 2837,
})
QUERIES = QuerySet.counts(["A", "B", "C", "D"])


class TestPlan:
    def test_default_gcsl(self):
        p = plan(QUERIES, STATS, 40_000)
        assert p.algorithm == "gcsl"
        assert p.configuration.phantoms
        assert p.predicted_cost > 0
        assert p.planning_seconds < 1.0

    def test_integer_allocation(self):
        p = plan(QUERIES, STATS, 40_000)
        assert all(float(b).is_integer() and b >= 1
                   for b in p.allocation.buckets.values())
        assert space_used(p.allocation, STATS) <= 40_000

    def test_fractional_allocation(self):
        p = plan(QUERIES, STATS, 40_000, integer=False)
        assert any(not float(b).is_integer()
                   for b in p.allocation.buckets.values())

    def test_none_algorithm_is_flat(self):
        p = plan(QUERIES, STATS, 40_000, algorithm="none")
        assert p.configuration == Configuration.flat(QUERIES.group_bys)

    def test_algorithm_ordering(self):
        """epes <= gcsl <= none in predicted cost."""
        costs = {algo: plan(QUERIES, STATS, 40_000, algorithm=algo,
                            integer=False).predicted_cost
                 for algo in ("epes", "gcsl", "none")}
        assert costs["epes"] <= costs["gcsl"] * 1.001
        assert costs["gcsl"] <= costs["none"]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            plan(QUERIES, STATS, 40_000, algorithm="magic")

    def test_gs_uses_phi(self):
        p1 = plan(QUERIES, STATS, 40_000, algorithm="gs", phi=0.6)
        p2 = plan(QUERIES, STATS, 40_000, algorithm="gs", phi=1.3)
        assert p1.algorithm == "gs"
        assert p1.configuration != p2.configuration or \
            p1.allocation.buckets != p2.allocation.buckets

    def test_peak_load_repair_applied(self):
        params = CostParameters()
        free = plan(QUERIES, STATS, 40_000, params=params, integer=False)
        limit = 0.9 * free.predicted_flush_cost
        bounded = plan(QUERIES, STATS, 40_000, params=params,
                       peak_load_limit=limit, integer=False)
        got = flush_cost(bounded.configuration, STATS,
                         bounded.allocation.buckets, LookupModel(),
                         params).total
        assert got <= limit * 1.001
        assert bounded.predicted_cost >= free.predicted_cost

    def test_plan_records_its_planning_inputs(self):
        """A re-plan reuses them; a hand-built plan has none recorded."""
        model = LookupModel()
        p = plan(QUERIES, STATS, 40_000, algorithm="gs", phi=0.6,
                 model=model, peak_load_limit=1e9, peak_method="shift",
                 clustered=False)
        assert (p.memory, p.phi, p.clustered, p.model, p.peak_load_limit,
                p.peak_method) == (40_000, 0.6, False, model, 1e9, "shift")
        default = plan(QUERIES, STATS, 40_000)
        assert (default.phi, default.clustered, default.model,
                default.peak_load_limit, default.peak_method) == \
            (1.0, True, None, None, "auto")
        bare = Plan(p.configuration, p.allocation, p.predicted_cost,
                    p.predicted_flush_cost, 0.0, "gs")
        assert bare.memory is None

    def test_str_mentions_algorithm(self):
        p = plan(QUERIES, STATS, 40_000)
        assert "gcsl" in str(p)

    def test_planning_is_fast(self):
        """The paper's claim: configuration choice takes milliseconds."""
        p = plan(QUERIES, STATS, 40_000, algorithm="gcsl")
        assert p.planning_seconds < 0.25
