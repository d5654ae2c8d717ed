"""Plan explanation: where does the predicted cost come from?

``EXPLAIN`` for the MA optimizer: given a plan and the statistics it was
built from, produce a per-relation breakdown — table size, load factor
``g/b``, collision rate, the Eq. 7 coefficient (how often the table is
even touched), and each relation's contribution to the probe and eviction
cost — plus the end-of-epoch picture. This is what an operator reads to
understand *why* the planner shaped the LFTA the way it did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.cost_model import (
    CostParameters,
    collision_rates,
    eq7_sums,
    expected_occupancy,
    flush_cost,
)
from repro.core.optimizer import Plan
from repro.core.statistics import RelationStatistics

__all__ = ["RelationExplanation", "PlanExplanation", "explain"]


@dataclass(frozen=True)
class RelationExplanation:
    """One relation's row in the breakdown."""

    label: str
    role: str                 # "raw phantom", "phantom", "query", ...
    groups: float
    buckets: float
    load_factor: float        # g/b
    collision_rate: float
    reach: float              # Eq. 7 coefficient: P(record touches table)
    probe_cost: float
    evict_cost: float
    occupancy: float

    @property
    def total_cost(self) -> float:
        return self.probe_cost + self.evict_cost


@dataclass(frozen=True)
class PlanExplanation:
    """The full breakdown for a plan."""

    plan: Plan
    relations: tuple[RelationExplanation, ...]
    per_record_cost: float
    flush_cost: float

    def render(self) -> str:
        header = (f"{'relation':<12}{'role':<14}{'g':>8}{'b':>9}"
                  f"{'g/b':>8}{'x':>8}{'reach':>8}"
                  f"{'probe':>8}{'evict':>8}")
        lines = [
            f"plan: {self.plan.configuration} "
            f"[{self.plan.algorithm}, "
            f"{self.plan.planning_seconds * 1e3:.1f} ms]",
            header,
            "-" * len(header),
        ]
        for rel in self.relations:
            lines.append(
                f"{rel.label:<12}{rel.role:<14}{rel.groups:>8.0f}"
                f"{rel.buckets:>9.0f}{rel.load_factor:>8.2f}"
                f"{rel.collision_rate:>8.4f}{rel.reach:>8.4f}"
                f"{rel.probe_cost:>8.3f}{rel.evict_cost:>8.3f}")
        lines.append("-" * len(header))
        lines.append(f"per-record cost {self.per_record_cost:.3f}   "
                     f"end-of-epoch cost {self.flush_cost:.0f}")
        return "\n".join(lines)


def explain(plan: Plan, stats: RelationStatistics,
            params: CostParameters | None = None,
            model: CollisionModel | None = None) -> PlanExplanation:
    """Break a plan's predicted cost down per relation."""
    params = params or CostParameters()
    model = model or LookupModel()
    config = plan.configuration
    buckets = plan.allocation.buckets
    rates = collision_rates(config, stats, buckets, model)
    forest = config.forest()
    reach_of = [0.0] * len(forest.order)
    eq7_sums(forest.order, forest.parent, forest.leaf,
             [rates[rel] for rel in forest.universe.rels], reach=reach_of)
    reach = dict(zip(forest.universe.rels, reach_of))
    rows = []
    per_record = 0.0
    for rel in config.relations:
        is_query = rel in config.queries
        is_raw = config.is_raw(rel)
        is_leaf = config.is_leaf(rel)
        role = ("query" if is_query else "phantom")
        if is_raw:
            role = "raw " + role
        probe = reach[rel] * params.probe_cost
        evict = (reach[rel] * rates[rel] * params.evict_cost
                 if is_leaf else 0.0)
        per_record += probe + evict
        g = stats.group_count(rel)
        b = float(buckets[rel])
        rows.append(RelationExplanation(
            rel.label(), role, g, b, g / b, rates[rel], reach[rel],
            probe, evict, expected_occupancy(g, b)))
    flush = flush_cost(config, stats, buckets, model, params).total
    return PlanExplanation(plan, tuple(rows), per_record, flush)
