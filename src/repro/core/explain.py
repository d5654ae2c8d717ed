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

from repro.core.collision.lookup import LookupModel
from repro.core.configuration import RAW
from repro.core.cost_model import (
    CostParameters,
    bucket_list,
    config_rates,
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
            params: CostParameters | None = None) -> PlanExplanation:
    """Break a plan's predicted cost down per relation.

    Prices under the plan's own collision model and clusteredness, so
    the rows sum to ``plan.predicted_cost``: each row's probe and
    eviction terms are read off the one Eq. 7 walk.
    """
    params = params or CostParameters()
    model = plan.model or LookupModel()
    config = plan.configuration.with_stats(stats)
    buckets = bucket_list(config, plan.allocation.buckets)
    rates = config_rates(config, buckets, model, plan.clustered)
    reach = [0.0] * len(buckets)
    eq7_sums(config.order, config.parent_of, config.emits, rates,
             reach=reach)
    u = config.universe
    rows = []
    per_record = 0.0
    for i in config.order:
        rel = u.rels[i]
        role = (("raw " if config.parent_of[i] == RAW else "")
                + ("query" if rel in u.queries else "phantom"))
        probe = reach[i] * params.probe_cost
        evict = (reach[i] * rates[i] * params.evict_cost
                 if config.emits[i] else 0.0)
        per_record += probe + evict
        g, b = u.g[i], float(buckets[i])
        rows.append(RelationExplanation(
            rel.label(), role, g, b, g / b, rates[i], reach[i],
            probe, evict, expected_occupancy(g, b)))
    flush = flush_cost(plan.configuration, stats, plan.allocation.buckets,
                       model, params).total
    return PlanExplanation(plan, tuple(rows), per_record, flush)
