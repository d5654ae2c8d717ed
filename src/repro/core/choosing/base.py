"""Shared types for phantom-choosing algorithms (paper Section 3.4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import AttributeSet
from repro.core.allocation.base import Allocation
from repro.core.configuration import Configuration, Universe
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics

__all__ = ["MIN_BENEFIT", "ChoiceStep", "ChoiceResult", "plan_universe",
           "start_configuration"]

#: A greedy chooser accepts a phantom only if it lowers the cost (GC) or
#: scores a benefit per unit of space (GS) above this.
MIN_BENEFIT = 1e-12


@dataclass(frozen=True)
class ChoiceStep:
    """One step of a greedy phantom-choosing run (for Figure 12)."""

    phantom: AttributeSet | None
    configuration: Configuration
    cost: float


@dataclass(frozen=True)
class ChoiceResult:
    """Outcome of a phantom-choosing algorithm.

    ``trajectory`` records the configuration and predicted per-record cost
    after each phantom is added, starting from the all-queries
    configuration (``phantom=None``).
    """

    configuration: Configuration
    allocation: Allocation
    cost: float
    trajectory: tuple[ChoiceStep, ...] = field(default_factory=tuple)


def plan_universe(queries: QuerySet,
                  stats: RelationStatistics) -> Universe:
    """What a plan may instantiate: the queries and each candidate phantom
    with statistics, in the feeding graph's order and with its masks."""
    graph = queries.graph
    nodes = graph.nodes
    keep = [k for k, rel in enumerate(nodes)
            if graph.is_query(rel) or stats.has(rel)]
    return Universe([nodes[k] for k in keep], queries.group_bys, stats,
                    [graph.masks[k] for k in keep])


def start_configuration(queries: QuerySet,
                        stats: RelationStatistics) -> Configuration:
    """The queries-only configuration a greedy chooser starts from. A
    query nests under its minimal query superset (flat for antichains,
    as in all the paper's workloads)."""
    return Configuration.nested(queries.group_bys, queries.group_bys,
                                plan_universe(queries, stats))
