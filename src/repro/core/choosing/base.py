"""Shared types for phantom-choosing algorithms (paper Section 3.4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import AttributeSet
from repro.core.allocation.base import Allocation
from repro.core.configuration import Configuration
from repro.core.feeding_graph import FeedingGraph
from repro.core.forest import Forest, Universe
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics

__all__ = ["MIN_BENEFIT", "ChoiceStep", "ChoiceResult", "plan_forest"]

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

    @property
    def phantoms_chosen(self) -> list[AttributeSet]:
        return [step.phantom for step in self.trajectory
                if step.phantom is not None]


def plan_forest(queries: QuerySet, stats: RelationStatistics) -> Forest:
    """The queries-only forest a greedy chooser starts from.

    Its universe is what the plan may instantiate: every query and each
    candidate phantom with recorded statistics, in the feeding graph's
    ``sort_key`` order, so the candidates are the non-query indices in
    ascending order. A query nests under its minimal query superset (free
    sharing; flat for antichain query sets, as in all the paper's
    workloads).
    """
    graph = FeedingGraph(queries)
    nodes = graph.nodes
    keep = [k for k, rel in enumerate(nodes)
            if graph.is_query(rel) or stats.has(rel)]
    universe = Universe([nodes[k] for k in keep], queries.group_bys, stats,
                        [graph.masks[k] for k in keep])
    return Forest.nested(universe, [i for i, rel in enumerate(universe.rels)
                                    if rel in universe.queries])
