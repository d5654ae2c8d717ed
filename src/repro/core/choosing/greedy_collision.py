"""GC — greedy by increasing collision rates (paper Section 3.4.2).

Start from the all-queries configuration with the *entire* memory budget
allocated by a space-allocation scheme. Repeatedly evaluate every candidate
phantom: adding one re-allocates all of ``M`` (so the total space never
changes — only collision rates rise as more tables share it) and the
benefit is the decrease in Eq. 7 cost. The phantom with the largest benefit
is instantiated; the loop stops when no candidate improves the cost.

``GreedyCollision`` is parameterized by the allocator: with
:class:`~repro.core.allocation.SupernodeLinear` it is the paper's headline
**GCSL**; with :class:`~repro.core.allocation.ProportionalLinear` it is the
**GCPL** comparison point of Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.allocation.base import SpaceAllocator
from repro.core.allocation.supernode import SupernodeLinear
from repro.core.choosing.base import ChoiceResult, ChoiceStep
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError, ConfigurationError

__all__ = ["GreedyCollision", "gcsl", "gcpl"]


@dataclass(frozen=True)
class GreedyCollision:
    """The GC algorithm with a pluggable space allocator.

    Every round re-evaluates every remaining candidate: unlike GS, a GC
    candidate's benefit is *not* invariant across rounds — the allocator
    re-splits all of ``M`` over every tree each round — so no benefit
    can be carried from one round to the next.
    """

    allocator: SpaceAllocator = field(default_factory=SupernodeLinear)
    model: CollisionModel = field(default_factory=LookupModel)
    clustered: bool = True
    min_benefit: float = 1e-12

    @property
    def name(self) -> str:
        return f"GC{self.allocator.name}"

    def choose(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters) -> ChoiceResult:
        graph = FeedingGraph(queries)
        # The starting configuration is "only the queries", with the
        # natural feed structure: a query nests under its minimal query
        # superset (free sharing; for antichain query sets this is flat).
        config = Configuration.from_relations(queries.group_bys,
                                              queries.group_bys)
        allocation = self.allocator.allocate(config, stats, memory, params)
        cost = per_record_cost(config, stats, allocation.buckets, self.model,
                               params, self.clustered)
        trajectory = [ChoiceStep(None, config, cost)]
        remaining = [p for p in graph.phantoms if stats.has(p)]
        while remaining:
            best = None
            for phantom in remaining:
                try:
                    trial_config = config.with_phantom(phantom)
                    trial_alloc = self.allocator.allocate(
                        trial_config, stats, memory, params)
                except (ConfigurationError, AllocationError):
                    continue
                trial_cost = per_record_cost(
                    trial_config, stats, trial_alloc.buckets, self.model,
                    params, self.clustered)
                if best is None or trial_cost < best[0]:
                    best = (trial_cost, phantom, trial_config, trial_alloc)
            if best is None or cost - best[0] <= self.min_benefit:
                break
            cost, chosen, config, allocation = best
            remaining.remove(chosen)
            trajectory.append(ChoiceStep(chosen, config, cost))
        return ChoiceResult(config, allocation, cost, tuple(trajectory))


def gcsl(**kwargs) -> GreedyCollision:
    """The paper's GCSL: greedy-by-collision-rates with SL allocation."""
    return GreedyCollision(allocator=SupernodeLinear(), **kwargs)


def gcpl(**kwargs) -> GreedyCollision:
    """GCPL: greedy-by-collision-rates with PL allocation (Figure 11)."""
    from repro.core.allocation.proportional import ProportionalLinear
    return GreedyCollision(allocator=ProportionalLinear(), **kwargs)
