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

from repro.core.allocation.base import ForestAllocator, allocation_of
from repro.core.allocation.supernode import SupernodeLinear
from repro.core.choosing.base import (
    MIN_BENEFIT,
    ChoiceResult,
    ChoiceStep,
    plan_forest,
)
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, intra_cost
from repro.core.forest import Forest
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError

__all__ = ["GreedyCollision", "gcsl", "gcpl"]


@dataclass(frozen=True)
class GreedyCollision:
    """The GC algorithm with a pluggable space allocator.

    Every round re-evaluates every remaining candidate: unlike GS, a GC
    candidate's benefit is *not* invariant across rounds — the allocator
    re-splits all of ``M`` over every tree each round — so no benefit
    can be carried from one round to the next. Candidates are index-form
    forests, priced through the allocator's ``split``.
    """

    allocator: ForestAllocator = field(default_factory=SupernodeLinear)
    model: CollisionModel = field(default_factory=LookupModel)
    clustered: bool = True

    @property
    def name(self) -> str:
        return f"GC{self.allocator.name}"

    def _first(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters
               ) -> tuple[Forest, list[float], float]:
        """The queries-only forest, its split of ``M`` and Eq. 7."""
        forest = plan_forest(queries, stats)
        buckets = self.allocator.split(forest, memory, params)
        cost = intra_cost(forest, buckets, self.model, params,
                          self.clustered)
        return forest, buckets, cost

    def start(self, queries: QuerySet, stats: RelationStatistics,
              memory: float, params: CostParameters) -> ChoiceResult:
        """GC's start step on its own: the queries-only configuration
        with all of ``M`` split by the allocator (``plan(algorithm=
        "none")``)."""
        forest, buckets, cost = self._first(queries, stats, memory, params)
        config = Configuration.from_forest(forest)
        return ChoiceResult(config, allocation_of(forest, buckets), cost,
                            (ChoiceStep(None, config, cost),))

    def choose(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters) -> ChoiceResult:
        forest, buckets, cost = self._first(queries, stats, memory, params)
        rels = forest.universe.rels
        split = self.allocator.split
        trajectory = [ChoiceStep(None, Configuration.from_forest(forest),
                                 cost)]
        remaining = [i for i, rel in enumerate(rels)
                     if rel not in forest.universe.queries]
        while remaining:
            best = None
            for p in remaining:
                trial = forest.with_phantom(p)
                if trial is None:
                    continue
                try:
                    trial_buckets = split(trial, memory, params)
                except AllocationError:
                    continue
                trial_cost = intra_cost(trial, trial_buckets, self.model,
                                        params, self.clustered)
                if best is None or trial_cost < best[0]:
                    best = (trial_cost, p, trial, trial_buckets)
            if best is None or cost - best[0] <= MIN_BENEFIT:
                break
            cost, chosen, forest, buckets = best
            remaining.remove(chosen)
            trajectory.append(ChoiceStep(
                rels[chosen], Configuration.from_forest(forest), cost))
        return ChoiceResult(trajectory[-1].configuration,
                            allocation_of(forest, buckets), cost,
                            tuple(trajectory))


def gcsl(**kwargs) -> GreedyCollision:
    """The paper's GCSL: greedy-by-collision-rates with SL allocation."""
    return GreedyCollision(allocator=SupernodeLinear(), **kwargs)


def gcpl(**kwargs) -> GreedyCollision:
    """GCPL: greedy-by-collision-rates with PL allocation (Figure 11)."""
    from repro.core.allocation.proportional import ProportionalLinear
    return GreedyCollision(allocator=ProportionalLinear(), **kwargs)
