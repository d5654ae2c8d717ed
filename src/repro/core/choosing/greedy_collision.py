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
    start_configuration,
)
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, intra_cost
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
    can be carried from one round to the next. Candidates are priced
    through the allocator's ``split``; the trajectory records the
    configurations priced.
    """

    allocator: ForestAllocator = field(default_factory=SupernodeLinear)
    model: CollisionModel = field(default_factory=LookupModel)
    clustered: bool = True

    @property
    def name(self) -> str:
        return f"GC{self.allocator.name}"

    def _first(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters
               ) -> tuple[Configuration, list[float], float]:
        """The queries-only configuration, its split of ``M`` and Eq. 7."""
        config = start_configuration(queries, stats)
        buckets = self.allocator.split(config, memory, params)
        cost = intra_cost(config, buckets, self.model, params,
                          self.clustered)
        return config, buckets, cost

    def start(self, queries: QuerySet, stats: RelationStatistics,
              memory: float, params: CostParameters) -> ChoiceResult:
        """GC's start step on its own: the queries-only configuration
        with all of ``M`` split by the allocator (``plan(algorithm=
        "none")``)."""
        config, buckets, cost = self._first(queries, stats, memory, params)
        return ChoiceResult(config, allocation_of(config, buckets), cost,
                            (ChoiceStep(None, config, cost),))

    def choose(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters) -> ChoiceResult:
        config, buckets, cost = self._first(queries, stats, memory, params)
        rels = config.universe.rels
        split = self.allocator.split
        trajectory = [ChoiceStep(None, config, cost)]
        remaining = [i for i, rel in enumerate(rels)
                     if rel not in config.queries]
        while remaining:
            best = None
            for p in remaining:
                trial = config.with_phantom_at(p)
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
            cost, chosen, config, buckets = best
            remaining.remove(chosen)
            trajectory.append(ChoiceStep(rels[chosen], config, cost))
        return ChoiceResult(config, allocation_of(config, buckets), cost,
                            tuple(trajectory))


def gcsl(**kwargs) -> GreedyCollision:
    """The paper's GCSL: greedy-by-collision-rates with SL allocation."""
    return GreedyCollision(allocator=SupernodeLinear(), **kwargs)


def gcpl(**kwargs) -> GreedyCollision:
    """GCPL: greedy-by-collision-rates with PL allocation (Figure 11)."""
    from repro.core.allocation.proportional import ProportionalLinear
    return GreedyCollision(allocator=ProportionalLinear(), **kwargs)
