"""The supernode heuristics SL and SR (paper Section 5.2).

Multi-level configurations are analytically unsolvable (the stationarity
conditions yield polynomial equations of order > 4), so the paper collapses
each phantom-with-children into a *supernode*, allocates as if the forest
were flat, and then recursively decomposes each supernode with the solvable
two-level closed form:

* **SL (Supernode with Linear combination)** — a supernode's demand score is
  the *sum* of the phantom's score and its children's combined scores.
* **SR (Supernode with Square Root combination)** — the *square root* of a
  supernode's score is the sum of the square roots of its members' scores.

Both reduce exactly to the optimal allocation for a single phantom feeding
all queries. SL is the paper's winner and the allocator used by GCSL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation.analytic import flat_spaces, two_level_split
from repro.core.allocation.base import ForestAllocator, split_to_buckets
from repro.core.collision.lookup import PAPER_MU
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters

__all__ = ["SupernodeLinear", "SupernodeSqrt"]


@dataclass(frozen=True)
class _SupernodeAllocator(ForestAllocator):
    """Common SL/SR machinery; subclasses choose the combination rule."""

    mu: float = PAPER_MU
    name: str = "supernode"

    def _combine(self, own: float, child_scores: list[float]) -> float:
        raise NotImplementedError

    def split(self, config: Configuration, memory: float,
              params: CostParameters) -> list[float]:
        """Bucket counts for a configuration (indexed like its universe)."""
        children = config.children_of
        combined = [0.0] * len(children)
        # Children precede parents in reversed topological order.
        for i in reversed(config.order):
            own = config.demand_score(i)
            kids = children[i]
            combined[i] = (self._combine(own, [combined[k] for k in kids])
                           if kids else own)

        spaces = [0.0] * len(children)
        root_spaces = flat_spaces(
            {root: combined[root] for root in config.roots}, memory)
        stack = list(root_spaces.items())
        while stack:
            i, space = stack.pop()
            kids = children[i]
            if not kids:
                spaces[i] = space
                continue
            spaces[i], kid_spaces = two_level_split(
                [combined[k] for k in kids], space, params, self.mu)
            stack.extend(zip(kids, kid_spaces))
        return split_to_buckets(config, spaces, memory)


@dataclass(frozen=True)
class SupernodeLinear(_SupernodeAllocator):
    """Heuristic SL: supernode score = sum of member scores."""

    name: str = "SL"

    def _combine(self, own: float, child_scores: list[float]) -> float:
        return own + sum(child_scores)


@dataclass(frozen=True)
class SupernodeSqrt(_SupernodeAllocator):
    """Heuristic SR: sqrt(supernode score) = sum of member sqrt scores."""

    name: str = "SR"

    def _combine(self, own: float, child_scores: list[float]) -> float:
        root_sum = own ** 0.5 + sum(v ** 0.5 for v in child_scores)
        return root_sum * root_sum
