"""The proportional baseline heuristics PL and PR (paper Section 5.2).

These two are the "not based on our analysis" comparison points:

* **PL (Linear Proportional)** — space proportional to the number of groups.
* **PR (Square Root Proportional)** — space proportional to the square root
  of the number of groups.

Note that unlike SL/SR these ignore the feed structure entirely; the paper
shows they can err by up to ~35% against the exhaustive optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.allocation.base import ForestAllocator, split_to_buckets
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters

__all__ = ["ProportionalLinear", "ProportionalSqrt"]


@dataclass(frozen=True)
class _ProportionalAllocator(ForestAllocator):
    """Common PL/PR machinery; subclasses choose the weight of ``g``."""

    name: str = "proportional"

    def _weight(self, groups: float) -> float:
        raise NotImplementedError

    def split(self, config: Configuration, memory: float,
              params: CostParameters) -> list[float]:
        """Bucket counts for a configuration (indexed like its universe)."""
        g = config.universe.g
        weights = {i: self._weight(g[i]) for i in config.order}
        total = sum(weights.values())
        spaces = [0.0] * len(g)
        for i, w in weights.items():
            spaces[i] = memory * w / total
        return split_to_buckets(config, spaces, memory)


@dataclass(frozen=True)
class ProportionalLinear(_ProportionalAllocator):
    """Heuristic PL: space share proportional to ``g_R``."""

    name: str = "PL"

    def _weight(self, groups: float) -> float:
        return groups


@dataclass(frozen=True)
class ProportionalSqrt(_ProportionalAllocator):
    """Heuristic PR: space share proportional to ``sqrt(g_R)``."""

    name: str = "PR"

    def _weight(self, groups: float) -> float:
        return math.sqrt(groups)
