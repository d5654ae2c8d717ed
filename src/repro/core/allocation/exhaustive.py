"""ES — the exhaustive / oracle space allocation (paper Section 5.2).

The paper's reference optimum tries every allocation at a granularity of 1%
of ``M`` and keeps the cheapest (by Eq. 7 with the approximated collision
rate). A full grid over ``r`` relations enumerates ``C(99, r-1)`` points,
which is practical only for small ``r``; we exploit that the Eq. 7
objective under ``x = mu g / b`` is a posynomial in the bucket counts
(convex in log space) and find the optimum by multi-start coordinate
descent, halving its step down to sub-grid resolution. Tests check the
descent against the literal grid (kept in ``tests/references.py``).

ES prices an allocation the way every planner path does, with
:func:`~repro.core.cost_model.intra_cost` on ``spaces[i] / h[i]``, over
:meth:`Configuration.topological`: the descent loops over ``0..n-1``, so
parents come first, and its coordinate order is part of its result. The
descent is a first-improvement scan, inherently sequential, and runs in
Python on a copy, so a raising collision model cannot corrupt the
caller's space vector. ES allocates for the experiments and for
``plan(algorithm="epes")``; GCSL/GS planning and admission never call
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.allocation.base import (
    Allocation,
    allocation_of,
    split_to_buckets,
)
from repro.core.allocation.proportional import ProportionalLinear
from repro.core.allocation.supernode import SupernodeLinear
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, intra_cost
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError

__all__ = ["ExhaustiveAllocator"]

#: Improvement threshold of the coordinate descent: a trial must beat the
#: incumbent by more than this.
_IMPROVE_EPS = 1e-15

#: First step of every descent, as a fraction of ``M``.
START_STEP = 0.08
#: The descent halves its step until it falls below this fraction of ``M``.
POLISH_STEP = 0.0025


def _price(config: Configuration, spaces: Sequence[float],
           model: CollisionModel, params: CostParameters,
           clustered: bool) -> float:
    """Eq. 7 for a space vector (units per relation, indexed like
    ``config``)."""
    h = config.universe.h
    return intra_cost(config, [s / h[i] for i, s in enumerate(spaces)],
                      model, params, clustered)


def descend(config: Configuration, spaces: Sequence[float], memory: float,
            model: CollisionModel, params: CostParameters,
            clustered: bool = True) -> list[float]:
    """One first-improvement coordinate descent from ``spaces``, steps
    from :data:`START_STEP` down to :data:`POLISH_STEP` of ``memory``;
    returns the refined spaces (``spaces`` itself is left as it was).
    ``config`` is indexed like :meth:`Configuration.topological` leaves
    it.

    No coordinate goes below one bucket (``h[i]`` units). A rejected
    move is reverted in place, so its ``(a - s) + s`` rounding stays.
    """
    spaces = [float(v) for v in spaces]
    step, min_step = START_STEP * memory, POLISH_STEP * memory
    floors = config.universe.h
    n = len(spaces)
    cost = _price(config, spaces, model, params, clustered)
    while step >= min_step:
        improved = True
        while improved:
            improved = False
            for i in range(n):
                if spaces[i] - step < floors[i]:
                    continue
                for j in range(n):
                    if i == j:
                        continue
                    spaces[i] -= step
                    spaces[j] += step
                    trial = _price(config, spaces, model, params, clustered)
                    if trial < cost - _IMPROVE_EPS:
                        cost = trial
                        improved = True
                    else:
                        spaces[i] += step
                        spaces[j] -= step
                    if spaces[i] - step < floors[i]:
                        break
        step /= 2.0
    return spaces


@dataclass(frozen=True)
class ExhaustiveAllocator:
    """The ES reference allocator.

    Multi-start coordinate descent from the SL, PL and uniform splits;
    the cheapest result wins (the first on ties).

    Parameters
    ----------
    model:
        Collision model for the Eq. 7 objective; defaults to the paper's
        precomputed ``x(g/b)`` lookup (Section 4.4). The coordinate
        descent relies on the objective being near-convex, which holds
        for any monotone concave rate curve.
    clustered:
        Divide raw relations' rates by their flow lengths (Eq. 15).
    """

    model: CollisionModel | None = None
    clustered: bool = True

    name = "ES"

    def allocate(self, config: Configuration, stats: RelationStatistics,
                 memory: float, params: CostParameters) -> Allocation:
        config = config.topological(stats)
        if memory < config.minimum_space():
            raise AllocationError(
                f"memory {memory} too small for {len(config)} relations")
        model = self.model if self.model is not None else LookupModel()
        h = config.universe.h
        n = len(h)
        starts = [
            SupernodeLinear().split(config, memory, params),
            ProportionalLinear().split(config, memory, params),
            split_to_buckets(config, [memory / n] * n, memory),
        ]
        best_cost = float("inf")
        best: list[float] | None = None
        for buckets in starts:
            spaces = [b * h[i] for i, b in enumerate(buckets)]
            refined = descend(config, spaces, memory, model, params,
                              self.clustered)
            cost = _price(config, refined, model, params, self.clustered)
            if cost < best_cost:
                best_cost = cost
                best = refined
        assert best is not None
        return allocation_of(config, [s / h[i] for i, s in enumerate(best)])
