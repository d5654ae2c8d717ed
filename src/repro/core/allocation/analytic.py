"""Analytically optimal allocations for the solvable cases (Section 5.1).

Under the linear collision model ``x = mu g / (b l)`` the two cases the
paper solves in closed form are:

* **Flat (no phantoms)** — minimizing ``sum_i x_i c2`` subject to
  ``sum_i b_i h_i = M`` gives ``b_i proportional to sqrt(g_i / (h_i l_i))``,
  i.e. *space* proportional to ``sqrt(g_i h_i / l_i)``.

* **One phantom feeding all queries** (Eqs. 17-21) — with leaf scores
  ``v_i = g_i h_i / l_i`` and ``G = sum_i sqrt(v_i)``, the optimal leaf
  spaces are ``s_i = beta sqrt(v_i)`` where::

      beta = S / (G + sqrt(G^2 + f c1 S / (mu c2)))

  and the phantom takes the remainder ``s_0 = S - beta G`` (always more
  than half of ``S``, as the paper notes). This reduces to the paper's
  Eq. 20/21 when ``h_i = l_i = 1``.

These closed forms are the building blocks of the SL/SR heuristics.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.attributes import AttributeSet
from repro.core.allocation.base import (
    Allocation,
    allocation_of,
    split_to_buckets,
)
from repro.core.collision.lookup import PAPER_MU
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError

__all__ = [
    "flat_spaces",
    "two_level_split",
    "flat_allocation",
    "two_level_allocation",
]


def flat_spaces(scores: Mapping[AttributeSet, float],
                memory: float) -> dict[AttributeSet, float]:
    """Space shares proportional to ``sqrt(score)`` (flat-optimal rule)."""
    weights = {rel: math.sqrt(max(score, 0.0))
               for rel, score in scores.items()}
    total = sum(weights.values())
    if total <= 0:
        share = memory / len(weights)
        return {rel: share for rel in weights}
    return {rel: memory * w / total for rel, w in weights.items()}


def two_level_split(child_scores: Sequence[float], memory: float,
                    params: CostParameters, mu: float = PAPER_MU
                    ) -> tuple[float, list[float]]:
    """Optimal (root_space, child_spaces) for one phantom feeding ``f`` leaves.

    ``child_scores`` are the leaves' demand scores ``v_i = g_i h_i / l_i``
    (or combined supernode scores during SL/SR decomposition). The split is
    independent of the root's own score — it cancels out of the
    stationarity conditions (visible in the paper's Eq. 20, which does not
    involve ``g_0``).
    """
    if not child_scores:
        raise AllocationError("two_level_split needs at least one child")
    if memory <= 0:
        raise AllocationError("two_level_split needs a positive budget")
    f = len(child_scores)
    g_sum = sum(math.sqrt(max(v, 0.0)) for v in child_scores)
    if g_sum <= 0:
        # Children demand nothing; still reserve them a sliver each.
        child = memory / (2 * f)
        return memory / 2, [child] * f
    c1, c2 = params.probe_cost, params.evict_cost
    beta = memory / (g_sum + math.sqrt(g_sum * g_sum
                                       + f * c1 * memory / (mu * c2)))
    children = [beta * math.sqrt(max(v, 0.0)) for v in child_scores]
    root = memory - sum(children)
    return root, children


def flat_allocation(config: Configuration, stats: RelationStatistics,
                    memory: float) -> Allocation:
    """Optimal allocation for a configuration with no feed edges."""
    if any(config.parent(rel) is not None for rel in config.relations):
        raise AllocationError("flat_allocation requires a phantom-free "
                              "configuration")
    priced = config.with_stats(stats)
    spaces = flat_spaces({i: priced.demand_score(i) for i in priced.order},
                         memory)
    return allocation_of(priced, split_to_buckets(priced, spaces, memory))


def two_level_allocation(config: Configuration, stats: RelationStatistics,
                         memory: float, params: CostParameters,
                         mu: float = PAPER_MU) -> Allocation:
    """Optimal allocation for one raw phantom feeding all queries (Eq. 20/21)."""
    roots = config.raw_relations
    if len(roots) != 1 or config.is_leaf(roots[0]):
        raise AllocationError(
            "two_level_allocation requires exactly one raw phantom")
    root = roots[0]
    children = config.children(root)
    if any(not config.is_leaf(ch) for ch in children):
        raise AllocationError(
            "two_level_allocation requires a two-level configuration")
    priced = config.with_stats(stats)
    index = priced.universe.index
    kids = [index[ch] for ch in children]
    root_space, child_spaces = two_level_split(
        [priced.demand_score(k) for k in kids], memory, params, mu)
    spaces = {index[root]: root_space, **dict(zip(kids, child_spaces))}
    return allocation_of(priced, split_to_buckets(priced, spaces, memory))
