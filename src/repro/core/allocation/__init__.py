"""Space allocation schemes (paper Section 5).

Given a configuration of relations to instantiate, these allocators split
the LFTA memory ``M`` among their hash tables:

* :class:`SupernodeLinear` (SL) / :class:`SupernodeSqrt` (SR) — the paper's
  analysis-derived heuristics (Section 5.2), exact on solvable cases;
* :class:`ProportionalLinear` (PL) / :class:`ProportionalSqrt` (PR) — naive
  proportional baselines;
* :class:`ExhaustiveAllocator` (ES) — the reference optimum: the paper's
  1%-of-``M`` grid, found by multi-start coordinate descent on Eq. 7;
* :func:`flat_allocation` / :func:`two_level_allocation` — closed-form
  optima for the solvable cases (Section 5.1, Eqs. 20/21).
"""

from repro.core.allocation.base import (
    Allocation,
    ForestAllocator,
    SpaceAllocator,
    minimum_space,
)
from repro.core.allocation.analytic import (
    flat_allocation,
    flat_spaces,
    two_level_allocation,
    two_level_split,
)
from repro.core.allocation.supernode import SupernodeLinear, SupernodeSqrt
from repro.core.allocation.proportional import (
    ProportionalLinear,
    ProportionalSqrt,
)
from repro.core.allocation.exhaustive import ExhaustiveAllocator

__all__ = [
    "Allocation",
    "ForestAllocator",
    "SpaceAllocator",
    "minimum_space",
    "flat_allocation",
    "flat_spaces",
    "two_level_allocation",
    "two_level_split",
    "SupernodeLinear",
    "SupernodeSqrt",
    "ProportionalLinear",
    "ProportionalSqrt",
    "ExhaustiveAllocator",
]
