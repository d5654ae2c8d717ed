"""Shared machinery for space allocators.

An allocator splits the LFTA memory budget ``M`` (in allocation units; 4
bytes each in the paper) among the hash tables of a configuration's
relations. Allocations are expressed as *bucket counts* per relation; the
space consumed by relation ``R`` is ``buckets_R * h_R`` where ``h_R`` is its
entry size in units (Section 5.3's variable-sized buckets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError

__all__ = [
    "Allocation",
    "SpaceAllocator",
    "ForestAllocator",
    "allocation_of",
    "split_to_buckets",
    "minimum_space",
]


@dataclass(frozen=True)
class Allocation:
    """Bucket counts per relation (fractional for model reasoning)."""

    buckets: Mapping[AttributeSet, float]

    def scaled(self, factor: float) -> "Allocation":
        """Every bucket count multiplied by ``factor`` (floored at 1)."""
        return Allocation({rel: max(1.0, b * factor)
                           for rel, b in self.buckets.items()})

    def rounded(self, stats: RelationStatistics,
                memory: float | None = None) -> "Allocation":
        """Integer bucket counts (>= 1), fitting ``memory`` if given.

        Rounds down, then — if a budget is supplied — greedily returns any
        leftover units to the relations with the largest fractional loss.
        """
        floored = {rel: max(1, int(b)) for rel, b in self.buckets.items()}
        if memory is not None:
            used = sum(b * stats.entry_units(rel)
                       for rel, b in floored.items())
            if used > memory:
                raise AllocationError(
                    f"memory {memory} too small for integer allocation "
                    f"(needs {used} units)")
            # Hand back leftover units, biggest fractional remainder first.
            remainders = sorted(
                self.buckets,
                key=lambda rel: self.buckets[rel] - floored[rel],
                reverse=True)
            leftover = memory - used
            for rel in remainders:
                h = stats.entry_units(rel)
                extra = int(leftover // h)
                want = int(round(self.buckets[rel])) - floored[rel]
                grant = min(extra, max(want, 0))
                if grant > 0:
                    floored[rel] += grant
                    leftover -= grant * h
        return Allocation(floored)

    def __getitem__(self, rel: AttributeSet) -> float:
        return self.buckets[rel]

    def __iter__(self):
        return iter(self.buckets)

    def __len__(self) -> int:
        return len(self.buckets)


@runtime_checkable
class SpaceAllocator(Protocol):
    """Splits memory among a configuration's hash tables."""

    #: Short name used in experiment reports ("SL", "PL", "ES", ...).
    name: str

    def allocate(self, config: Configuration, stats: RelationStatistics,
                 memory: float, params: CostParameters) -> Allocation:
        """Return an allocation using at most ``memory`` units."""
        ...


class ForestAllocator:
    """A heuristic (SL, SR, PL, PR) whose rule runs on index arrays:
    :meth:`split` returns the bucket list of a configuration with
    statistics attached, indexed like its universe, and :meth:`allocate`
    attaches them. The greedy choosers price their trials by :meth:`split`."""

    def split(self, config: Configuration, memory: float,
              params: CostParameters) -> list[float]:
        raise NotImplementedError

    def allocate(self, config: Configuration, stats: RelationStatistics,
                 memory: float, params: CostParameters) -> Allocation:
        config = config.with_stats(stats)
        return allocation_of(config, self.split(config, memory, params))


def minimum_space(config: Configuration, stats: RelationStatistics) -> float:
    """Units needed to give every relation one bucket."""
    return config.with_stats(stats).minimum_space()


def split_to_buckets(config: Configuration,
                     spaces: Sequence[float] | Mapping[int, float],
                     memory: float) -> list[float]:
    """Convert per-relation *space* shares into bucket counts.

    ``spaces[i]`` is relation ``i``'s space share; the result is indexed
    like ``config``'s universe. Enforces a one-bucket minimum per
    relation: relations whose share is below one bucket are raised to one
    bucket and the deficit is taken proportionally from the rest. Raises
    :class:`AllocationError` if the budget cannot give every relation a
    bucket.
    """
    order, h = config.order, config.universe.h
    min_needed = config.minimum_space()
    if memory < min_needed:
        raise AllocationError(
            f"memory {memory} units cannot hold one bucket per relation "
            f"({min_needed} units needed)")
    # Iteratively pin relations at their one-bucket floor and rescale the rest.
    pinned: dict[int, float] = {}
    free = {i: max(float(spaces[i]), 0.0) for i in order}
    budget = float(memory)
    while True:
        total = sum(free.values())
        if total <= 0:
            # Degenerate shares: split the remaining budget evenly.
            share = budget / len(free) if free else 0.0
            free = {i: share for i in free}
            total = budget
        scale = budget / total if total > 0 else 0.0
        below = [i for i in free if free[i] * scale < h[i]]
        if not below:
            for i in free:
                pinned[i] = free[i] * scale
            break
        for i in below:
            pinned[i] = float(h[i])
            budget -= pinned[i]
            del free[i]
        if not free:
            break
    buckets = [0.0] * len(h)
    for i in order:
        buckets[i] = pinned[i] / h[i]
    return buckets


def allocation_of(config: Configuration,
                  buckets: Sequence[float]) -> Allocation:
    """The :class:`Allocation` of a bucket list, in topological order
    (the order :meth:`Allocation.rounded` breaks ties in)."""
    rels = config.universe.rels
    return Allocation({rels[i]: buckets[i] for i in config.order})
