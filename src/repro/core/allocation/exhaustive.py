"""ES — the exhaustive / oracle space allocation (paper Section 5.2).

The paper's reference optimum tries every allocation at a granularity of 1%
of ``M`` and keeps the cheapest (by Eq. 7 with the approximated collision
rate). A full grid over ``r`` relations enumerates ``C(steps-1, r-1)``
points, which is practical only for small ``r``; for larger configurations
we exploit that the Eq. 7 objective under ``x = mu g / b`` is a posynomial
in the bucket counts (convex in log space) and find the optimum by
multi-start coordinate descent over the same grid, polished to sub-grid
resolution. Tests verify the descent matches the true grid wherever both
run.

Two fast paths, both bit-identical to the scalar code beside them
(asserted by tests, not assumed):

* :meth:`CostEvaluator.cost_many` scores a whole batch of space vectors
  with numpy, mirroring the scalar float ops lane-for-lane (left-to-right
  accumulation, same lerp) so batched decisions match scalar ones exactly;
  the literal grid uses it.
* :meth:`ExhaustiveAllocator._descend` is a first-improvement coordinate
  descent, inherently sequential. When :mod:`repro.native.descend` loaded
  (and the model is the plain lookup table it hard-codes) the whole
  descent runs in C, which is what makes ES usable as an online
  reference; otherwise the scalar Python loop it replicates op-for-op
  runs, on a copy, so a raising collision model cannot corrupt the
  caller's space vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.allocation.base import (
    Allocation,
    minimum_space,
    spaces_to_allocation,
)
from repro.core.allocation.proportional import ProportionalLinear
from repro.core.allocation.supernode import SupernodeLinear
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, eq7_sums, relation_rate
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError
from repro.native import descend as _native

__all__ = ["CostEvaluator", "ExhaustiveAllocator", "compositions"]

#: Improvement threshold of the coordinate descent (the kernel hard-codes
#: the same; a trial must beat the incumbent by more than this).
_IMPROVE_EPS = 1e-15

#: Rows per ``cost_many`` chunk when scanning the literal grid.
_GRID_CHUNK = 16384


class CostEvaluator:
    """Fast Eq. 7 evaluation for space vectors over a fixed configuration.

    Precomputes the structural arrays once so that each evaluation is a
    simple loop — the exhaustive search calls this tens of thousands of
    times. :meth:`cost_many` scores a whole ``(m, n)`` batch of space
    vectors at once with the same per-lane float operations as the scalar
    :meth:`cost`, so the two are bitwise interchangeable.
    """

    def __init__(self, config: Configuration, stats: RelationStatistics,
                 params: CostParameters,
                 model: CollisionModel | None = None,
                 clustered: bool = True):
        self.config = config
        self.relations: list[AttributeSet] = config.relations
        self.model = model if model is not None else LookupModel()
        index = {rel: i for i, rel in enumerate(self.relations)}
        self.parent_index = [
            -1 if config.parent(rel) is None else index[config.parent(rel)]
            for rel in self.relations
        ]
        self.is_leaf = [config.is_leaf(rel) for rel in self.relations]
        self._order = range(len(self.relations))
        self.groups = [stats.group_count(rel) for rel in self.relations]
        self.entry_units = [stats.entry_units(rel) for rel in self.relations]
        self.flow_div = [
            stats.flow_length(rel) if (clustered and config.is_raw(rel))
            else 1.0
            for rel in self.relations
        ]
        self.c1 = params.probe_cost
        self.c2 = params.evict_cost
        self._groups_arr = np.asarray(self.groups, dtype=np.float64)
        self._entry_arr = np.asarray(self.entry_units, dtype=np.float64)
        self._flow_arr = np.asarray(self.flow_div, dtype=np.float64)
        self._parent_arr = np.asarray(self.parent_index, dtype=np.int64)
        self._leaf_arr = np.asarray(self.is_leaf, dtype=np.uint8)
        self._groups_valid = self._groups_arr > 1.0

    def rates(self, spaces: Sequence[float]) -> list[float]:
        """Collision rates per relation for a space vector (units)."""
        return [relation_rate(self.model, self.groups[i],
                              space / self.entry_units[i], self.flow_div[i])
                for i, space in enumerate(spaces)]

    def cost(self, spaces: Sequence[float]) -> float:
        """Eq. 7 per-record cost for a space vector (units per relation)."""
        probe, evict = eq7_sums(self._order, self.parent_index, self.is_leaf,
                                self.rates(spaces))
        return probe * self.c1 + evict * self.c2

    def _model_rates(self, buckets_2d: np.ndarray) -> np.ndarray:
        if type(self.model) is LookupModel:
            return self._lookup_rates(buckets_2d)
        groups = np.broadcast_to(self._groups_arr, buckets_2d.shape)
        vectorized = getattr(self.model, "rates", None)
        if vectorized is not None:
            return np.array(vectorized(groups, buckets_2d), dtype=np.float64)
        rate = self.model.rate
        flat = [rate(g, b) for g, b in zip(groups.ravel().tolist(),
                                           buckets_2d.ravel().tolist())]
        return np.asarray(flat, dtype=np.float64).reshape(buckets_2d.shape)

    def _lookup_rates(self, buckets_2d: np.ndarray) -> np.ndarray:
        # Lean inline of LookupModel.rates for the grid scan: same float
        # ops, fewer temporaries than the general broadcast version.
        table = self.model.table_array
        tstep = self.model.table_step
        positive = buckets_2d > 0
        valid = positive & self._groups_valid
        safe = np.where(positive, buckets_2d, 1.0)
        position = self._groups_arr / safe
        position /= tstep
        hi = position >= float(table.size - 1)
        invalid = ~valid
        idx = np.where(hi | invalid, 0.0, position).astype(np.int64)
        frac = position - idx
        left = table[idx]
        right = table[idx + 1]
        left *= 1.0 - frac
        right *= frac
        left += right
        np.copyto(left, table[-1], where=hi)
        np.copyto(left, 0.0, where=invalid)
        return left

    def cost_many(self, spaces_2d) -> np.ndarray:
        """Eq. 7 cost for each row of an ``(m, n)`` space matrix.

        Lane ``k`` performs exactly the float operations of
        ``cost(spaces_2d[k])`` — accumulation stays left-to-right per
        relation rather than using pairwise ``np.sum`` — so batched and
        scalar evaluation never disagree in the last ulp.
        """
        spaces = np.asarray(spaces_2d, dtype=np.float64)
        if spaces.ndim != 2:
            raise ValueError("cost_many expects an (m, n) space matrix")
        m, n = spaces.shape
        if n != len(self.relations):
            raise ValueError(
                f"space matrix has {n} columns for {len(self.relations)} "
                "relations")
        buckets = spaces / self._entry_arr
        x = self._model_rates(buckets)
        np.divide(x, self._flow_arr, out=x)
        np.maximum(x, 0.0, out=x)
        np.minimum(x, 1.0, out=x)
        probe, evict = eq7_sums(self._order, self.parent_index, self.is_leaf,
                                x.T, zero=np.zeros(m, dtype=np.float64))
        return probe * self.c1 + evict * self.c2

    def to_allocation(self, spaces: Sequence[float]) -> Allocation:
        return Allocation({
            rel: spaces[i] / self.entry_units[i]
            for i, rel in enumerate(self.relations)
        })


def compositions(total: int, parts: int,
                 minimums: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All ways to split ``total`` steps into ``parts`` with per-part floors."""
    if parts == 1:
        if total >= minimums[0]:
            yield (total,)
        return
    rest_min = sum(minimums[1:])
    for first in range(minimums[0], total - rest_min + 1):
        for rest in compositions(total - first, parts - 1, minimums[1:]):
            yield (first,) + rest


def _scalar_descend(evaluator: CostEvaluator, spaces: list[float],
                    floors: list[float], step: float,
                    min_step: float) -> list[float]:
    """First-improvement coordinate descent, mutating ``spaces``.

    The loop :mod:`repro.native.descend` replicates op-for-op, lossy
    ``(a - s) + s`` reverts included.
    """
    n = len(spaces)
    cost = evaluator.cost(spaces)
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
                    trial = evaluator.cost(spaces)
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

    Parameters
    ----------
    grid_step:
        Granularity as a fraction of ``M`` (the paper uses 0.01).
    max_grid_relations:
        Configurations with at most this many relations use the true grid;
        larger ones use multi-start coordinate descent on the same grid,
        halving the step down to ``polish_step`` of ``M``. The default (0)
        always uses descent, which matches the grid to ~1e-6 relative cost
        on the solvable cases (see tests) and is orders of magnitude
        faster; set e.g. 4 to force the paper's literal grid on small
        configurations.
    model:
        Collision model for the Eq. 7 objective; defaults to the paper's
        precomputed ``x(g/b)`` lookup (Section 4.4). The coordinate
        descent relies on the objective being near-convex, which holds
        for any monotone concave rate curve.
    """

    grid_step: float = 0.01
    max_grid_relations: int = 0
    polish_step: float = 0.0025
    model: CollisionModel | None = None
    clustered: bool = True
    name: str = "ES"

    def allocate(self, config: Configuration, stats: RelationStatistics,
                 memory: float, params: CostParameters) -> Allocation:
        if memory < minimum_space(config, stats):
            raise AllocationError(
                f"memory {memory} too small for {len(config)} relations")
        evaluator = CostEvaluator(config, stats, params, self.model,
                                  self.clustered)
        if len(config) <= self.max_grid_relations:
            spaces = self._grid_spaces(evaluator, stats, memory)
            spaces = self._descend(evaluator, stats, memory, list(spaces),
                                   initial_step=self.grid_step / 2)
        else:
            spaces = self._multistart_spaces(evaluator, config, stats,
                                             memory, params)
        return evaluator.to_allocation(spaces)

    # ------------------------------------------------------------------
    # True grid (small configurations)
    # ------------------------------------------------------------------
    def _grid_spaces(self, evaluator: CostEvaluator,
                     stats: RelationStatistics,
                     memory: float) -> tuple[float, ...]:
        steps = max(int(round(1.0 / self.grid_step)), len(evaluator.relations))
        unit = memory / steps
        # Each relation's floor must cover at least one bucket (h units).
        minimums = [max(1, math.ceil(h / unit))
                    for h in evaluator.entry_units]
        best_cost = float("inf")
        best: tuple[int, ...] | None = None
        chunk: list[tuple[int, ...]] = []
        for combo in compositions(steps, len(evaluator.relations), minimums):
            chunk.append(combo)
            if len(chunk) >= _GRID_CHUNK:
                best_cost, best = self._best_grid_point(
                    evaluator, chunk, unit, best_cost, best)
                chunk = []
        if chunk:
            best_cost, best = self._best_grid_point(
                evaluator, chunk, unit, best_cost, best)
        if best is None:
            raise AllocationError(
                "grid too coarse to give every relation a bucket; lower "
                "grid_step or raise memory")
        return tuple(k * unit for k in best)

    @staticmethod
    def _best_grid_point(evaluator: CostEvaluator,
                         chunk: list[tuple[int, ...]], unit: float,
                         best_cost: float,
                         best: tuple[int, ...] | None
                         ) -> tuple[float, tuple[int, ...] | None]:
        rows = np.asarray(chunk, dtype=np.float64) * unit
        costs = evaluator.cost_many(rows)
        # argmin over NaN-masked costs picks the same first-strict-minimum
        # the scalar scan would; NaNs never win (scalar `<` is False).
        ranked = np.where(np.isnan(costs), np.inf, costs)
        k = int(np.argmin(ranked))
        if costs[k] < best_cost:
            return float(costs[k]), chunk[k]
        return best_cost, best

    # ------------------------------------------------------------------
    # Coordinate descent (large configurations and polish)
    # ------------------------------------------------------------------
    def _descend(self, evaluator: CostEvaluator, stats: RelationStatistics,
                 memory: float, spaces: list[float],
                 initial_step: float | None = None) -> list[float]:
        floors = [float(h) for h in evaluator.entry_units]
        step = (initial_step if initial_step is not None
                else self.grid_step) * memory
        min_step = self.polish_step * memory
        base = [float(v) for v in spaces]
        if step < min_step:
            return base
        if type(evaluator.model) is LookupModel and \
                _native.kernel_available():
            return _native.descend(
                base, floors, evaluator._groups_arr,
                evaluator._entry_arr, evaluator._flow_arr,
                evaluator._parent_arr, evaluator._leaf_arr,
                evaluator.c1, evaluator.c2,
                evaluator.model.table_array, evaluator.model.table_step,
                step, min_step)
        return _scalar_descend(evaluator, base, floors, step, min_step)

    def _multistart_spaces(self, evaluator: CostEvaluator,
                           config: Configuration, stats: RelationStatistics,
                           memory: float, params: CostParameters
                           ) -> list[float]:
        starts: list[list[float]] = []
        for allocator in (SupernodeLinear(), ProportionalLinear()):
            allocation = allocator.allocate(config, stats, memory, params)
            starts.append([allocation[rel] * stats.entry_units(rel)
                           for rel in evaluator.relations])
        starts.append(self._uniform_start(evaluator, stats, config, memory))
        best_cost = float("inf")
        best: list[float] | None = None
        for start in starts:
            refined = self._descend(evaluator, stats, memory, list(start),
                                    initial_step=0.08)
            cost = evaluator.cost(refined)
            if cost < best_cost:
                best_cost = cost
                best = refined
        assert best is not None
        return best

    @staticmethod
    def _uniform_start(evaluator: CostEvaluator, stats: RelationStatistics,
                       config: Configuration, memory: float) -> list[float]:
        allocation = spaces_to_allocation(
            config, stats,
            {rel: memory / len(config) for rel in config.relations}, memory)
        return [allocation[rel] * stats.entry_units(rel)
                for rel in evaluator.relations]
