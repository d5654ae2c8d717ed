"""One-call planning facade for the MA optimization problem.

:func:`plan` wires together phantom choice, space allocation and peak-load
repair: given the user queries, per-relation statistics, and the LFTA
memory budget, it returns a :class:`Plan` — the configuration, an integer
bucket allocation ready for execution, and the model's cost predictions.

The paper's headline result is that GCSL planning takes milliseconds,
enabling adaptive re-planning as stream statistics drift; :class:`Plan`
records the measured planning time so the claim can be checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.allocation.base import Allocation
from repro.core.choosing.exhaustive import ExhaustiveChoice
from repro.core.choosing.greedy_collision import GreedyCollision
from repro.core.choosing.greedy_space import GreedySpace
from repro.core.allocation.proportional import ProportionalLinear
from repro.core.allocation.supernode import SupernodeLinear
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import (
    CostParameters,
    flush_cost,
    per_record_cost,
)
from repro.core.peak_load import repair
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics

__all__ = ["Plan", "plan"]


@dataclass(frozen=True)
class Plan:
    """The output of :func:`plan`, ready to hand to the runtime.

    The trailing fields are the inputs a re-plan reuses (``memory`` is
    None on plans built by hand or pickled before they were recorded).
    """

    configuration: Configuration
    allocation: Allocation
    predicted_cost: float
    predicted_flush_cost: float
    planning_seconds: float
    algorithm: str
    memory: float | None = None
    phi: float = 1.0
    clustered: bool = True
    model: CollisionModel | None = None
    peak_load_limit: float | None = None
    peak_method: str = "auto"

    def __str__(self) -> str:
        return (f"Plan[{self.algorithm}] {self.configuration} "
                f"cost/record={self.predicted_cost:.3f} "
                f"flush={self.predicted_flush_cost:.0f} "
                f"({self.planning_seconds * 1e3:.2f} ms)")


def plan(queries: QuerySet, stats: RelationStatistics, memory: float,
         params: CostParameters | None = None,
         algorithm: str = "gcsl", phi: float = 1.0,
         model: CollisionModel | None = None,
         peak_load_limit: float | None = None,
         peak_method: str = "auto",
         clustered: bool = True,
         integer: bool = True) -> Plan:
    """Plan a configuration and allocation for a multi-aggregation workload.

    Parameters
    ----------
    queries:
        The user aggregation queries (must share one epoch length).
    stats:
        Group counts (for every query and candidate phantom), flow lengths,
        and entry sizes.
    memory:
        LFTA budget in allocation units (4 bytes each in the paper).
    algorithm:
        ``"gcsl"`` (default), ``"gcpl"``, ``"gs"`` (uses ``phi``),
        ``"epes"`` (exhaustive oracle) or ``"none"`` (no phantoms, optimal
        flat allocation).
    peak_load_limit:
        Optional bound on the end-of-epoch cost ``E_u``; violated plans are
        repaired with ``peak_method`` (``"shrink"``/``"shift"``/``"auto"``).
    integer:
        Round bucket counts to integers (>= 1) for execution; keep
        fractional for pure model studies.
    """
    inputs = dict(memory=memory, phi=phi, clustered=clustered, model=model,
                  peak_load_limit=peak_load_limit, peak_method=peak_method)
    params = params or CostParameters()
    model = model or LookupModel()
    start = time.perf_counter()
    if algorithm in ("gcsl", "none"):
        chooser = GreedyCollision(allocator=SupernodeLinear(), model=model,
                                  clustered=clustered)
    elif algorithm == "gcpl":
        chooser = GreedyCollision(allocator=ProportionalLinear(),
                                  model=model, clustered=clustered)
    elif algorithm == "gs":
        chooser = GreedySpace(phi=phi, model=model, clustered=clustered)
    elif algorithm == "epes":
        chooser = ExhaustiveChoice(model=model, clustered=clustered)
    else:
        raise ValueError(f"unknown planning algorithm {algorithm!r}")
    if algorithm == "none":
        result = chooser.start(queries, stats, memory, params)
    else:
        result = chooser.choose(queries, stats, memory, params)
    config, allocation = result.configuration, result.allocation
    if peak_load_limit is not None:
        allocation = repair(config, stats, allocation, model, params,
                            peak_load_limit, peak_method)
    if integer:
        allocation = allocation.rounded(stats, memory)
    elapsed = time.perf_counter() - start
    cost = per_record_cost(config, stats, allocation.buckets, model, params,
                           clustered)
    flush = flush_cost(config, stats, allocation.buckets, model,
                       params).total
    return Plan(config, allocation, cost, flush, elapsed, algorithm, **inputs)
