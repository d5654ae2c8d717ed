"""Shared machinery for the space-allocation experiments (Sec. 6.2).

Given a configuration, statistics measured from the clustered trace, and a
memory budget, each heuristic's Eq. 7 cost is compared against the ES
reference optimum; the experiments report relative errors
``(cost_heuristic - cost_ES) / cost_ES`` in percent, exactly as Figures
9-10 and Tables 2-3 do.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.allocation import (
    ExhaustiveAllocator,
    ProportionalLinear,
    ProportionalSqrt,
    SupernodeLinear,
    SupernodeSqrt,
)
from repro.core.collision import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentResult,
    FULL_TRACE_RECORDS,
    MEMORY_GRID,
    Series,
    netflow_stream,
    paper_params,
    record_count,
)
from repro.workloads.datasets import measure_statistics

__all__ = [
    "HEURISTICS",
    "trace_statistics",
    "heuristic_errors",
    "allocation_figure",
    "all_configurations",
]

HEURISTICS = (SupernodeLinear(), SupernodeSqrt(), ProportionalLinear(),
              ProportionalSqrt())


def trace_statistics(full_scale: bool, seed: int = 0,
                     clustered: bool = False) -> RelationStatistics:
    """Statistics of the trace over every 4-attribute relation.

    The Section 6.2 space-allocation study is a pure cost-model comparison
    ("we compute the cost using Equation 7 with a suitable model for
    collision rate"), so flow lengths are omitted by default; pass
    ``clustered=True`` for the Section 6.3.3 real-data experiments, which
    derive flow length temporally.
    """
    n = record_count(full_scale, FULL_TRACE_RECORDS)
    trace = netflow_stream(n, seed=seed)
    relations = FeedingGraph(QuerySet.counts(["A", "B", "C", "D"])).nodes \
        + [q for q in QuerySet.counts(["ABCD"]).group_bys]
    return measure_statistics(trace, relations,
                              flow_timeout=1.0 if clustered else None)


def heuristic_errors(config: Configuration, stats: RelationStatistics,
                     memory: float, params: CostParameters
                     ) -> dict[str, float]:
    """Relative Eq. 7 cost error (%) of each heuristic vs. ES."""
    model = LookupModel()
    es_alloc = ExhaustiveAllocator().allocate(config, stats, memory, params)
    es_cost = per_record_cost(config, stats, es_alloc.buckets, model, params)
    errors = {}
    for allocator in HEURISTICS:
        alloc = allocator.allocate(config, stats, memory, params)
        cost = per_record_cost(config, stats, alloc.buckets, model, params)
        errors[allocator.name] = max(100.0 * (cost - es_cost) / es_cost, 0.0)
    return errors


def allocation_figure(experiment_id: str, notation: str,
                      queries: list | None,
                      full_scale: bool = False, seed: int = 0,
                      memories: tuple[int, ...] = MEMORY_GRID
                      ) -> ExperimentResult:
    """One panel of Figure 9/10: heuristic error vs. M for one config."""
    stats = trace_statistics(full_scale, seed)
    config = Configuration.from_notation(notation, queries)
    params = paper_params()
    per_heuristic: dict[str, list[float]] = {h.name: [] for h in HEURISTICS}
    for memory in memories:
        errors = heuristic_errors(config, stats, float(memory), params)
        for name, err in errors.items():
            per_heuristic[name].append(err)
    series = [Series(name, memories, tuple(errs))
              for name, errs in per_heuristic.items()]
    notes = ["expected shape: SL lowest nearly everywhere; PL/PR can reach "
             "tens of percent (paper Figs. 9-10)"]
    return ExperimentResult(
        experiment_id, f"Space allocation error vs ES for {notation}",
        "M (units)", "error (%)", series, notes)


def all_configurations(queries: QuerySet,
                       stats: RelationStatistics) -> list[Configuration]:
    """Every configuration the paper's evaluation enumerates.

    Follows the paper's Section 6.2 "all possible configurations",
    including its single-child-phantom prune (see EXPERIMENTS.md for why
    that prune is heuristic rather than exact).
    """
    graph = FeedingGraph(queries)
    candidates = [p for p in graph.phantoms if stats.has(p)]
    configs: list[Configuration] = []
    for k in range(len(candidates) + 1):
        for subset in combinations(candidates, k):
            try:
                config = Configuration.nested(
                    list(queries.group_bys) + list(subset),
                    queries.group_bys)
            except ConfigurationError:
                continue
            if any(len(config.children(p)) < 2 for p in config.phantoms):
                continue
            configs.append(config)
    return configs
