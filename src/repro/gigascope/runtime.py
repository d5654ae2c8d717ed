"""The two-level stream system: LFTA + HFTA + cost accounting.

:class:`StreamSystem` is the top of the substrate's public API: give it a
dataset, the user queries and a :class:`~repro.core.optimizer.Plan` (or an
explicit configuration/allocation), call :meth:`run`, and read measured
costs and exact per-epoch query answers off the returned
:class:`RunReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostBreakdown, CostParameters
from repro.core.optimizer import Plan
from repro.core.queries import AggregationQuery, QuerySet
from repro.errors import ConfigurationError
from repro.gigascope.engine import simulate
from repro.gigascope.hfta import QueryAnswer
from repro.gigascope.metrics import SimulationResult
from repro.gigascope.records import Dataset

__all__ = ["StreamSystem", "RunReport"]


@dataclass
class RunReport:
    """Measured outcome of one streaming run."""

    result: SimulationResult
    params: CostParameters
    queries: QuerySet

    @property
    def intra_cost(self) -> CostBreakdown:
        return self.result.intra_cost(self.params)

    @property
    def flush_cost(self) -> CostBreakdown:
        return self.result.flush_cost(self.params)

    @property
    def per_record_cost(self) -> float:
        return self.result.per_record_cost(self.params)

    @property
    def total_cost(self) -> float:
        return self.result.total_cost(self.params)

    def answers(self, query: AggregationQuery) -> dict[int, QueryAnswer]:
        """Exact per-epoch answers for one of the user queries.

        Each epoch's answer is a lazy :class:`QueryAnswer` mapping.
        """
        return self.result.hfta.all_answers(query)

    def summary(self) -> str:
        from repro.native import merge as native_merge

        hfta = self.result.hfta
        merge_path = ("native" if native_merge.kernel_available()
                      else "numpy")
        lines = [
            f"records processed : {self.result.n_records}",
            f"epochs            : {self.result.n_epochs}",
            f"intra-epoch cost  : {self.intra_cost.total:.0f} "
            f"(probe {self.intra_cost.probe:.0f}, "
            f"evict {self.intra_cost.evict:.0f})",
            f"end-of-epoch cost : {self.flush_cost.total:.0f}",
            f"cost per record   : {self.per_record_cost:.3f}",
            f"HFTA evictions    : {hfta.evictions_received}",
            f"HFTA merge        : {hfta.folds} folds over "
            f"{hfta.rows_folded} rows ({merge_path} kernel)",
        ]
        return "\n".join(lines)


class StreamSystem:
    """A runnable two-level LFTA/HFTA system for a planned configuration."""

    def __init__(self, dataset: Dataset, queries: QuerySet,
                 configuration: Configuration,
                 buckets: dict[AttributeSet, int] | None = None,
                 plan: Plan | None = None,
                 params: CostParameters | None = None,
                 value_column: str | None = None,
                 salt_seed: int = 0,
                 where=None):
        if where is not None:
            from repro.gigascope.filters import filter_dataset
            dataset = filter_dataset(dataset, where)
        if plan is not None:
            configuration = plan.configuration
            buckets = {rel: int(b) for rel, b in plan.allocation.buckets.items()}
        if buckets is None:
            raise ConfigurationError("StreamSystem needs bucket counts "
                                     "(pass buckets= or plan=)")
        missing = [q for q in queries.group_bys if q not in configuration]
        if missing:
            raise ConfigurationError(
                f"configuration does not instantiate queries {missing}")
        unbucketed = [rel for rel in configuration.relations
                      if rel not in buckets]
        if unbucketed:
            raise ConfigurationError(
                "buckets= has no entry for relations "
                f"{[rel.label() for rel in unbucketed]}")
        for rel in configuration.relations:
            dataset.schema.attribute_set(rel)
        needs_value = any(q.aggregate.needs_value or q.aggregate.needs_minmax
                          for q in queries)
        if needs_value and value_column is None:
            raise ConfigurationError(
                "queries use sum/avg/min/max aggregates: pass value_column=")
        if value_column is not None and value_column not in dataset.values:
            raise ConfigurationError(
                f"dataset carries no value column {value_column!r}")
        self.dataset = dataset
        self.queries = queries
        self.configuration = configuration
        self.buckets = {rel: int(b) for rel, b in buckets.items()}
        self.params = params or CostParameters()
        self.value_column = value_column
        self.salt_seed = salt_seed

    @classmethod
    def from_plan(cls, dataset: Dataset, queries: QuerySet, plan: Plan,
                  **kwargs) -> "StreamSystem":
        return cls(dataset, queries, plan.configuration, plan=plan, **kwargs)

    def run(self, registry=None) -> RunReport:
        """Stream the whole dataset; return measured costs and answers.

        An optional :class:`~repro.observability.MetricsRegistry` records
        the ``engine`` phase span and record/epoch counters.
        """
        result = simulate(self.dataset, self.configuration, self.buckets,
                          self.queries.epoch_seconds, self.value_column,
                          self.salt_seed, registry=registry)
        return RunReport(result, self.params, self.queries)
