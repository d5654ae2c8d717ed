"""The two-level stream system: LFTA + HFTA + cost accounting.

:class:`StreamSystem` is the top of the substrate's public API: give it a
dataset, the user queries and a :class:`~repro.core.optimizer.Plan` (or an
explicit configuration/allocation), call :meth:`run`, and read measured
costs and exact per-epoch query answers off the returned
:class:`RunReport`.

:func:`check_run` is the one check of a runnable setup, shared by every
runtime; a record batch is checked by building a
:class:`~repro.gigascope.records.Dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostBreakdown, CostParameters
from repro.core.optimizer import Plan
from repro.core.queries import AggregationQuery, QuerySet
from repro.errors import ConfigurationError, SchemaError
from repro.gigascope.engine import bucket_counts, simulate
from repro.gigascope.hfta import QueryAnswer
from repro.gigascope.metrics import SimulationResult
from repro.gigascope.records import Dataset, StreamSchema

__all__ = ["StreamSystem", "RunReport", "check_run"]


def check_run(schema: StreamSchema, queries: Iterable[AggregationQuery],
              configuration: Configuration | None = None,
              buckets: Mapping[AttributeSet, int] | None = None,
              value_column: str | None = None, where=None) -> None:
    """Refuse a setup no run over ``schema`` can answer, before any runs.

    Every grouping attribute and every relation of ``configuration``
    must be a schema attribute, and the configuration must instantiate
    every query (the message names the queries it misses and the ones it
    has) with a count in ``buckets`` for each relation that
    :func:`~repro.gigascope.engine.bucket_counts` accepts. WHERE reads
    only schema columns. A run has at most one value column, which the
    schema declares, and every sum/avg/min/max query reads exactly it.
    Schema violations raise :class:`~repro.errors.SchemaError`, the rest
    :class:`~repro.errors.ConfigurationError`.
    """
    queries = list(queries)
    for query in queries:
        schema.attribute_set(query.group_by)
    if configuration is not None:
        group_bys = [q.group_by for q in queries]
        missing = [gb for gb in group_bys if gb not in configuration]
        if missing:
            instantiated = [gb for gb in group_bys if gb in configuration]
            raise ConfigurationError(
                f"plan does not instantiate queries {missing} "
                f"(it instantiates {instantiated} of the requested set)")
        for rel in configuration.relations:
            schema.attribute_set(rel)
        bucket_counts(configuration.relations, buckets)
    if where is not None:
        columns = schema.attributes + schema.value_columns
        unknown = where.referenced_columns() - set(columns)
        if unknown:
            raise SchemaError(f"WHERE reads columns {sorted(unknown)} "
                              f"not in schema {columns}")
    for column in [value_column] + [q.aggregate.column for q in queries]:
        if column is not None and column not in schema.value_columns:
            raise SchemaError(f"value column {column!r} not declared in "
                              f"schema {schema.value_columns}")
    for query in queries:
        column = query.aggregate.column
        if column is not None and column != value_column:
            raise ConfigurationError(
                f"query {query} reads value column {column!r}, but the "
                f"run's value column is {value_column!r}: pass "
                f"value_column={column!r}")


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
        hfta = self.result.hfta
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
            f"{hfta.rows_folded} rows",
        ]
        if self.result.walk is not None:
            lines.insert(-1, f"LFTA walk         : {self.result.walk}")
        return "\n".join(lines)


class StreamSystem:
    """A runnable two-level LFTA/HFTA system for a planned configuration.

    Construction runs :func:`check_run` and refuses a dataset that does
    not carry the value column.
    """

    def __init__(self, dataset: Dataset, queries: QuerySet,
                 configuration: Configuration,
                 buckets: dict[AttributeSet, int] | None = None,
                 plan: Plan | None = None,
                 params: CostParameters | None = None,
                 value_column: str | None = None,
                 salt_seed: int = 0,
                 where=None):
        if plan is not None:
            configuration = plan.configuration
            buckets = plan.allocation.buckets
        if buckets is None:
            raise ConfigurationError("StreamSystem needs bucket counts "
                                     "(pass buckets= or plan=)")
        check_run(dataset.schema, queries, configuration, buckets,
                  value_column, where)
        if value_column is not None and value_column not in dataset.values:
            raise ConfigurationError(
                f"dataset carries no value column {value_column!r}")
        if where is not None:
            from repro.gigascope.filters import filter_dataset
            dataset = filter_dataset(dataset, where)
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
