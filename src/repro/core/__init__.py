"""The paper's core contribution: the MA optimization framework.

Sub-modules follow the paper's structure: :mod:`~repro.core.feeding_graph`
and :mod:`~repro.core.configuration` (Sections 2-3.1),
:mod:`~repro.core.cost_model` (Section 3.2), :mod:`~repro.core.collision`
(Section 4), :mod:`~repro.core.allocation` (Section 5),
:mod:`~repro.core.choosing` (Sections 3.4/6.3) and
:mod:`~repro.core.peak_load` (Section 6.3.4). :mod:`~repro.core.optimizer`
ties them into a one-call planner.
"""

from repro.core.attributes import AttributeSet
from repro.core.queries import Aggregate, AggregationQuery, QuerySet
from repro.core.feeding_graph import FeedingGraph, enumerate_phantoms
from repro.core.configuration import Configuration
from repro.core.statistics import RelationStatistics
from repro.core.cost_model import (
    CostBreakdown,
    CostParameters,
    collision_rates,
    expected_occupancy,
    flush_cost,
    intra_epoch_cost,
    per_record_cost,
)
from repro.core.optimizer import Plan, plan
from repro.core.sql import ParsedQuery, parse_queries, parse_query
from repro.core.sketches import (
    KMVDistinctCounter,
    StreamStatisticsCollector,
)
from repro.core.explain import PlanExplanation, explain

__all__ = [
    "AttributeSet",
    "Aggregate",
    "AggregationQuery",
    "QuerySet",
    "FeedingGraph",
    "enumerate_phantoms",
    "Configuration",
    "RelationStatistics",
    "CostBreakdown",
    "CostParameters",
    "collision_rates",
    "expected_occupancy",
    "flush_cost",
    "intra_epoch_cost",
    "per_record_cost",
    "Plan",
    "plan",
    "ParsedQuery",
    "parse_queries",
    "parse_query",
    "KMVDistinctCounter",
    "StreamStatisticsCollector",
    "PlanExplanation",
    "explain",
]
