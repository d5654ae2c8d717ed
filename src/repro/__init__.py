"""repro — a reproduction of "Multiple Aggregations Over Data Streams".

Zhang, Koudas, Ooi, Srivastava (SIGMOD 2005): shared evaluation of multiple
group-by aggregations over high-speed streams in a two-level (LFTA/HFTA)
DSMS, via *phantom* aggregates, a collision-rate cost model, and greedy
configuration/space optimization.

Quickstart::

    from repro import QuerySet, plan, StreamSystem
    from repro.workloads import paper_like_trace, measure_statistics
    from repro.core.feeding_graph import FeedingGraph

    data = paper_like_trace(n_records=100_000)
    queries = QuerySet.counts(["AB", "BC", "BD", "CD"], epoch_seconds=5.0)
    stats = measure_statistics(
        data, FeedingGraph(queries).nodes, flow_timeout=1.0)
    my_plan = plan(queries, stats, memory=40_000)
    report = StreamSystem.from_plan(data, queries, my_plan).run()
    print(report.summary())

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
reproduction results.
"""

from repro.core import (
    Aggregate,
    AggregationQuery,
    AttributeSet,
    Configuration,
    CostParameters,
    FeedingGraph,
    Plan,
    QuerySet,
    RelationStatistics,
    plan,
)
from repro.gigascope import (
    Dataset,
    QueryAnswer,
    RunReport,
    StreamSchema,
    StreamSystem,
)
from repro.observability import MetricsRegistry, RunManifest
from repro.parallel import HashPartitioner, ShardedStreamSystem
from repro.service import (
    AdmissionError,
    AdmissionPolicy,
    QueryRegistry,
    StreamService,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "Aggregate",
    "AggregationQuery",
    "AttributeSet",
    "Configuration",
    "CostParameters",
    "FeedingGraph",
    "Plan",
    "QueryAnswer",
    "QueryRegistry",
    "QuerySet",
    "RelationStatistics",
    "StreamService",
    "plan",
    "Dataset",
    "HashPartitioner",
    "MetricsRegistry",
    "RunManifest",
    "RunReport",
    "ShardedStreamSystem",
    "StreamSchema",
    "StreamSystem",
    "__version__",
]
