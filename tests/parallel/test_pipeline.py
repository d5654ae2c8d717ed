"""Pipeline-executor equivalence: ring-buffered workers == serial shards.

The pipelined executor must be *bit-identical* to the serial sharded
path — same answers, same merged cost counters, same record/epoch totals
— on the paper's 4-query workload, under every partitioner, under tiny
chunk/ring settings that force backpressure, and under injected
crash/delay/corrupt faults at the ring-buffer boundary.
"""

import numpy as np
import pytest

from repro import (
    Aggregate,
    AggregationQuery,
    AttributeSet,
    Configuration,
    QuerySet,
    ShardedStreamSystem,
    StreamSchema,
)
from repro.core.feeding_graph import FeedingGraph
from repro.core.optimizer import plan
from repro.gigascope.records import Dataset
from repro.parallel import (
    HashPartitioner,
    KeyRangePartitioner,
    RoundRobinPartitioner,
)
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.workloads import (
    make_group_universe,
    measure_statistics,
    paper_like_trace,
    uniform_dataset,
)


def A(label):
    return AttributeSet.parse(label)


def fast_retry(**kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    return RetryPolicy(**kwargs)


@pytest.fixture(scope="module")
def netflow():
    return paper_like_trace(n_records=9_000, duration=31.0, seed=5)


@pytest.fixture(scope="module")
def paper_plan(netflow):
    """The paper's Section 6.3.3 query set over the netflow-like trace."""
    queries = QuerySet.counts(["AB", "BC", "BD", "CD"], epoch_seconds=10.0)
    stats = measure_statistics(netflow, FeedingGraph(queries).nodes)
    return queries, plan(queries, stats, memory=4_000)


def run_pair(netflow, queries, the_plan, *, shards=3, partitioner=None,
             serial_kwargs=None, pipeline_kwargs=None):
    """One serial and one pipelined run of the same workload; returns
    (serial_system, serial_report, pipeline_system, pipeline_report)."""
    serial = ShardedStreamSystem.from_plan(
        netflow, queries, the_plan, shards=shards, partitioner=partitioner,
        executor="serial", **(serial_kwargs or {}))
    piped = ShardedStreamSystem.from_plan(
        netflow, queries, the_plan, shards=shards, partitioner=partitioner,
        executor="pipeline", **(pipeline_kwargs or {}))
    return serial, serial.run(), piped, piped.run()


def assert_bit_identical(pipe_report, serial_report, queries):
    assert pipe_report.result.n_records == serial_report.result.n_records
    assert pipe_report.result.n_epochs == serial_report.result.n_epochs
    for query in queries:
        assert pipe_report.answers(query) == serial_report.answers(query)
    assert pipe_report.result.counters.relations == \
        serial_report.result.counters.relations


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "partitioner",
        [HashPartitioner(), RoundRobinPartitioner(),
         KeyRangePartitioner("A")],
        ids=["hash", "round-robin", "range"])
    def test_paper_workload_matches_serial(self, netflow, paper_plan,
                                           partitioner):
        queries, the_plan = paper_plan
        _, serial_report, _, pipe_report = run_pair(
            netflow, queries, the_plan, partitioner=partitioner)
        assert_bit_identical(pipe_report, serial_report, queries)

    def test_per_shard_results_match_serial(self, netflow, paper_plan):
        """Not just the merged answer: each shard's counters and record
        count are identical to its serial twin."""
        queries, the_plan = paper_plan
        serial, _, piped, _ = run_pair(netflow, queries, the_plan)
        assert len(piped.shard_results) == len(serial.shard_results)
        for mine, theirs in zip(piped.shard_results, serial.shard_results):
            assert mine.n_records == theirs.n_records
            assert mine.n_epochs == theirs.n_epochs
            assert mine.counters.relations == theirs.counters.relations

    def test_tiny_chunks_force_backpressure_and_stay_exact(self, netflow,
                                                           paper_plan):
        """chunk_records far below epoch size → multi-chunk epochs and
        ring stalls; exactness must not depend on chunk geometry."""
        queries, the_plan = paper_plan
        _, serial_report, piped, pipe_report = run_pair(
            netflow, queries, the_plan,
            pipeline_kwargs={"pipeline_chunk_records": 128,
                             "pipeline_ring_slots": 2})
        assert_bit_identical(pipe_report, serial_report, queries)
        chunks = piped.registry.counters["pipeline.chunks"].value
        assert chunks > pipe_report.result.n_epochs

    def test_value_aggregates_bit_identical(self):
        """sum/min/max/avg ship through the ring's value lane unchanged:
        per-epoch engine passes keep float accumulation order, so even
        sums compare exactly equal."""
        schema = StreamSchema(("A", "B", "C", "D"), value_columns=("len",))
        universe = make_group_universe(schema, (8, 24, 48, 90),
                                       value_pool=64, seed=7)
        data = uniform_dataset(universe, 6_000, duration=9.0, seed=21,
                               value_column="len")
        queries = QuerySet([
            AggregationQuery(A("AB"), Aggregate("sum", "len"),
                             epoch_seconds=3.0),
            AggregationQuery(A("B"), Aggregate("min", "len"),
                             epoch_seconds=3.0),
            AggregationQuery(A("BC"), Aggregate("max", "len"),
                             epoch_seconds=3.0),
            AggregationQuery(A("C"), Aggregate("avg", "len"),
                             epoch_seconds=3.0),
        ])
        config = Configuration.from_notation("ABC(AB B BC C)")
        buckets = {rel: 32 for rel in config.relations}
        serial = ShardedStreamSystem(data, queries, config, buckets,
                                     value_column="len", shards=3,
                                     executor="serial").run()
        piped = ShardedStreamSystem(data, queries, config, buckets,
                                    value_column="len", shards=3,
                                    executor="pipeline").run()
        for query in queries:
            assert piped.answers(query) == serial.answers(query)
        assert piped.result.counters.relations == \
            serial.result.counters.relations


class TestPipelineFaults:
    @pytest.mark.parametrize("kind", ["crash", "delay", "corrupt"])
    def test_single_fault_recovers_bit_identical(self, netflow, paper_plan,
                                                 kind):
        queries, the_plan = paper_plan
        spec = (FaultSpec(kind, shard=1, attempt=1, delay_seconds=0.05)
                if kind == "delay" else FaultSpec(kind, shard=1, attempt=1))
        _, serial_report, piped, pipe_report = run_pair(
            netflow, queries, the_plan,
            pipeline_kwargs={"fault_plan": FaultPlan((spec,)),
                             "retry": fast_retry()})
        assert_bit_identical(pipe_report, serial_report, queries)
        row = next(o for o in piped.resilience_report.shards
                   if o.shard == 1)
        if kind == "delay":
            assert row.attempts == 1  # slow, but no timeout configured
        else:
            assert row.attempts == 2 and row.succeeded

    def test_crash_every_shard_recovers_bit_identical(self, netflow,
                                                      paper_plan):
        queries, the_plan = paper_plan
        _, serial_report, piped, pipe_report = run_pair(
            netflow, queries, the_plan,
            pipeline_kwargs={"fault_plan": FaultPlan.crash_once(3),
                             "retry": fast_retry()})
        assert_bit_identical(pipe_report, serial_report, queries)
        assert piped.resilience_report.total_retries == 3
        assert piped.resilience_report.fault_counts == {"crash": 3}

    def test_timeout_tears_worker_down_and_retries(self, netflow,
                                                   paper_plan):
        queries, the_plan = paper_plan
        fault = FaultPlan((FaultSpec("delay", shard=0, attempt=1,
                                     delay_seconds=2.0),))
        _, serial_report, piped, pipe_report = run_pair(
            netflow, queries, the_plan,
            pipeline_kwargs={"fault_plan": fault,
                             "retry": fast_retry(timeout_seconds=0.25)})
        assert_bit_identical(pipe_report, serial_report, queries)
        resilience = piped.resilience_report
        assert resilience.cancelled_attempts >= 1
        row = next(o for o in resilience.shards if o.shard == 0)
        assert row.attempts >= 2
        assert any("Timeout" in e for e in row.errors)

    def test_random_fault_plan_stays_exact(self, netflow, paper_plan):
        queries, the_plan = paper_plan
        _, serial_report, _, pipe_report = run_pair(
            netflow, queries, the_plan,
            pipeline_kwargs={
                "fault_plan": FaultPlan.random(3, seed=11,
                                               fault_probability=1.0),
                "retry": fast_retry()})
        assert_bit_identical(pipe_report, serial_report, queries)


class TestDegenerateShapes:
    def test_single_live_shard_falls_back_to_serial_loop(self, netflow,
                                                         paper_plan):
        """A constant range column collapses every record onto shard 0;
        the pipeline degrades to the in-process loop instead of paying
        worker startup for zero parallelism."""
        queries, the_plan = paper_plan
        partitioner = KeyRangePartitioner(
            "A", boundaries=tuple(float(b) for b in
                                  range(10**6, 10**6 + 2)))
        _, serial_report, piped, pipe_report = run_pair(
            netflow, queries, the_plan, partitioner=partitioner)
        assert_bit_identical(pipe_report, serial_report, queries)
        assert piped.partition_summary["empty_shards"] == 2

    def test_empty_stream(self, paper_plan):
        schema = paper_like_trace(n_records=10, duration=1.0, seed=1).schema
        empty = Dataset(
            schema,
            {name: np.empty(0, dtype=np.int64)
             for name in schema.attributes},
            np.empty(0, dtype=np.float64), {})
        queries = QuerySet.counts(["AB", "BC"], epoch_seconds=10.0)
        config = Configuration.flat([q.group_by for q in queries])
        buckets = {rel: 8 for rel in config.relations}
        report = ShardedStreamSystem(empty, queries, config, buckets,
                                     shards=2,
                                     executor="pipeline").run()
        assert report.result.n_records == 0
        assert report.result.n_epochs == 0

    def test_shards_one_bypasses_executor(self, netflow, paper_plan):
        queries, the_plan = paper_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=1,
                                               executor="pipeline")
        report = system.run()
        assert report.result.n_records == len(netflow)


class TestPipelineObservability:
    @pytest.fixture(scope="class")
    def ran(self, netflow, paper_plan):
        queries, the_plan = paper_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=3,
                                               executor="pipeline")
        return system, system.run()

    def test_phase_spans_recorded(self, ran):
        system, _ = ran
        for phase in ("partition", "engine", "merge"):
            assert system.registry.last_span(phase) is not None

    def test_pipeline_counters_and_overlapped_merge(self, ran):
        system, report = ran
        counters = system.registry.counters
        assert counters["pipeline.chunks"].value > 0
        # every non-empty (shard, epoch) pair was merged incrementally,
        # while ingest was still running — not in one final barrier
        assert counters["pipeline.epochs_merged"].value >= \
            report.result.n_epochs
        assert system.registry.gauges["pipeline.ring_slots"].value == \
            system.pipeline_ring_slots

    def test_shard_registries_travel_back(self, ran):
        system, _ = ran
        assert len(system.shard_registries) == 3
        assert any(name.startswith("shard0.")
                   for name in system.registry.counters)

    def test_partition_summary_surfaced(self, ran):
        system, _ = ran
        summary = system.partition_summary
        assert summary["strategy"] == "HashPartitioner"
        assert sum(summary["records"]) == len(system.dataset)
        assert system.registry.gauges["partition.imbalance"].value >= 1.0

    def test_resilience_report_attached(self, ran):
        system, report = ran
        assert report.resilience is system.resilience_report
        assert system.resilience_report.total_retries == 0
        assert system.resilience_report.overhead_seconds == 0.0
