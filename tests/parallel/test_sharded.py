"""Sharded-exactness properties: N shards walked as one == one StreamSystem.

Where a test needs each shard on its own, :func:`shard_runs` copies the
shards out of the stream and walks each alone with the shard tables:
the one walk's counters are theirs summed.
"""

import multiprocessing
import re

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
    StreamSystem,
)
from repro.core.feeding_graph import FeedingGraph
from repro.errors import ConfigurationError
from repro.gigascope import simulate
from repro.gigascope.filters import Comparison
from repro.gigascope.records import Dataset
from repro.parallel import HashPartitioner
from repro.core.optimizer import plan
from repro.workloads import (
    make_group_universe,
    measure_statistics,
    paper_like_trace,
    uniform_dataset,
)
from tests.references import KeyRange, RoundRobin, numpy_bodies, split_dataset


def A(label):
    return AttributeSet.parse(label)


def shard_runs(system):
    """Each non-empty shard of ``system``'s stream, copied out and
    walked on its own with the shard tables."""
    dataset = system.dataset
    ids = system.partitioner.shard_ids(dataset, system.shards)
    return [simulate(part, system.configuration, system.shard_buckets,
                     system.queries.epoch_seconds, system.value_column,
                     system.salt_seed)
            for part in split_dataset(dataset, ids, system.shards)
            if len(part)]


@pytest.fixture(scope="module")
def netflow():
    return paper_like_trace(n_records=12_000, duration=31.0, seed=5)


@pytest.fixture(scope="module")
def synthetic():
    schema = StreamSchema(("A", "B", "C", "D"), value_columns=("len",))
    universe = make_group_universe(schema, (8, 24, 48, 90), value_pool=64,
                                   seed=7)
    return uniform_dataset(universe, 8_000, duration=9.0, seed=21,
                           value_column="len")


@pytest.fixture(scope="module")
def pair_plan(netflow):
    queries = QuerySet.counts(["AB", "BC", "BD", "CD"], epoch_seconds=10.0)
    stats = measure_statistics(netflow, FeedingGraph(queries).nodes)
    return queries, plan(queries, stats, memory=4_000)


#: The built-in partitioner on two keys, then two user partitioners.
PARTITIONERS = [HashPartitioner(), HashPartitioner(AttributeSet.parse("B")),
                RoundRobin(),
                KeyRange("A", (40_000, 70_000, 95_000, 115_000, 135_000,
                               155_000, 178_000))]


class TestShardedExactness:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("partitioner", PARTITIONERS,
                             ids=["hash", "hash-B", "round-robin", "range"])
    def test_netflow_answers_identical(self, netflow, pair_plan, shards,
                                       partitioner):
        """Per-epoch answers are byte-identical to the single-core system."""
        queries, the_plan = pair_plan
        single = StreamSystem.from_plan(netflow, queries, the_plan).run()
        sharded = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=shards,
            partitioner=partitioner).run()
        assert sharded.result.n_records == single.result.n_records
        assert sharded.result.n_epochs == single.result.n_epochs
        for query in queries:
            assert sharded.answers(query) == single.answers(query)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_synthetic_value_aggregates(self, synthetic, shards):
        """sum/avg/min/max survive the shard merge (min/max exactly)."""
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
        single = StreamSystem(synthetic, queries, config, buckets,
                              value_column="len").run()
        sharded = ShardedStreamSystem(synthetic, queries, config, buckets,
                                      value_column="len", shards=shards).run()
        for query in queries:
            mine, theirs = sharded.answers(query), single.answers(query)
            assert mine.keys() == theirs.keys()
            for epoch in theirs:
                assert mine[epoch].keys() == theirs[epoch].keys()
                for group in theirs[epoch]:
                    assert mine[epoch][group] == \
                        pytest.approx(theirs[epoch][group], rel=1e-12)

    def test_where_filter_applies_before_partitioning(self, netflow,
                                                      pair_plan):
        queries, the_plan = pair_plan
        where = Comparison("A", "!=", int(netflow.columns["A"][0]))
        single = StreamSystem.from_plan(netflow, queries, the_plan,
                                        where=where).run()
        sharded = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, where=where, shards=3).run()
        assert sharded.result.n_records == single.result.n_records
        for query in queries:
            assert sharded.answers(query) == single.answers(query)


class TestDegenerateShapes:
    def test_single_live_shard(self, netflow, pair_plan):
        """A range boundary above every key collapses all records onto
        shard 0; the empty shards' slices stay empty and answers stay
        exact."""
        queries, the_plan = pair_plan
        partitioner = KeyRange("A", (10**6, 10**6 + 1))
        single = StreamSystem.from_plan(netflow, queries, the_plan).run()
        system = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=3, partitioner=partitioner)
        report = system.run()
        assert system.partition_summary["empty_shards"] == 2
        (alone,) = shard_runs(system)
        assert report.result.counters.relations == alone.counters.relations
        for query in queries:
            assert report.answers(query) == single.answers(query)

    def test_empty_stream(self, netflow):
        empty = Dataset(
            netflow.schema,
            {name: np.empty(0, dtype=np.int64)
             for name in netflow.schema.attributes},
            np.empty(0, dtype=np.float64), {})
        queries = QuerySet.counts(["AB", "BC"], epoch_seconds=10.0)
        config = Configuration.flat([q.group_by for q in queries])
        buckets = {rel: 8 for rel in config.relations}
        report = ShardedStreamSystem(empty, queries, config, buckets,
                                     shards=2).run()
        assert report.result.n_records == 0
        assert report.result.n_epochs == 0


class TestCounterConsistency:
    @pytest.mark.parametrize("partitioner", PARTITIONERS,
                             ids=["hash", "hash-B", "round-robin", "range"])
    def test_merged_counters_sum_across_shards(self, netflow, pair_plan,
                                               partitioner):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=4, partitioner=partitioner)
        report = system.run()
        merged = report.result.counters
        runs = shard_runs(system)
        parts = [r.counters for r in runs]
        for rel, counters in merged.relations.items():
            assert counters.arrivals_intra == sum(
                p.relations[rel].arrivals_intra
                for p in parts if rel in p.relations)
            assert counters.evictions == sum(
                p.relations[rel].evictions
                for p in parts if rel in p.relations)
        raw = the_plan.configuration.raw_relations
        intra_raw = sum(merged.relations[rel].arrivals_intra for rel in raw)
        assert intra_raw == len(netflow) * len(raw)
        assert report.result.hfta.evictions_received == sum(
            r.hfta.evictions_received for r in runs)
        # The library and the numpy bodies of tests/references.py cut
        # the same shards: same balance, counters and answers.
        on_numpy = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=4, partitioner=partitioner)
        with numpy_bodies():
            numpy_report = on_numpy.run()
        assert on_numpy.partition_summary == system.partition_summary
        assert numpy_report.result.counters.relations == merged.relations
        for query in queries:
            assert numpy_report.answers(query) == report.answers(query)

    def test_costs_accumulate(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        report = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=2).run()
        assert report.per_record_cost > 0
        assert report.total_cost == pytest.approx(
            report.intra_cost.total + report.flush_cost.total)
        assert "records processed" in report.summary()


class TestShardedSystemApi:
    def test_memory_divided_across_shards(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=4)
        for rel, total in system.buckets.items():
            assert system.shard_buckets[rel] == max(1, total // 4)

    def test_single_shard_fast_path(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        single = StreamSystem.from_plan(netflow, queries, the_plan).run()
        fast = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                             shards=1).run()
        assert fast.result.counters.relations.keys() == \
            single.result.counters.relations.keys()
        for rel, counters in single.result.counters.relations.items():
            assert fast.result.counters.relations[rel].arrivals == \
                counters.arrivals
        for query in queries:
            assert fast.answers(query) == single.answers(query)

    def test_rejects_bad_arguments(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        for bad in (0, 2.7, True, "2"):
            with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
                ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                              shards=bad)
        # Shards have one way to run, once; the knobs that picked another
        # or retried it are gone, not ignored.
        for removed in ({"executor": "serial"}, {"max_workers": 1},
                        {"retry": None}, {"fault_plan": None}):
            with pytest.raises(TypeError):
                ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                              **removed)
        # A partitioner without a callable shard_ids is refused when the
        # system is built, not when it first runs.
        with pytest.raises(ConfigurationError,
                           match="partitioner object has no callable"):
            ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                          shards=2, partitioner=object())

    def test_rejects_bad_partitioner_ids(self, netflow, pair_plan):
        """A partitioner's ids are validated before balance and split:
        a typed error naming the partitioner, nothing published."""
        queries, the_plan = pair_plan

        class Broken:
            def __init__(self, make_ids):
                self.make_ids = make_ids

            def shard_ids(self, dataset, n_shards):
                return self.make_ids(len(dataset))

        for make_ids, detail in (
                (lambda n: np.full(n, -1), "[-1, -1]"),
                (lambda n: np.arange(n) % 6, "[0, 5]"),
                (lambda n: np.zeros(n), "float64"),
                (lambda n: np.zeros(n - 1, dtype=np.int64), "shape")):
            system = ShardedStreamSystem.from_plan(
                netflow, queries, the_plan, shards=2,
                partitioner=Broken(make_ids))
            with pytest.raises(ConfigurationError,
                               match="from Broken") as excinfo:
                system.run()
            assert detail in str(excinfo.value)
            assert system.partition_summary is None

    def test_any_integer_ids_accepted(self, netflow, pair_plan):
        """A partitioner may return ids of any integer dtype, unsigned
        and narrow ones included: the same run as int64 ids."""
        queries, the_plan = pair_plan

        class Typed:
            def __init__(self, dtype):
                self.dtype = dtype

            def shard_ids(self, dataset, n_shards):
                return (np.arange(len(dataset)) % n_shards).astype(
                    self.dtype)

        reports = [ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=3,
            partitioner=Typed(dtype)).run()
            for dtype in (np.int64, np.uint64, np.uint8, np.int16)]
        for report in reports[1:]:
            assert report.result.counters.relations == \
                reports[0].result.counters.relations
            for query in queries:
                assert report.answers(query) == reports[0].answers(query)

    def test_walk_takes_the_checked_ids_uncopied(self, netflow, pair_plan,
                                                 monkeypatch):
        """Whatever integer dtype a partitioner returns, the walk is
        handed the check's contiguous int64 ids with the slice count
        its counts give (``ShardIds``), which ``simulate`` keeps as
        they are and ``Forest.bind`` takes without a pass; the summary
        counts each shard's records."""
        from repro.gigascope import engine
        from repro.native.ingest import Forest, ShardIds
        queries, the_plan = pair_plan
        seen, bound = [], []
        check = engine._shard_ids
        bind = Forest.bind

        def spy(shards, n_records):
            checked, slices = check(shards, n_records)
            seen.append((shards, checked, slices))
            return checked, slices

        def bind_spy(forest, columns, values, shards=None):
            bound.append(shards)
            return bind(forest, columns, values, shards)

        monkeypatch.setattr(engine, "_shard_ids", spy)
        monkeypatch.setattr(Forest, "bind", bind_spy)

        class Narrow:
            def shard_ids(self, dataset, n_shards):
                return HashPartitioner().shard_ids(
                    dataset, n_shards).astype(np.uint8)

        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=3,
                                               partitioner=Narrow())
        system.run()
        ((handed, walked, slices),) = seen
        assert isinstance(handed, ShardIds)
        ids = handed.ids
        assert ids.dtype == np.int64 and ids.flags.c_contiguous
        assert walked is ids
        assert slices == handed.slices == int(ids.max()) + 1 == 3
        assert bound and all(isinstance(shards, ShardIds)
                             and shards.ids is ids for shards in bound)
        assert system.partition_summary["records"] == \
            np.bincount(ids, minlength=3).tolist()

    def test_timings_populated(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=2)
        assert system.last_timings is None
        system.run()
        assert set(system.last_timings) == {
            "partition_seconds", "engine_seconds"}
        assert system.last_timings["engine_seconds"] > 0
        assert multiprocessing.active_children() == []


class TestMemoryBudget:
    """The shard split must never exceed the planned LFTA budget."""

    def test_rejects_shards_exceeding_bucket_count(self, synthetic):
        queries = QuerySet.counts(["AB"], epoch_seconds=3.0)
        config = Configuration.flat([A("AB")])
        buckets = {A("AB"): 2}
        with pytest.raises(ConfigurationError, match="exceed"):
            ShardedStreamSystem(synthetic, queries, config, buckets,
                                shards=4)

    def test_split_at_exact_bucket_count(self, synthetic):
        queries = QuerySet.counts(["AB"], epoch_seconds=3.0)
        config = Configuration.flat([A("AB")])
        system = ShardedStreamSystem(synthetic, queries, config,
                                     {A("AB"): 2}, shards=2)
        assert system.shard_buckets[A("AB")] == 1
        system.run()  # must still produce exact answers

    def test_split_total_never_exceeds_budget(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=4)
        for rel, total in system.buckets.items():
            assert system.shard_buckets[rel] * 4 <= total

    def test_error_names_offending_relations(self, synthetic):
        queries = QuerySet.counts(["AB"], epoch_seconds=3.0)
        config = Configuration.flat([A("AB")])
        with pytest.raises(ConfigurationError, match="AB"):
            ShardedStreamSystem(synthetic, queries, config, {A("AB"): 3},
                                shards=5)


class TestObservabilityWiring:
    def test_phase_spans_recorded(self, netflow, pair_plan):
        from repro import MetricsRegistry
        queries, the_plan = pair_plan
        registry = MetricsRegistry()
        system = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=3,
            registry=registry)
        system.run()
        assert registry.last_span("partition") is not None
        assert registry.last_span("engine") is not None
        assert registry.last_span("merge") is None  # nothing to merge
        assert registry.span_seconds("engine") > 0
        # one walk over every record, on the run's own registry
        assert registry.counter("engine.records").value == len(netflow)
        assert not any(name.startswith("shard")
                       for name in registry.counters)

    def test_partition_summary_surfaced(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=3)
        system.run()
        summary = system.partition_summary
        assert summary["strategy"] == "HashPartitioner"
        assert sum(summary["records"]) == len(netflow)
        assert system.registry.gauges["partition.imbalance"].value >= 1.0
        assert "partition.kernel" not in system.registry.gauges

    def test_partition_span_splits_in_two(self, netflow, pair_plan,
                                          monkeypatch):
        """``partition.assign`` (partitioner + the one id check) and
        ``partition.rows`` (each shard's record count + summary) lie
        inside the ``partition`` span, one after the other."""
        from repro.parallel import partition as partition_module
        from repro.parallel import sharded as sharded_module

        checks = []
        check = partition_module.check_shard_ids
        for module in (partition_module, sharded_module):
            monkeypatch.setattr(module, "check_shard_ids",
                                lambda *a, **k: checks.append(1) or
                                check(*a, **k))
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=3)
        system.run()
        assert checks == [1]
        registry = system.registry
        whole, assign, rows = (registry.last_span(name) for name in (
            "partition", "partition.assign", "partition.rows"))
        assert whole.start <= assign.start <= assign.end <= rows.start \
            <= rows.end <= whole.end
        assert system.last_timings["partition_seconds"] == whole.seconds

    def test_last_timings_derived_from_spans(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=2)
        assert system.last_timings is None
        system.run()
        timings = system.last_timings
        assert timings["engine_seconds"] == \
            system.registry.last_span("engine").seconds
        assert timings["partition_seconds"] >= 0.0

    def test_single_shard_records_engine_span(self, netflow, pair_plan):
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(netflow, queries, the_plan,
                                               shards=1)
        system.run()
        timings = system.last_timings
        assert timings["engine_seconds"] > 0
        assert timings["partition_seconds"] == 0.0


class TestMergeResults:
    """The one walk's result is the shards' merged result."""

    def test_rejects_empty(self, netflow, pair_plan):
        """An empty assignment for a non-empty stream merges nothing:
        refused before the walk."""
        _, the_plan = pair_plan
        buckets = the_plan.allocation.buckets
        with pytest.raises(ConfigurationError, match="one id per record"):
            simulate(netflow, the_plan.configuration, buckets, 10.0,
                     shards=np.empty(0, dtype=np.int64))

    def test_epoch_count_from_union_not_sum(self, netflow, pair_plan):
        """Shards sharing epochs must not double-count them."""
        queries, the_plan = pair_plan
        system = ShardedStreamSystem.from_plan(
            netflow, queries, the_plan, shards=3)
        report = system.run()
        shard_epoch_sum = sum(r.n_epochs for r in shard_runs(system))
        assert report.result.n_epochs <= shard_epoch_sum
        single_epochs = StreamSystem.from_plan(
            netflow, queries, the_plan).run().result.n_epochs
        assert report.result.n_epochs == single_epochs
        # Epochs 2-4 are empty, and epoch 5 holds one A-group only, so
        # under an A-keyed hash it lands on one shard entirely: the
        # count is the stream's (3), not a per-shard sum or maximum.
        keep = netflow.timestamps < 30.0
        columns = {name: col[keep] for name, col in netflow.columns.items()}
        tail = int(np.count_nonzero(netflow.timestamps[keep] >= 20.0))
        head = int(np.count_nonzero(keep)) - tail
        columns["A"] = np.concatenate((columns["A"][:head],
                                       np.full(tail, 123_456)))
        timestamps = netflow.timestamps[keep].copy()
        timestamps[head:] += 30.0
        gappy = Dataset(netflow.schema, columns, timestamps, {})
        by_a = ShardedStreamSystem.from_plan(
            gappy, queries, the_plan, shards=2,
            partitioner=HashPartitioner(A("A")))
        assert by_a.run().result.n_epochs == 3 == StreamSystem.from_plan(
            gappy, queries, the_plan).run().result.n_epochs
        assert sorted(r.n_epochs for r in shard_runs(by_a)) == [2, 3]
