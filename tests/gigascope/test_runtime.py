"""Tests for the end-to-end StreamSystem."""

import numpy as np
import pytest

from repro import (
    Aggregate,
    AggregationQuery,
    AttributeSet,
    Configuration,
    QuerySet,
    StreamSchema,
    StreamSystem,
)
from repro.core.optimizer import plan
from repro.errors import ConfigurationError, SchemaError
from repro.gigascope.engine import simulate
from repro.gigascope.records import Dataset
from repro.workloads import measure_statistics, uniform_dataset
from repro.core.feeding_graph import FeedingGraph

from tests.references import reference_report


def A(label):
    return AttributeSet.parse(label)


@pytest.fixture(scope="module")
def dataset(small_universe_module):
    return uniform_dataset(small_universe_module, 6000, duration=9.0,
                           seed=21, value_column="len")


@pytest.fixture(scope="module")
def small_universe_module():
    from repro import StreamSchema
    from repro.workloads import make_group_universe
    schema = StreamSchema(("A", "B", "C", "D"), value_columns=("len",))
    return make_group_universe(schema, (8, 24, 48, 90), value_pool=64,
                               seed=7)


class TestStreamSystem:
    def test_planned_run_end_to_end(self, dataset):
        queries = QuerySet.counts(["A", "B", "C", "D"], epoch_seconds=3.0)
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        p = plan(queries, stats, memory=600)
        report = StreamSystem.from_plan(dataset, queries, p).run()
        assert report.result.n_records == len(dataset)
        assert report.per_record_cost > 0
        assert "records processed" in report.summary()

    def test_answers_match_across_engines(self, dataset):
        queries = QuerySet.counts(["A", "B"], epoch_seconds=3.0)
        config = Configuration.from_notation("AB(A B)")
        buckets = {rel: 16 for rel in config.relations}
        engine = StreamSystem(dataset, queries, config, buckets).run()
        reference = reference_report(dataset, queries, config, buckets)
        for q in queries:
            assert engine.answers(q) == reference.answers(q)

    def test_phantom_config_same_answers_as_naive(self, dataset):
        """The core guarantee: phantoms never change query results."""
        queries = QuerySet.counts(["A", "B"], epoch_seconds=3.0)
        naive = StreamSystem(dataset, queries,
                             Configuration.flat(queries.group_bys),
                             {A("A"): 16, A("B"): 16}).run()
        tree = StreamSystem(dataset, queries,
                            Configuration.from_notation("AB(A B)"),
                            {A("AB"): 16, A("A"): 8, A("B"): 8}).run()
        for q in queries:
            assert naive.answers(q) == tree.answers(q)

    def test_avg_query_needs_value_column(self, dataset):
        q = AggregationQuery(A("A"), Aggregate("avg", "len"),
                             epoch_seconds=3.0)
        queries = QuerySet([q])
        config = Configuration.flat([A("A")])
        with pytest.raises(ConfigurationError):
            StreamSystem(dataset, queries, config, {A("A"): 16})
        system = StreamSystem(dataset, queries, config, {A("A"): 16},
                              value_column="len")
        report = system.run()
        answers = report.answers(q)
        assert answers
        # Averages must be within the generated value range.
        for per_epoch in answers.values():
            for value in per_epoch.values():
                assert 40.0 <= value <= 10_000.0
        # A run has one value column, and every value query reads it: a
        # max(ttl) run over value_column="len" was answered from len.
        ttl = QuerySet([AggregationQuery(A("A"), Aggregate("max", "ttl"),
                                         epoch_seconds=3.0)])
        with pytest.raises(SchemaError, match="'ttl' not declared"):
            StreamSystem(dataset, ttl, config, {A("A"): 16},
                         value_column="len")
        both = StreamSchema(dataset.schema.attributes,
                            value_columns=("len", "ttl"))
        with_ttl = Dataset(both, dataset.columns, dataset.timestamps,
                           {"len": dataset.values["len"],
                            "ttl": dataset.values["len"] % 64})
        with pytest.raises(ConfigurationError, match="'len'"):
            StreamSystem(with_ttl, ttl, config, {A("A"): 16},
                         value_column="len")
        assert StreamSystem(with_ttl, ttl, config, {A("A"): 16},
                            value_column="ttl").run().answers(ttl.query_for(
                                A("A")))

    def test_missing_query_in_configuration(self, dataset):
        queries = QuerySet.counts(["A", "B"], epoch_seconds=3.0)
        config = Configuration.flat([A("A")])
        with pytest.raises(ConfigurationError):
            StreamSystem(dataset, queries, config, {A("A"): 16})

    def test_missing_bucket_entry_names_relations(self, dataset):
        """Explicit buckets= lacking a relation must fail up front."""
        queries = QuerySet.counts(["A", "B"], epoch_seconds=3.0)
        config = Configuration.from_notation("AB(A B)")
        with pytest.raises(ConfigurationError, match=r"'B'"):
            StreamSystem(dataset, queries, config,
                         {A("AB"): 16, A("A"): 8})

    def test_requires_buckets_or_plan(self, dataset):
        queries = QuerySet.counts(["A"], epoch_seconds=3.0)
        with pytest.raises(ConfigurationError):
            StreamSystem(dataset, queries, Configuration.flat([A("A")]))

    def test_unknown_engine(self, dataset):
        """There is one engine and no option to pick another."""
        queries = QuerySet.counts(["A"], epoch_seconds=3.0)
        for engine in ("vectorized", "reference", "quantum"):
            with pytest.raises(TypeError):
                StreamSystem(dataset, queries, Configuration.flat([A("A")]),
                             {A("A"): 16}, engine=engine)

    def test_measured_vs_predicted_cost_agree_roughly(self, dataset):
        """Eq. 7 should be in the ballpark of the measured cost."""
        queries = QuerySet.counts(["A", "B", "C", "D"], epoch_seconds=9.0)
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        p = plan(queries, stats, memory=800, algorithm="none")
        report = StreamSystem.from_plan(dataset, queries, p).run()
        assert report.per_record_cost == pytest.approx(
            p.predicted_cost, rel=0.6)


class TestBucketMaps:
    """``simulate`` and ``check_run`` read a bucket map through one
    check: every relation needs a count, a count is a real number and
    not a bool, floored and at least 1."""

    config = Configuration.from_notation("AB(A B)")

    def run(self, dataset, buckets):
        return simulate(dataset, self.config, buckets, 3.0)

    def both(self, dataset, buckets):
        """The error ``simulate`` raises, after ``StreamSystem``
        (``check_run``) raised the same one."""
        queries = QuerySet.counts(["A", "B"], epoch_seconds=3.0)
        with pytest.raises(ConfigurationError) as checked:
            StreamSystem(dataset, queries, self.config, buckets)
        with pytest.raises(ConfigurationError) as simulated:
            self.run(dataset, buckets)
        assert str(checked.value) == str(simulated.value)
        return str(simulated.value)

    def test_missing_relations_are_named(self, dataset):
        message = self.both(dataset, {A("AB"): 16})
        assert message == "buckets= has no entry for relations ['A', 'B']"

    @pytest.mark.parametrize("count", [True, np.bool_(True), "12", None,
                                       b"4", [4]])
    def test_non_numbers_are_refused(self, dataset, count):
        buckets = {rel: 8 for rel in self.config.relations}
        buckets[A("B")] = count
        assert "not a number" in self.both(dataset, buckets)

    @pytest.mark.parametrize("count", [0, 0.9, -3, float("nan"),
                                       float("inf")])
    def test_counts_below_one_are_refused(self, dataset, count):
        buckets = {rel: 8 for rel in self.config.relations}
        buckets[A("A")] = count
        assert "needs >= 1 bucket" in self.both(dataset, buckets)

    def test_numpy_and_float_counts_floor(self, dataset):
        want = self.run(dataset, {A("AB"): 16, A("A"): 7, A("B"): 5})
        for buckets in ({A("AB"): np.int64(16), A("A"): np.int32(7),
                         A("B"): np.uint8(5)},
                        {A("AB"): 16.99, A("A"): np.float64(7.5),
                         A("B"): 5.0}):
            got = self.run(dataset, buckets)
            assert got.counters.relations == want.counters.relations
            for rel in self.config.leaves:
                assert got.hfta.epochs(rel) == want.hfta.epochs(rel)
                for epoch in want.hfta.epochs(rel):
                    assert got.hfta.totals(rel, epoch) == \
                        want.hfta.totals(rel, epoch)
