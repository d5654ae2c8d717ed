"""Tests for dataset statistics measurement."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import AttributeSet, StreamSchema
from repro.errors import StatisticsError
from repro.gigascope.records import Dataset
from repro.workloads import (
    NetflowTraceGenerator,
    calibrated_flow_length,
    flow_count,
    make_group_universe,
    mean_flow_length,
    measure_statistics,
    one_record_per_flow,
    paper_like_trace,
    uniform_dataset,
)
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import QuerySet
from repro.native.partition import group_stats
from tests.references import numpy_bodies


def A(label):
    return AttributeSet.parse(label)


def tiny_dataset(values, times):
    schema = StreamSchema(("A",))
    return Dataset(schema, {"A": np.array(values, dtype=np.int64)},
                   np.array(times, dtype=float))


class TestFlowCount:
    def test_contiguous_runs(self):
        data = tiny_dataset([1, 1, 1, 2, 2, 1], [0, .1, .2, .3, .4, .5])
        # gap-based with timeout: 1-run, 2-run, then 1 returns within
        # timeout of its previous occurrence -> still a new flow? The last
        # record's previous same-group record is at t=0.2, gap 0.3 <= 1.0,
        # so it merges: flows = 2.
        assert flow_count(data, "A", timeout=1.0) == 2

    def test_timeout_splits_flows(self):
        data = tiny_dataset([1, 1, 1, 1], [0.0, 0.1, 5.0, 5.1])
        assert flow_count(data, "A", timeout=1.0) == 2

    def test_mean_flow_length(self):
        data = tiny_dataset([1, 1, 2, 2], [0, .1, .2, .3])
        assert mean_flow_length(data, "A", timeout=1.0) == 2.0

    def test_empty_dataset(self):
        data = tiny_dataset([], [])
        assert flow_count(data, "A") == 0
        assert mean_flow_length(data, "A") == 1.0


class TestCalibratedFlowLength:
    def test_uniform_data_is_near_one(self):
        schema = StreamSchema(("A", "B"))
        universe = make_group_universe(schema, (20, 200), seed=1)
        data = uniform_dataset(universe, 30_000, seed=2)
        assert calibrated_flow_length(data, "AB") < 3.0

    def test_clustered_data_is_large(self):
        schema = StreamSchema(("A", "B"))
        universe = make_group_universe(schema, (20, 200), seed=1)
        gen = NetflowTraceGenerator(universe, mean_flow_length=40,
                                    mean_flow_seconds=0.05)
        data = gen.generate(30_000, duration=30.0, seed=3)
        assert calibrated_flow_length(data, "AB") > 5.0

    def test_empty(self):
        assert calibrated_flow_length(tiny_dataset([], []), "A") == 1.0


class TestMeasureStatistics:
    def test_covers_feeding_graph(self):
        schema = StreamSchema(("A", "B", "C", "D"))
        universe = make_group_universe(schema, (8, 24, 48, 90),
                                       value_pool=64, seed=7)
        data = uniform_dataset(universe, 10_000, seed=1)
        queries = QuerySet.counts(["AB", "BC", "BD", "CD"])
        graph = FeedingGraph(queries)
        stats = measure_statistics(data, graph.nodes)
        assert stats.covered(graph.nodes)
        assert stats.group_count(A("ABCD")) <= 90

    def test_flow_lengths_recorded_when_requested(self):
        data = tiny_dataset([1, 1, 2, 2], [0, .1, .2, .3])
        stats = measure_statistics(data, [A("A")], flow_timeout=1.0)
        assert stats.flow_length(A("A")) == 2.0

    def test_flow_lengths_default_one(self):
        data = tiny_dataset([1, 1, 2, 2], [0, .1, .2, .3])
        stats = measure_statistics(data, [A("A")])
        assert stats.flow_length(A("A")) == 1.0

    def test_counters_forwarded(self):
        data = tiny_dataset([1], [0])
        stats = measure_statistics(data, [A("A")], counters=2)
        assert stats.entry_units(A("A")) == 3


# ----------------------------------------------------------------------
# The one-pass statistics kernel against the numpy body of the references
# ----------------------------------------------------------------------
ABC = StreamSchema(("A", "B", "C"))
#: Every projection of ABC, so one stream exercises 1..3 key columns.
ABC_RELATIONS = ["A", "B", "C", "AB", "AC", "BC", "ABC"]
#: Key offsets: small, negative, beyond 2**62 and at the int64 minimum.
KEY_BASES = [0, -7, 2**62 + 3, -2**63]


@st.composite
def abc_streams(draw):
    """Short streams whose steps hit 0 (equal timestamps) and the
    timeouts under test exactly, beside non-dyadic ones."""
    n = draw(st.integers(1, 40))
    steps = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 0.1]),
                          min_size=n, max_size=n))
    columns = {}
    for name in ABC.attributes:
        keys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        base = draw(st.sampled_from(KEY_BASES))
        stride = draw(st.sampled_from([1, 2**40]))
        columns[name] = base + stride * np.array(keys, dtype=np.int64)
    start = draw(st.sampled_from([0.0, 1e6 + 0.3]))
    return Dataset(ABC, columns, start + np.cumsum(steps))


class TestOnePassStatistics:
    @pytest.mark.parametrize("flow_timeout", [None, 0.0, 0.5, 1.0])
    @given(data=abc_streams())
    def test_kernel_matches_numpy_body(self, flow_timeout, data):
        fast = measure_statistics(data, ABC_RELATIONS, flow_timeout)
        with numpy_bodies():
            slow = measure_statistics(data, ABC_RELATIONS, flow_timeout)
        assert fast == slow

    def test_netflow_workload_shape(self):
        """The netflow benchmark's input: a paper-like trace head, four
        attributes, every node of the feeding graph, 1 s flows."""
        data = paper_like_trace(n_records=60_000, seed=1).head(20_000)
        nodes = FeedingGraph(QuerySet.counts(["AB", "BC", "BD", "CD"])).nodes
        fast = measure_statistics(data, nodes, flow_timeout=1.0)
        with numpy_bodies():
            slow = measure_statistics(data, nodes, flow_timeout=1.0)
        assert fast == slow
        assert set(fast.flow_lengths) == set(nodes)
        assert all(length > 1.0 for length in fast.flow_lengths.values())

    def test_empty_relation_raises_on_both_paths(self):
        """A relation of no attributes has no key to hash: the same
        ``ValueError`` from the library and the numpy body, never a read
        past the columns."""
        data = tiny_dataset([1, 2], [0.0, 1.0])
        with pytest.raises(ValueError, match="at least one column"):
            measure_statistics(data, [AttributeSet(())], flow_timeout=1.0)
        with numpy_bodies(), \
                pytest.raises(ValueError, match="at least one column"):
            measure_statistics(data, [AttributeSet(())], flow_timeout=1.0)

    def test_empty_input_raises_on_both_paths(self):
        empty = tiny_dataset([], [])
        with pytest.raises(StatisticsError):
            measure_statistics(empty, [A("A")], flow_timeout=1.0)
        with numpy_bodies(), pytest.raises(StatisticsError):
            measure_statistics(empty, [A("A")], flow_timeout=1.0)


class TestOneFlowRule:
    @pytest.mark.parametrize("timeout", [0.0, 0.5, 1.0])
    @given(data=abc_streams())
    def test_collapse_and_count_agree(self, timeout, data):
        """Collapsing every flow to its first record leaves one record
        per flow, gaps exactly at the timeout included, and the native
        library's one-pass flow count is the same number."""
        for rel in ABC_RELATIONS:
            flows = flow_count(data, rel, timeout)
            assert len(one_record_per_flow(data, rel, timeout)) == flows
            columns = [data.columns[a] for a in ABC.attribute_set(rel)]
            assert group_stats(columns, data.timestamps,
                               timeout)[1] == flows
