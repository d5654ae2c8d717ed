"""Property-based differential tests: sharded == single-core, always.

Hypothesis drives the workload shape (queries, shards, buckets,
partitioner, epoch length); the single-core ``StreamSystem`` is the
oracle. Whatever the draw, the sharded answers must be *exactly* equal,
and a failing engine call ends its run with the engine's own error.

Run with ``--hypothesis-profile=ci`` for the fixed-seed, bounded CI
configuration registered in ``tests/conftest.py``.
"""

from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from repro import (
    Configuration,
    QuerySet,
    ShardedStreamSystem,
    StreamSchema,
    StreamSystem,
    plan,
)
from repro.core.feeding_graph import FeedingGraph
from repro.gigascope.online import LiveStreamSystem
from repro.parallel import HashPartitioner
from repro.parallel import sharded as sharded_module
from repro.workloads import make_group_universe, measure_statistics, uniform_dataset

from tests.references import RoundRobin
from tests.resilience.conftest import FailingEngine

SCHEMA = StreamSchema(("A", "B", "C", "D"))
LABEL_POOL = ("AB", "BC", "CD", "AC", "BD", "ABC")


@lru_cache(maxsize=1)
def small_dataset():
    universe = make_group_universe(SCHEMA, (6, 18, 36, 60), value_pool=32,
                                   seed=21)
    return uniform_dataset(universe, 1500, duration=6.0, seed=22)


@lru_cache(maxsize=None)
def oracle_answers(labels, epoch_seconds, bucket_size):
    dataset = small_dataset()
    queries = QuerySet.counts(list(labels), epoch_seconds=epoch_seconds)
    config = Configuration.flat([q.group_by for q in queries])
    buckets = {rel: bucket_size for rel in config.relations}
    report = StreamSystem(dataset, queries, config, buckets).run()
    return {label: report.answers(query)
            for label, query in zip(labels, queries)}


#: The built-in partitioner and a user one.
partitioners = st.sampled_from((HashPartitioner(), RoundRobin()))

workloads = st.tuples(
    st.sets(st.sampled_from(LABEL_POOL), min_size=1, max_size=3)
      .map(lambda s: tuple(sorted(s))),
    st.sampled_from((2.0, 3.0)),
    st.sampled_from((8, 16, 32)),
)


@given(workload=workloads,
       shards=st.integers(min_value=2, max_value=4),
       partitioner=partitioners)
def test_sharded_matches_single_core(workload, shards, partitioner):
    labels, epoch_seconds, bucket_size = workload
    dataset = small_dataset()
    queries = QuerySet.counts(list(labels), epoch_seconds=epoch_seconds)
    config = Configuration.flat([q.group_by for q in queries])
    buckets = {rel: bucket_size for rel in config.relations}

    system = ShardedStreamSystem(
        dataset, queries, config, buckets, shards=shards,
        partitioner=partitioner)
    report = system.run()

    expected = oracle_answers(labels, epoch_seconds, bucket_size)
    assert report.result.n_records == len(dataset)
    for label, query in zip(labels, queries):
        assert report.answers(query) == expected[label]


@given(workload=workloads,
       shards=st.integers(min_value=2, max_value=4),
       partitioner=partitioners,
       data=st.data())
def test_failing_run_fails_as_one_and_rerun_is_exact(workload, shards,
                                                     partitioner, data):
    """Whichever call of the engine raises, the sharded run raises that
    error as itself after one call; the same system's next run is
    exact."""
    labels, epoch_seconds, bucket_size = workload
    dataset = small_dataset()
    queries = QuerySet.counts(list(labels), epoch_seconds=epoch_seconds)
    config = Configuration.flat([q.group_by for q in queries])
    buckets = {rel: bucket_size for rel in config.relations}
    error = data.draw(st.sampled_from([RuntimeError, ValueError, OSError]),
                      label="error")("engine failed")
    engine = FailingEngine({1}, error)
    system = ShardedStreamSystem(
        dataset, queries, config, buckets, shards=shards,
        partitioner=partitioner)
    with patch.object(sharded_module, "simulate", engine):
        with pytest.raises(type(error)) as info:
            system.run()
    assert info.value is error
    assert len(engine.calls) == 1
    assert system.last_timings is None

    report = system.run()
    expected = oracle_answers(labels, epoch_seconds, bucket_size)
    for label, query in zip(labels, queries):
        assert report.answers(query) == expected[label]


@lru_cache(maxsize=1)
def live_fixture():
    dataset = small_dataset()
    queries = QuerySet.counts(["AB", "BC"], epoch_seconds=2.0)
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    the_plan = plan(queries, stats, memory=600)
    oracle = LiveStreamSystem(SCHEMA, queries, the_plan)
    oracle.push_dataset(dataset)
    oracle.finish()
    return dataset, queries, the_plan, oracle


@given(cuts=st.lists(st.integers(min_value=1, max_value=1499),
                     min_size=1, max_size=3, unique=True)
       .map(sorted))
def test_checkpoint_restore_at_random_cuts(tmp_path_factory, cuts):
    """checkpoint → kill → restore at arbitrary stream offsets, possibly
    repeatedly, reproduces the uninterrupted run byte for byte."""
    dataset, queries, the_plan, oracle = live_fixture()
    tmp_path = tmp_path_factory.mktemp("ckpt")
    live = LiveStreamSystem(SCHEMA, queries, the_plan)
    previous = 0
    for i, cut in enumerate(cuts):
        cols = {a: dataset.columns[a][previous:cut]
                for a in SCHEMA.attributes}
        live.push(cols, dataset.timestamps[previous:cut])
        path = tmp_path / f"cut{i}.ckpt"
        live.checkpoint(path)
        live = LiveStreamSystem.restore(path)
        assert live.records_seen == cut
        previous = cut
    cols = {a: dataset.columns[a][previous:] for a in SCHEMA.attributes}
    live.push(cols, dataset.timestamps[previous:])
    live.finish()
    assert live.epoch_reports == oracle.epoch_reports
    for query in queries:
        assert live.answers(query) == oracle.answers(query)
