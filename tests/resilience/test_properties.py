"""Property-based differential tests: sharded == single-core, always.

Hypothesis drives the workload shape (queries, shards, buckets,
partitioner, epoch length) and a seeded random fault plan; the
single-core ``StreamSystem`` is the oracle. Whatever the draw, the
sharded answers must be *exactly* equal — faults and retries included.

Run with ``--hypothesis-profile=ci`` for the fixed-seed, bounded CI
configuration registered in ``tests/conftest.py``.
"""

from functools import lru_cache

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
from repro.parallel import make_partitioner
from repro.resilience import FaultPlan, RetryPolicy
from repro.workloads import make_group_universe, measure_statistics, uniform_dataset

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


workloads = st.tuples(
    st.sets(st.sampled_from(LABEL_POOL), min_size=1, max_size=3)
      .map(lambda s: tuple(sorted(s))),
    st.sampled_from((2.0, 3.0)),
    st.sampled_from((8, 16, 32)),
)


@given(workload=workloads,
       shards=st.integers(min_value=2, max_value=4),
       partitioner_name=st.sampled_from(("hash", "round-robin")),
       fault_seed=st.one_of(st.none(), st.integers(0, 2**16)))
def test_sharded_matches_single_core(workload, shards, partitioner_name,
                                     fault_seed):
    labels, epoch_seconds, bucket_size = workload
    dataset = small_dataset()
    queries = QuerySet.counts(list(labels), epoch_seconds=epoch_seconds)
    config = Configuration.flat([q.group_by for q in queries])
    buckets = {rel: bucket_size for rel in config.relations}
    fault_plan = (FaultPlan.random(shards, seed=fault_seed)
                  if fault_seed is not None else None)

    system = ShardedStreamSystem(
        dataset, queries, config, buckets, shards=shards,
        partitioner=make_partitioner(partitioner_name),
        retry=RetryPolicy(backoff_base=0.0),
        fault_plan=fault_plan)
    report = system.run()

    expected = oracle_answers(labels, epoch_seconds, bucket_size)
    assert report.result.n_records == len(dataset)
    for label, query in zip(labels, queries):
        assert report.answers(query) == expected[label]
    if fault_plan is not None and len(fault_plan):
        injected = sum(1 for spec in fault_plan.faults
                       if spec.shard is not None and spec.shard < shards)
        assert system.resilience_report.total_retries == injected


@given(shards=st.integers(min_value=2, max_value=4),
       seed=st.integers(0, 2**16))
def test_every_random_fault_is_survivable(shards, seed):
    """FaultPlan.random only faults first attempts, so one retry per
    shard must always suffice — no plan may exhaust the policy."""
    plan_ = FaultPlan.random(shards, seed=seed, fault_probability=1.0)
    for spec in plan_.faults:
        assert spec.attempt == 1
    labels = ("AB",)
    dataset = small_dataset()
    queries = QuerySet.counts(list(labels), epoch_seconds=3.0)
    config = Configuration.flat([q.group_by for q in queries])
    buckets = {rel: 16 for rel in config.relations}
    system = ShardedStreamSystem(
        dataset, queries, config, buckets, shards=shards,
        retry=RetryPolicy(backoff_base=0.0), fault_plan=plan_)
    report = system.run()
    expected = oracle_answers(labels, 3.0, 16)
    assert report.answers(next(iter(queries))) == expected["AB"]
    assert all(o.succeeded for o in system.resilience_report.shards)


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
