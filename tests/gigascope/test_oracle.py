"""Every runtime against a group-by that shares no code with the system.

The differential suite compares the engine with ``SequentialLFTA``, and
both read the same ``Configuration``; a wrong accessor would fool both
sides. Here the expected answer of each query and epoch is an
``np.unique`` group-by over the epoch's raw rows (:func:`oracle`, which
uses numpy alone), and its counts must sum to the records of the epoch.
``StreamSystem``, ``LiveStreamSystem`` (fed in random batches) and
``ShardedStreamSystem`` must each give exactly those answers, over
random antichain query sets, with and without phantoms in the plan.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import QuerySet, StreamSchema, StreamSystem, plan
from repro.core.allocation.base import Allocation
from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.feeding_graph import FeedingGraph
from repro.core.optimizer import Plan
from repro.gigascope.online import LiveStreamSystem
from repro.gigascope.records import Dataset
from repro.parallel import ShardedStreamSystem
from repro.workloads import paper_like_trace
from repro.workloads.datasets import measure_statistics

NAMES = ("A", "B", "C", "D")
SCHEMA = StreamSchema(NAMES)
EPOCH_SECONDS = 1.0


def oracle(columns, timestamps, names, epoch_seconds):
    """``{epoch: {group tuple: count}}`` for a group-by on ``names``.

    numpy only: the epoch of a row is ``floor(t / epoch_seconds)``, and
    each epoch's groups are the unique rows of its ``names`` columns.
    """
    epochs = np.floor(np.asarray(timestamps) / epoch_seconds).astype(np.int64)
    out = {}
    for epoch in np.unique(epochs).tolist():
        rows = epochs == epoch
        keys = np.stack([np.asarray(columns[n])[rows] for n in names], axis=1)
        groups, counts = np.unique(keys, axis=0, return_counts=True)
        assert counts.sum() == rows.sum()
        out[epoch] = {tuple(g): float(c)
                      for g, c in zip(groups.tolist(), counts.tolist())}
    return out


def stream(seed, n, domain):
    rng = np.random.default_rng(seed)
    columns = {name: rng.integers(0, domain, size=n) for name in NAMES}
    timestamps = np.sort(rng.uniform(0.0, 4.0 * EPOCH_SECONDS, size=n))
    return Dataset(SCHEMA, columns, timestamps)


@st.composite
def antichains(draw):
    group_bys = draw(st.lists(
        st.frozensets(st.sampled_from(NAMES), min_size=1, max_size=3),
        min_size=1, max_size=5, unique=True))
    group_bys = [q for q in group_bys
                 if not any(q < other for other in group_bys)]
    return QuerySet.counts(["".join(sorted(q)) for q in group_bys],
                           epoch_seconds=EPOCH_SECONDS)


def answers_of(dataset, queries, the_plan, shards, batch_sizes):
    """Per system, ``{query label: {epoch: answer}}``. The sharded run
    is left out when some table has fewer buckets than ``shards``."""
    systems = [("stream", StreamSystem.from_plan(dataset, queries,
                                                 the_plan).run())]
    if min(the_plan.allocation.buckets.values()) >= shards:
        systems.append(("sharded", ShardedStreamSystem.from_plan(
            dataset, queries, the_plan, shards=shards).run()))
    live = LiveStreamSystem(SCHEMA, queries, the_plan)
    start = 0
    for size in batch_sizes:
        live.push({n: dataset.columns[n][start:start + size] for n in NAMES},
                  dataset.timestamps[start:start + size])
        start += size
    live.push({n: dataset.columns[n][start:] for n in NAMES},
              dataset.timestamps[start:])
    live.finish()
    systems.append(("live", live))
    return {name: {q.group_by.label(): system.answers(q) for q in queries}
            for name, system in systems}


@given(queries=antichains(), data=st.data())
def test_runtimes_match_oracle(queries, data):
    dataset = stream(data.draw(st.integers(0, 2**16)),
                     data.draw(st.sampled_from([200, 1500])),
                     data.draw(st.sampled_from([3, 12])))
    group_bys = list(queries.group_bys)
    shape = data.draw(st.sampled_from(["flat", "root", "planned"]))
    if shape == "planned":
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        the_plan = plan(queries, stats, data.draw(
            st.sampled_from([400.0, 4000.0])))
    else:
        config = Configuration.flat(group_bys)
        if shape == "root" and len(group_bys) > 1:
            config = config.with_phantom(AttributeSet(
                frozenset().union(*group_bys)))
        buckets = {rel: data.draw(st.sampled_from([3, 17, 200]))
                   for rel in config.relations}
        the_plan = Plan(config, Allocation(buckets), 0.0, 0.0, 0.0,
                        "hand")
    shards = data.draw(st.sampled_from([2, 3]))
    sizes = data.draw(st.lists(st.integers(1, 400), max_size=6))
    got = answers_of(dataset, queries, the_plan, shards, sizes)
    for q in queries:
        want = oracle(dataset.columns, dataset.timestamps, tuple(q.group_by),
                      EPOCH_SECONDS)
        for system in got.values():
            assert system[q.group_by.label()] == want, q.group_by.label()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 'Fix first: a query that feeds another query gets no "
    "answers': ABC feeds AB in ABCD(CD ABC(AB)) and answers nothing"))
def test_nested_queries_match_oracle():
    """The ROADMAP's repro: the plan nests AB under the query ABC."""
    dataset = paper_like_trace(100_000)
    queries = QuerySet.counts(["ABC", "AB", "CD"])
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    the_plan = plan(queries, stats, 40_000)
    assert the_plan.configuration.to_notation() == "ABCD(CD ABC(AB))"
    report = StreamSystem.from_plan(dataset, queries, the_plan).run()
    for q in queries:
        want = oracle(dataset.columns, dataset.timestamps, tuple(q.group_by),
                      queries.epoch_seconds)
        assert report.answers(q) == want, q.group_by.label()
