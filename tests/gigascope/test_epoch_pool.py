"""Epochs in parallel: a pool of walk threads against one.

Every LFTA table is flushed at each epoch boundary, so the kernel walk
hands a call's epochs to a pool of threads, each with its own scratch,
and the caller hands the HFTA the folded states in epoch order after the
join. Over random forests and streams (NaN and +-inf values included),
more threads than epochs, one epoch, no records, epochs of very different
sizes and a kept ``Tables``, N threads must give the counters and HFTA
states of one, and one thread those of the reference numpy walk
(``tests/references.py``): the same states,
bit for bit, and the same fold counts. A failing epoch
must reach the caller with its own exception and leave the passed
counters and HFTA as they were.
"""

import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import QuerySet, StreamSystem
from repro.core.configuration import Configuration
from repro.gigascope import engine, simulate
from repro.observability import MetricsRegistry
from tests.conftest import split_ran, walk_lanes_of, walk_workers_of
from tests.gigascope.test_forest_walk import (
    BUCKETS,
    assert_same_walk,
    columnar,
    forests,
    make_stream,
    states,
    streams,
)
from tests.references import numpy_bodies

NOTATION = "ABCD(ABC(AB A) CD)"


def walk(n_workers, dataset, config, buckets, value_column="v", **kwargs):
    with walk_workers_of(n_workers):
        return simulate(dataset, config, buckets, 1.0, value_column,
                        **kwargs)


@given(config=forests, stream=streams, data=st.data())
def test_pool_equals_one_thread(config, stream, data):
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    want = walk(1, dataset, config, buckets, value_column)
    for n_workers in (2, 3, 8):  # 8 > the at most 5 epochs drawn
        assert_same_walk(walk(n_workers, dataset, config, buckets,
                              value_column), want)


#: Records per 1 s epoch: uneven epochs with empty ones between, one
#: epoch, no records at all.
SHAPES = {"uneven": [1, 3000, 0, 2, 700, 0, 0, 1, 40],
          "one-epoch": [500], "empty": []}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n_workers", [2, 3, 16])
def test_pool_shapes(shape, n_workers):
    config = Configuration.from_notation(NOTATION)
    dataset = make_stream(4, SHAPES[shape], 5, "nonfinite", True)
    buckets = {rel: 7 + 4 * i for i, rel in enumerate(config.relations)}
    got = walk(n_workers, dataset, config, buckets)
    one = walk(1, dataset, config, buckets)
    assert_same_walk(got, one)
    with numpy_bodies():  # the numpy walk, folded by numpy
        assert_same_walk(one, walk(1, dataset, config, buckets))
    assert got.n_epochs == sum(1 for size in SHAPES[shape] if size)
    if shape == "uneven":
        assert any(np.isnan(state.value_mins).any()
                   for state in columnar(got.hfta).values())


def test_kept_tables_through_the_pool():
    """One ``Tables`` through multi- and one-epoch calls on 3 threads,
    growing epochs included: every call equals a one-thread call
    without it, and a one-epoch call walks on the kept buffers."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 5 + i for i, rel in enumerate(config.relations)}
    tables = engine.Tables()
    for seed, epochs in enumerate([[40, 3, 250], [600], [1, 900, 2, 5],
                                   [30]]):
        dataset = make_stream(seed, epochs, 4, "finite", seed % 2 == 1)
        got = walk(3, dataset, config, buckets, tables=tables)
        assert_same_walk(got, walk(1, dataset, config, buckets))
    kept = tables.walk
    walk(3, make_stream(9, [20], 4, "finite", False), config, buckets,
         tables=tables)
    assert tables.walk is kept


def test_many_threads_lose_no_epoch():
    """Sixteen threads over 60 short epochs, switching as often as the
    interpreter allows: every epoch's states arrive exactly once, in
    epoch order, as one thread's."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 3 for rel in config.relations}
    dataset = make_stream(8, [7, 1, 30] * 20, 4, "finite", False)
    want = walk(1, dataset, config, buckets)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = walk(16, dataset, config, buckets)
    finally:
        sys.setswitchinterval(interval)
    assert_same_walk(got, want)
    epochs = [epoch for _, epoch in got.hfta._columnar]
    assert epochs == sorted(epochs) and set(epochs) == set(range(60))
    assert got.hfta.folds == len(got.hfta._columnar)


class KernelFault(RuntimeError):
    pass


@pytest.mark.parametrize("n_workers", [1, 3])
def test_failing_epoch_leaves_accumulators_untouched(n_workers,
                                                     monkeypatch):
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 6 for rel in config.relations}
    first = walk(1, make_stream(1, [50, 60], 4, "finite", False), config,
                 buckets)
    counters, hfta = first.counters, first.hfta
    before = (repr(counters.relations), states(hfta))
    dataset = make_stream(2, [30, 40, 50, 60, 70], 4, "finite", False)
    fail_at = int(np.searchsorted(dataset.timestamps, 3.0))
    ingest_runs = engine._native.ingest_runs

    def faulty(walk_, start, t, w, *args, **kwargs):
        if start == fail_at:
            raise KernelFault(f"epoch at row {start}")
        return ingest_runs(walk_, start, t, w, *args, **kwargs)

    monkeypatch.setattr(engine._native, "ingest_runs", faulty)
    with pytest.raises(KernelFault, match=f"row {fail_at}"):
        walk(n_workers, dataset, config, buckets, counters=counters,
             hfta=hfta)
    assert (repr(counters.relations), states(hfta)) == before


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity call on this platform")
def test_workers_follow_the_usable_cores():
    cores = engine._workers(10**6)
    assert cores == len(os.sched_getaffinity(0))
    assert engine._workers(1) == 1
    assert engine._workers(2) == min(2, cores)


def test_run_reports_the_walk_it_took(walk_workers):
    """``engine.workers`` and the summary's ``LFTA walk`` line name the
    path taken; the pool runs threads, never processes."""
    walk_workers(2)
    dataset = make_stream(5, [100, 100, 100], 4, "none", False)
    queries = QuerySet.counts(["AB", "CD"], epoch_seconds=1.0)
    config = Configuration.flat(queries.group_bys)
    system = StreamSystem(dataset, queries, config,
                          buckets={rel: 16 for rel in config.relations})
    registry = MetricsRegistry()
    report = system.run(registry=registry)
    assert registry.gauges["engine.workers"].value == 2
    assert "LFTA walk         : native kernel, 2 workers" in \
        report.summary().splitlines()
    assert multiprocessing.active_children() == []
    one = StreamSystem(dataset.head(100), queries, config,
                       buckets={rel: 16 for rel in config.relations})
    assert one.run(registry=registry).result.walk == \
        "native kernel, 1 worker"
    assert registry.gauges["engine.workers"].value == 1


def test_one_epoch_calls_report_their_lanes():
    """``engine.lanes`` and the walk string name the lanes of a
    one-epoch call: one for a ``Tables``' first call, two for the next
    where two cores are usable."""
    config = Configuration.from_notation("ABCD(AB BCD(BC BD CD))")
    dataset = make_stream(9, [400], 4, "finite", False)
    buckets = {rel: 13 for rel in config.relations}
    registry, tables = MetricsRegistry(), engine.Tables()
    with walk_lanes_of(True):
        first = simulate(dataset, config, buckets, 1.0, "v",
                         registry=registry, tables=tables)
        assert first.walk == "native kernel, 1 worker"
        assert registry.gauges["engine.lanes"].value == 1
        second = simulate(dataset, config, buckets, 1.0, "v",
                          registry=registry, tables=tables)
    lanes = 2 if split_ran() else 1
    assert registry.gauges["engine.lanes"].value == lanes
    assert second.walk == "native kernel, 1 worker" + ", 2 lanes" * (
        lanes == 2)
    assert registry.gauges["engine.workers"].value == 1

