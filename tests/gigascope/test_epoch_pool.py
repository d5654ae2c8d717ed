"""Epochs in parallel: the caller and the library's pool against one
thread.

Every LFTA table is flushed at each epoch boundary, so a kernel call
over several epochs is one descriptor that the native library's helper
threads pull epochs from, each epoch on a kept walk with its own
scratch; the calling thread walks epochs too, between its takes of
every fold as its epoch is walked, and no helper waits for it to hand
out an epoch. Over random forests and
streams (NaN and +-inf values included, with and without shard ids),
more cores than epochs, one epoch, no records, epochs of very different
sizes and a kept ``Tables``, ``on_cores(n)`` must give the counters and
HFTA states of one core, and one core those of the reference numpy walk
(``tests/references.py``): the same states, bit for bit, and the same
fold counts. A failing walk, on a helper or on the caller, and an
exception on the caller must reach the caller once every job has run,
and leave the passed counters and HFTA as they were.
"""

import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.native
from repro import QuerySet, StreamSystem
from repro.core.configuration import Configuration
from repro.gigascope import engine, simulate
from repro.native import build as native_build
from repro.native import ingest
from repro.native import library as native_library
from repro.observability import MetricsRegistry
from tests.conftest import on_cores, split_ran, walk_lanes_of
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


def walk(n_cores, dataset, config, buckets, value_column="v", **kwargs):
    with on_cores(n_cores):
        return simulate(dataset, config, buckets, 1.0, value_column,
                        **kwargs)


@given(config=forests, stream=streams, sharded=st.booleans(),
       data=st.data())
def test_pool_equals_one_thread(config, stream, sharded, data):
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    shards = None
    if sharded:
        shards = np.random.default_rng(stream["seed"]).integers(
            0, 3, len(dataset))
    want = walk(1, dataset, config, buckets, value_column, shards=shards)
    for n_cores in (2, 3, 4, 8):  # 8 > the at most 5 epochs drawn
        assert_same_walk(walk(n_cores, dataset, config, buckets,
                              value_column, shards=shards), want)


#: Records per 1 s epoch: uneven epochs with empty ones between, one
#: epoch, no records at all.
SHAPES = {"uneven": [1, 3000, 0, 2, 700, 0, 0, 1, 40],
          "one-epoch": [500], "empty": []}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n_cores", [2, 3, 4, 16])
def test_pool_shapes(shape, n_cores):
    config = Configuration.from_notation(NOTATION)
    dataset = make_stream(4, SHAPES[shape], 5, "nonfinite", True)
    buckets = {rel: 7 + 4 * i for i, rel in enumerate(config.relations)}
    got = walk(n_cores, dataset, config, buckets)
    one = walk(1, dataset, config, buckets)
    assert_same_walk(got, one)
    with numpy_bodies():  # the numpy walk, folded by numpy
        assert_same_walk(one, walk(1, dataset, config, buckets))
    assert got.n_epochs == sum(1 for size in SHAPES[shape] if size)
    if shape == "uneven":
        assert any(np.isnan(state.value_mins).any()
                   for state in columnar(got.hfta).values())


def test_kept_tables_through_the_pool():
    """One ``Tables`` through multi- and one-epoch calls on 3 cores,
    growing epochs included: every call equals a one-core call without
    it, and walks on the kept walks: one more than its threads, at most
    one per epoch (3 for three epochs, 4 for four), the list only ever
    extended."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 5 + i for i, rel in enumerate(config.relations)}
    tables = engine.Tables()
    kept = []
    for seed, (epochs, walks) in enumerate([
            ([40, 3, 250], 3), ([600], 3), ([1, 900, 2, 5], 4), ([30], 4),
            ([20], 4)]):
        dataset = make_stream(seed, epochs, 4, "finite", seed % 2 == 1)
        got = walk(3, dataset, config, buckets, tables=tables)
        assert_same_walk(got, walk(1, dataset, config, buckets))
        assert len(tables._walks) == walks
        assert all(a is b for a, b in zip(tables._walks, kept))
        kept = list(tables._walks)


def _recorded(monkeypatch) -> list:
    """The list every call descriptor ``ingest_epochs`` makes goes
    into, from here on."""
    calls = []

    class Recorded(ingest._Epochs):
        def __init__(self, *args):
            super().__init__(*args)
            calls.append(self)

    monkeypatch.setattr(ingest, "_Epochs", Recorded)
    return calls


def test_helpers_walk_while_the_caller_takes(monkeypatch):
    """Helpers pull epochs without the caller: while the calling thread
    is held in its first take, the helpers walk every epoch the free
    walks allow, one per kept walk (3 threads, 4 walks), read from the
    call's per-epoch state words, and no more; the result is one
    core's, bit for bit."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 6 for rel in config.relations}
    dataset = make_stream(4, [20_000] * 8, 4, "finite", False)
    want = walk(1, dataset, config, buckets)
    calls, walked = _recorded(monkeypatch), []
    take = ingest._take

    def held(lib, own, relation=None):
        if not walked:
            state, deadline = calls[-1].state, time.monotonic() + 10.0
            while np.count_nonzero(state) < 4 and \
                    time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)  # and nothing further starts
            walked.append(np.count_nonzero(state))
        return take(lib, own, relation)

    monkeypatch.setattr(ingest, "_take", held)
    got = walk(3, dataset, config, buckets)
    assert_same_walk(got, want)
    assert walked == [4]
    assert (calls[-1].state == -1).all()  # every epoch taken


def test_many_helpers_lose_no_epoch():
    """Sixteen cores' walks over 60 short epochs: every epoch's states
    arrive exactly once, in epoch order, as one core's."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 3 for rel in config.relations}
    dataset = make_stream(8, [7, 1, 30] * 20, 4, "finite", False)
    want = walk(1, dataset, config, buckets)
    got = walk(16, dataset, config, buckets)
    assert_same_walk(got, want)
    epochs = [epoch for _, epoch in got.hfta._columnar]
    assert epochs == sorted(epochs) and set(epochs) == set(range(60))
    assert got.hfta.folds == len(got.hfta._columnar)


class KernelFault(RuntimeError):
    pass


def _broken_library(monkeypatch, name: str, fault: str) -> None:
    """Run a test build of the library, ``name``, whose ``repro_walk``
    runs the C statements ``fault`` once its locals are set."""
    line = "    const int64_t stride = n + T->max_buckets + 2;\n"
    assert line in native_library.SOURCE
    broken = native_build.load_kernel(
        f"{native_library.NAME}_{name}",
        native_library.SOURCE.replace(line, line + fault, 1),
        native_library._SIGNATURES)
    assert broken is not None
    monkeypatch.setattr(native_library, "library", lambda: broken)


def _failing_call(n_cores, monkeypatch, fault, tables=None):
    """A five-epoch call on ``n_cores`` into a run's counters and HFTA
    (which seed its first two epochs), through ``tables`` when given,
    with ``fault(fail_at)`` installed first (``fail_at`` the row the
    fourth epoch starts at): the counters and states before the call,
    and the call."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 6 for rel in config.relations}
    first = walk(1, make_stream(1, [50, 60], 4, "finite", False), config,
                 buckets)
    counters, hfta = first.counters, first.hfta
    before = (repr(counters.relations), states(hfta))
    dataset = make_stream(2, [30, 40, 50, 60, 70], 4, "finite", False)
    fault(int(np.searchsorted(dataset.timestamps, 3.0)))

    def call():
        return walk(n_cores, dataset, config, buckets, counters=counters,
                    hfta=hfta, tables=tables)

    return before, lambda: (repr(counters.relations), states(hfta)), call


@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_a_failing_walk_leaves_accumulators_untouched(n_cores, monkeypatch):
    """A test build whose walk of the fourth epoch fails, on a helper or
    on the caller: the call stops handing out epochs, raises
    ``MemoryError`` once every job has run, and leaves the counters and
    the HFTA as they were; the next call, on the real library, walks."""

    def fault(fail_at):
        _broken_library(monkeypatch, f"epoch_{fail_at}_fails",
                        f"    if (start == {fail_at})\n"
                        "        return -1;\n")

    before, now, call = _failing_call(n_cores, monkeypatch, fault)
    with pytest.raises(MemoryError):
        call()
    assert now() == before
    monkeypatch.undo()
    call()




@pytest.mark.parametrize("n_cores", [2, 3])
def test_a_helper_failing_beside_parked_epochs(n_cores, monkeypatch):
    """A test build in which the caller's walks are slow (20 ms each)
    and every helper walk from the fourth epoch on fails: while the
    caller walks, the helpers park epochs and fail on a later one. The
    call raises ``MemoryError`` once every job has run, a parked epoch's
    folds are never taken, no walk keeps a seed, and the counters and
    the HFTA are as they were. The next call, on the real library and
    the same walks, is a one-core call's."""
    want = _failing_call(1, monkeypatch, lambda fail_at: None)[2]()
    tables, calls = engine.Tables(), _recorded(monkeypatch)

    def fault(fail_at):
        _broken_library(
            monkeypatch, f"helpers_fail_from_{fail_at}",
            "    if (syscall(SYS_gettid) == getpid()) {\n"
            "        const struct timespec nap = {0, 20000000};\n"
            "        nanosleep(&nap, NULL);\n"
            f"    }} else if (start >= {fail_at}) {{\n"
            "        return -1;\n"
            "    }\n")

    before, now, call = _failing_call(n_cores, monkeypatch, fault, tables)
    with pytest.raises(MemoryError):
        call()
    assert now() == before
    assert (calls[-1].state > 0).any()  # walked, never taken
    assert all(fold.n_seed == 0 and not fold.seed
               for own in tables._walks for fold in own._folds)
    monkeypatch.undo()
    assert_same_walk(call(), want)


@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_a_caller_exception_leaves_accumulators_untouched(n_cores,
                                                          monkeypatch):
    """An exception while the caller takes the fourth epoch's folds
    stops the call as a failed walk does and is raised as itself."""
    ingest = engine._native
    take, taken = ingest._take, []

    def fault(fail_at):
        def faulty(lib, own, relation=None):
            taken.append(own)
            if len(taken) == 4:
                raise KernelFault(f"epoch at row {fail_at}")
            return take(lib, own, relation)

        monkeypatch.setattr(ingest, "_take", faulty)

    before, now, call = _failing_call(n_cores, monkeypatch, fault)
    with pytest.raises(KernelFault, match="epoch at row"):
        call()
    assert now() == before


def test_workers_follow_the_usable_cores():
    """``engine.workers`` is the call's threads: one per usable core, at
    most one per non-empty epoch, one for a call of one epoch.
    ``engine.caller_epochs`` is the epochs the calling thread walked:
    all of them on one core, one of a one-epoch call, none of an empty
    one."""
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 6 for rel in config.relations}
    dataset = make_stream(3, [20, 20, 20], 4, "none", False)
    registry = MetricsRegistry()
    gauges = registry.gauges
    for n_cores in (1, 2, 3, 4):
        walk(n_cores, dataset, config, buckets, None, registry=registry)
        assert gauges["engine.workers"].value == min(n_cores, 3)
        caller = gauges["engine.caller_epochs"].value
        assert caller == 3 if n_cores == 1 else 0 <= caller <= 3
        walk(n_cores, dataset.head(20), config, buckets, None,
             registry=registry)
        assert gauges["engine.workers"].value == 1
        assert gauges["engine.caller_epochs"].value == 1
    walk(2, dataset.head(0), config, buckets, None, registry=registry)
    assert gauges["engine.caller_epochs"].value == 0
    simulate(dataset, config, buckets, 1.0, registry=registry)
    assert registry.gauges["engine.workers"].value == \
        min(repro.native.cores(), 3)


def test_run_reports_the_walk_it_took():
    """``engine.workers`` and the summary's ``LFTA walk`` line name the
    path taken; the pool runs threads, never processes."""
    dataset = make_stream(5, [100, 100, 100], 4, "none", False)
    queries = QuerySet.counts(["AB", "CD"], epoch_seconds=1.0)
    config = Configuration.flat(queries.group_bys)
    system = StreamSystem(dataset, queries, config,
                          buckets={rel: 16 for rel in config.relations})
    registry = MetricsRegistry()
    with on_cores(2):
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
