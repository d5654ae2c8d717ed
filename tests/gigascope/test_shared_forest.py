"""One forest per binding: every walk of a call reads one configuration,
one stream and one lane map.

A ``Tables`` binding builds one ``repro.native.ingest.Forest``, and each
of its kept walks is one thread's scratch that points at it. A call binds
its stream once, on the forest, so a walk the pool walked epochs on
reads the next call's stream with no bind of its own, on one lane or
two. A lane waits only for relations another walk holds, and the
caller's walk returns once each of its relations is marked, so an
exception the caller raises while it takes the second lane's folds
cannot strand the helper: the call waits for the helper's job, then
raises, with the counters and the HFTA untouched.
"""

import ctypes

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.gigascope import engine, simulate
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import CostCounters
from repro.native import ingest as native_ingest
from repro.native import library as native_library
from tests.conftest import on_cores, walk_lanes_of
from tests.gigascope.test_forest_walk import make_stream, states
from tests.references import split_dataset

_FOREST = "ABCD(AB BCD(BC BD CD))"


def test_a_lane_call_reads_the_new_stream_in_every_walk():
    """A multi-epoch call on one stream, then a two-lane one-epoch call
    on another through the same ``Tables``: both lanes walk the new
    stream (the lanes are walks the pool walked epochs on), and
    the close equals a fresh one-lane run of the new stream. Every kept
    walk points at the binding's one forest."""
    config = Configuration.from_notation(_FOREST)
    buckets = {rel: 11 for rel in config.relations}
    old = make_stream(6, [300] * 4, 5, "finite", False)
    new = make_stream(7, [500], 5, "finite", False)
    tables = engine.Tables()
    with on_cores(2), walk_lanes_of(True):
        many = simulate(old, config, buckets, 1.0, "v", tables=tables)
        close = simulate(new, config, buckets, 1.0, "v", tables=tables)
    assert many.walk == "native kernel, 2 workers"
    assert close.walk == "native kernel, 1 worker, 2 lanes"
    assert 1 in tables._lanes.lane
    forest = tables.forest
    assert len(tables._walks) == 3  # two threads and one more walk
    for walk in tables._walks:
        assert walk.forest is forest
        assert walk._struct.forest == ctypes.addressof(forest._struct)
    with walk_lanes_of(False):
        want = simulate(new, config, buckets, 1.0, "v")
    assert close.counters.relations == want.counters.relations
    assert states(close.hfta) == states(want.hfta)


def test_a_raise_in_the_take_waits_for_the_helper(monkeypatch):
    """The caller's take of the second lane's first fold raises
    ``MemoryError``: the call raises it only once the helper's job has
    been waited for, leaves the counters and the HFTA as they were, and
    the next close through the same ``Tables`` walks on two lanes to a
    fresh run's results, bit for bit."""
    config = Configuration.from_notation(_FOREST)
    # the leaves AB, BC and CD on the second lane, BD on the first
    lane = (0, 1, 0, 1, 0, 1)
    monkeypatch.setattr(engine, "_schedule",
                        lambda *args: (list(lane), float("inf")))
    buckets = {rel: 9 for rel in config.relations}
    dataset = make_stream(3, [400, 400, 400], 4, "finite", False)
    parts = split_dataset(dataset, np.floor(dataset.timestamps).astype(
        np.int64), 3)
    counters, hfta, tables = CostCounters(config), HFTA(), engine.Tables()

    def close(part):
        return simulate(part, config, buckets, 1.0, "v", counters=counters,
                        hfta=hfta, tables=tables)

    events = []
    lib, take = native_library.library(), native_ingest._take

    class Spy:
        """The library, with each wait for a pool job recorded."""

        def __getattr__(self, name):
            return getattr(lib, name)

        def repro_pool_wait(self, job):
            status = lib.repro_pool_wait(job)
            events.append(("waited", status))
            return status

    def faulty(lib, own, relation=None):
        if relation is not None:  # a fold of the second lane
            events.append("raised")
            raise MemoryError("a take out of memory")
        return take(lib, own, relation)

    with on_cores(2):
        close(parts[0])  # one lane: no counters to schedule by yet
        before = (repr(counters.relations), states(hfta))
        with monkeypatch.context() as patch:
            patch.setattr(native_library, "library", lambda: Spy())
            patch.setattr(native_ingest, "_take", faulty)
            with pytest.raises(MemoryError, match="a take out of memory"):
                close(parts[1])
        assert events == ["raised", ("waited", 0)]
        assert tables._lanes._job[2] == 1  # the job's done word
        assert (repr(counters.relations), states(hfta)) == before
        assert close(parts[1]).walk.endswith("2 lanes")
    with walk_lanes_of(False):
        want = simulate(dataset.head(800), config, buckets, 1.0, "v")
    assert counters.relations == want.counters.relations
    assert states(hfta) == states(want.hfta)
