"""The ingest walk folds what it emits.

With the kernel, each emitting relation's runs go straight into the
walk's group table, extending whatever state the HFTA holds for that
relation and epoch; the numpy walk hands the same runs to the HFTA as a
batch and the HFTA folds it lazily. For every (relation, epoch) key the
two must hold the same state: group order, dtypes, counts, sums and
NaN/+-inf minima and maxima, byte for byte, and the same
``evictions_received``/``folds``/``rows_folded``. The numpy walk's
batches folded by the HFTA merge kernel are the kernel path as it was
before the walk folded (its runs are the kernel's, bit for bit), so that
comparison is exact to the NaN; against the numpy fold a NaN sum only
compares as NaN (``test_forest_walk.states(..., any_nan=True)``).

Covered: random forests and streams on 1 and 3 walk threads, with and
without a row index and a value column, and the seeded folds — an epoch
walked in two calls, a shard after another, a live epoch reopened after
``finish()``.
"""

import copy
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import QuerySet, ShardedStreamSystem, StreamSystem, plan
from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import Aggregate, AggregationQuery
from repro.gigascope import Dataset, simulate
from repro.gigascope.online import LiveStreamSystem
from repro.native import ingest as native_ingest
from repro.workloads import measure_statistics
from tests.conftest import needs_kernel, numpy_kernels_off, walk_workers_of
from tests.gigascope.test_forest_walk import (
    BUCKETS,
    SCHEMA,
    columnar,
    forests,
    make_stream,
    states,
    streams,
)

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")


def assert_folds_match(got, numpy_walked):
    """``got`` (a kernel walk's HFTA) against a numpy walk's: exactly
    against its batches folded by the merge kernel, and NaN sums aside
    against them folded by numpy."""
    lazy = copy.deepcopy(numpy_walked)
    with numpy_kernels_off():
        assert states(got, any_nan=True) == states(lazy, any_nan=True)
    assert states(got) == states(numpy_walked)
    assert got.folds == len(columnar(got))  # one fold per key, no more


def draw_rows(data, n: int):
    """No index, or a random ascending subset of ``[0, n)``."""
    if not data.draw(st.booleans(), label="rows"):
        return None
    mask = np.random.default_rng(data.draw(st.integers(0, 99))).random(n)
    return np.flatnonzero(mask < 0.6)


@needs_kernel
@pytest.mark.parametrize("n_workers", [1, 3])
@given(config=forests, stream=streams, data=st.data())
def test_walk_fold_equals_numpy_fold(n_workers, config, stream, data):
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    rows = draw_rows(data, len(dataset))
    with walk_workers_of(n_workers):
        got = simulate(dataset, config, buckets, 1.0, value_column,
                       rows=rows)
    with numpy_kernels_off():
        want = simulate(dataset, config, buckets, 1.0, value_column,
                        rows=rows)
    assert_folds_match(got.hfta, want.hfta)


#: Fixed forests and epochs: a deep chain, an inner relation that is a
#: leaf of nothing, one relation; uneven epochs with empty ones between.
FIXED = ["ABCD(ABC(AB A) CD)", "ABCDE(ABCD(ABC(AB(A) C) BCD) CDE(CD DE E))",
         "AB"]
EPOCHS = [1, 400, 0, 3, 250, 0, 60]


@needs_kernel
@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("rows", [False, True], ids=["all-rows", "index"])
@pytest.mark.parametrize("values", ["none", "finite", "nonfinite"])
@pytest.mark.parametrize("notation", FIXED)
def test_fixed_shapes(notation, values, rows, n_workers):
    config = Configuration.from_notation(notation)
    dataset = make_stream(11, EPOCHS, 4, "finite" if values == "none"
                          else values, False)
    buckets = {rel: 3 + 5 * i for i, rel in enumerate(config.relations)}
    value_column = None if values == "none" else "v"
    index = np.arange(0, len(dataset), 3) if rows else None
    with walk_workers_of(n_workers):
        got = simulate(dataset, config, buckets, 1.0, value_column,
                       rows=index)
    with numpy_kernels_off():
        want = simulate(dataset, config, buckets, 1.0, value_column,
                        rows=index)
    assert_folds_match(got.hfta, want.hfta)
    if values == "nonfinite":
        assert any(np.isnan(s.value_mins).any() and
                   np.isinf(s.value_maxs).any()
                   for s in columnar(got.hfta).values())


def walk_in_two(dataset, config, buckets, value_column, cut, n_workers,
                numpy):
    """The stream walked as rows ``[0, cut)`` then ``[cut, n)`` into one
    HFTA, folded between the calls (by the merge kernel) as a live epoch
    close folds."""
    rows = np.arange(len(dataset))

    def walk(part, hfta=None):
        with numpy_kernels_off() if numpy else nullcontext(), \
                walk_workers_of(n_workers):
            return simulate(dataset, config, buckets, 1.0, value_column,
                            hfta=hfta, rows=part).hfta

    first = walk(rows[:cut])
    first.finalize()
    return walk(rows[cut:], first)


@needs_kernel
@pytest.mark.parametrize("n_workers", [1, 3])
@given(stream=streams, cut=st.floats(0.0, 1.0), data=st.data())
def test_a_fold_extends_the_state_held(n_workers, stream, cut, data):
    """An epoch walked in two calls: the second call's folds start from
    the first's state, its groups first, and equal the numpy walk's two
    batches folded as one HFTA folds them."""
    config = data.draw(forests)
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    cut = int(cut * len(dataset))
    got = walk_in_two(dataset, config, buckets, value_column, cut,
                      n_workers, numpy=False)
    want = walk_in_two(dataset, config, buckets, value_column, cut, 1,
                       numpy=True)
    lazy = copy.deepcopy(want)
    with numpy_kernels_off():
        assert states(got, any_nan=True) == states(lazy, any_nan=True)
    assert states(got) == states(want)


@needs_kernel
@pytest.mark.parametrize("values", ["none", "nonfinite"])
def test_a_fold_extends_pending_batches(values):
    """A key with batches still pending when the walk reaches it: they
    are folded first, then extended, in the order one fold of all of
    them would take."""
    config = Configuration.from_notation("ABC(AB A)")
    dataset = make_stream(3, [300, 200], 4, "nonfinite", False)
    buckets = {rel: 5 for rel in config.relations}
    value_column = None if values == "none" else "v"
    rows = np.arange(len(dataset))
    with numpy_kernels_off():
        ahead = simulate(dataset, config, buckets, 1.0, value_column,
                         rows=rows[::2])
        want = simulate(dataset, config, buckets, 1.0, value_column,
                        hfta=copy.deepcopy(ahead.hfta),
                        rows=rows[1::2]).hfta
    got = simulate(dataset, config, buckets, 1.0, value_column,
                   hfta=ahead.hfta, rows=rows[1::2]).hfta
    assert states(got)[:-1] == states(want)[:-1]


@needs_kernel
@pytest.mark.parametrize("shards", [2, 3, 5])
def test_shards_extend_each_other(shards):
    """Each shard's walk extends the states the shards before it handed
    over: the merged state is the one HFTA fold of every shard's runs in
    shard order, as the numpy walk's merged batches fold, and it counts
    one fold per key over every partial, as that fold does. No shard's
    HFTA keeps partials the next shard took over."""
    dataset = make_stream(5, [500, 300, 40], 5, "nonfinite", False)
    queries = QuerySet.counts(["AB", "BC", "CD"], epoch_seconds=1.0)
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    the_plan = plan(queries, stats, memory=300)
    system = ShardedStreamSystem.from_plan(
        dataset, queries, the_plan, shards=shards, value_column="v")
    got = system.run().result.hfta
    with numpy_kernels_off():
        want = ShardedStreamSystem.from_plan(
            dataset, queries, the_plan, shards=shards,
            value_column="v").run().result.hfta
    assert states(got) == states(want)
    assert got.folds == len(columnar(got))
    assert got.rows_folded == got.evictions_received
    assert all(not columnar(r.hfta) for r in system.shard_results)


@needs_kernel
def test_a_seed_is_checked_before_the_kernel_reads_it():
    """A seed for a relation that does not emit, or whose key columns do
    not match its relation or its counts, is refused before the walk,
    and the walk folds as before afterwards."""
    walk = native_ingest.Walk([-1, 0], [[0, 1], [0]], [3, 4], [5, 5],
                              [False, True], False, 8)
    cols = [np.array([1, 2, 1, 2, 3], dtype=np.int64)] * 2
    walk.bind(cols, None)
    t = np.arange(5, dtype=np.int64)
    w = np.ones(5, dtype=np.int64)
    want = native_ingest.ingest_runs(walk, 0, t, w)
    two = np.ones(2, dtype=np.int64)
    state = ([two], two, np.zeros(2), np.zeros(2), np.zeros(2))
    for seeds, message in (({0: state}, "does not emit"),
                           ({2: state}, "does not emit"),
                           ({1: ([two, two], *state[1:])}, "1 key columns"),
                           ({1: ([two[:1]], *state[1:])}, "of 2 rows"),
                           ({1: ([np.full(2, 1.5)], *state[1:])},
                            "must be integers")):
        with pytest.raises(ValueError, match=message):
            native_ingest.ingest_runs(walk, 0, t, w, seeds=seeds)
    (got,) = native_ingest.ingest_runs(walk, 0, t, w)
    assert [a.tobytes() for a in got[1:6]] == \
        [a.tobytes() for a in want[0][1:6]]


def test_summary_says_where_the_folds_ran():
    """The kernel walk folds in the walk, every other walk lazily; the
    ``HFTA merge`` line says which, over the same fold counts."""
    dataset = make_stream(5, [100, 100, 100], 4, "none", False)
    queries = QuerySet.counts(["AB", "CD"], epoch_seconds=1.0)
    config = Configuration.flat(queries.group_bys)
    buckets = {rel: 16 for rel in config.relations}

    def merge_line(report):
        for query in queries:
            report.answers(query)
        (line,) = [line for line in report.summary().splitlines()
                   if line.startswith("HFTA merge")]
        return line

    with numpy_kernels_off():
        lazy = merge_line(StreamSystem(dataset, queries, config,
                                       buckets).run())
    counts = "HFTA merge        : 6 folds over 383 rows"
    assert lazy == f"{counts} (lazily, numpy merge kernel)"
    if native_ingest.kernel_available():
        walked = merge_line(StreamSystem(dataset, queries, config,
                                         buckets).run())
        assert walked == f"{counts} (in the walk, native ingest kernel)"


QUERIES = QuerySet([
    AggregationQuery(AttributeSet.parse(gb), Aggregate(kind, "v"),
                     epoch_seconds=1.0)
    for gb, kind in (("AB", "sum"), ("BC", "avg"), ("CD", "min"),
                     ("AD", "max"))])


def reopened(dataset, the_plan, cut: int, end: int) -> LiveStreamSystem:
    """Rows ``[0, cut)`` pushed, ``finish()``, then ``[cut, end)``: the
    open epoch at ``cut`` is closed and reopened."""
    live = LiveStreamSystem(SCHEMA, QUERIES, the_plan, value_column="v")
    for lo, hi in ((0, cut), (cut, end)):
        live.push({a: dataset.columns[a][lo:hi] for a in SCHEMA.attributes},
                  dataset.timestamps[lo:hi],
                  dataset.values["v"][lo:hi])
        live.finish()
    return live


@pytest.mark.parametrize("where", [0.1, 0.5, 0.9])
def test_reopened_live_epoch_is_bit_identical(where):
    """Part of an epoch, ``finish()``, the rest of it: the reopened
    epoch's fold extends the state its first close left, and every
    answer equals the numpy walk's (``REPRO_NO_CKERNEL``) bit for bit,
    over values whose float sums depend on their order."""
    stream = make_stream(21, [900, 700, 800], 5, "finite", False)
    # non-integral values spread over magnitudes: addition order shows
    dataset = Dataset(SCHEMA, stream.columns, stream.timestamps, {
        "v": np.random.default_rng(2).lognormal(0.0, 4.0, len(stream))})
    stats = measure_statistics(dataset, FeedingGraph(QUERIES).nodes)
    the_plan = plan(QUERIES, stats, memory=400)
    cut = 900 + int(where * 700)  # inside epoch 1
    got = reopened(dataset, the_plan, cut, len(dataset))
    with numpy_kernels_off():
        want = reopened(dataset, the_plan, cut, len(dataset))
    assert [r.epoch for r in got.epoch_reports] == [0, 1, 1, 2]
    for query in QUERIES:
        mine, theirs = got.answers(query), want.answers(query)
        assert mine.keys() == theirs.keys() == {0, 1, 2}
        for epoch in theirs:
            a, b = mine[epoch], theirs[epoch]
            assert a.array.tobytes() == b.array.tobytes()
            for name in b.columns:
                assert a.columns[name].tobytes() == b.columns[name].tobytes()
    assert (got.hfta.evictions_received, got.hfta.folds,
            got.hfta.rows_folded) == (want.hfta.evictions_received,
                                      want.hfta.folds, want.hfta.rows_folded)
