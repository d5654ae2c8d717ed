"""The ingest walk folds what it emits.

The kernel sends each emitting relation's runs straight into the
walk's group table, extending whatever state the HFTA holds for that
relation and epoch; the reference numpy walk (``tests/references.py``)
hands the same runs to the HFTA as a batch, which the HFTA folds into
the key's state at once. For every
(relation, epoch) key the two must hold the same state: group order,
dtypes, counts, sums (a NaN sum as ``np.nan``'s bits in both) and
NaN/+-inf minima and maxima, byte for byte, and the same
``evictions_received``/``folds``/``rows_folded``.

Covered: random forests and streams on 1 and 3 cores, with and
without shard ids and a value column, and the seeded folds — a stream
walked in two calls (a contiguous cut or alternate rows) and a live
epoch reopened after ``finish()``, on one lane and on two — and a
sharded run's one fold of every shard's runs.
"""

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
from tests.conftest import on_cores, split_ran, walk_lanes_of
from tests.gigascope.test_forest_walk import (
    BUCKETS,
    SCHEMA,
    columnar,
    forests,
    make_stream,
    states,
    streams,
)
from tests.references import numpy_bodies, split_dataset


def assert_folds_match(got, numpy_walked):
    """``got`` (a kernel walk's HFTA) against a numpy walk's, byte for
    byte, counters included."""
    assert states(got) == states(numpy_walked)
    assert got.folds == len(columnar(got))  # one fold per key, no more


def draw_shards(data, n: int):
    """No shard ids, or ``n`` random ids below a drawn shard count."""
    if not data.draw(st.booleans(), label="shards"):
        return None
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    return rng.integers(0, data.draw(st.integers(1, 4)), n)


@pytest.mark.parametrize("n_cores", [1, 3])
@given(config=forests, stream=streams, data=st.data())
def test_walk_fold_equals_numpy_fold(n_cores, config, stream, data):
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    shards = draw_shards(data, len(dataset))
    with on_cores(n_cores):
        got = simulate(dataset, config, buckets, 1.0, value_column,
                       shards=shards)
    with numpy_bodies():
        want = simulate(dataset, config, buckets, 1.0, value_column,
                        shards=shards)
    assert_folds_match(got.hfta, want.hfta)


#: Fixed forests and epochs: a deep chain, an inner relation that is a
#: leaf of nothing, one relation; uneven epochs with empty ones between.
FIXED = ["ABCD(ABC(AB A) CD)", "ABCDE(ABCD(ABC(AB(A) C) BCD) CDE(CD DE E))",
         "AB"]
EPOCHS = [1, 400, 0, 3, 250, 0, 60]


@pytest.mark.parametrize("n_cores", [1, 3])
@pytest.mark.parametrize("sharded", [False, True], ids=["all-rows", "index"])
@pytest.mark.parametrize("values", ["none", "finite", "nonfinite"])
@pytest.mark.parametrize("notation", FIXED)
def test_fixed_shapes(notation, values, sharded, n_cores):
    """``index``: the stream walked with a shard index, row ``i`` in
    shard ``i mod 3``."""
    config = Configuration.from_notation(notation)
    dataset = make_stream(11, EPOCHS, 4, "finite" if values == "none"
                          else values, False)
    buckets = {rel: 3 + 5 * i for i, rel in enumerate(config.relations)}
    value_column = None if values == "none" else "v"
    shards = np.arange(len(dataset)) % 3 if sharded else None
    with on_cores(n_cores):
        got = simulate(dataset, config, buckets, 1.0, value_column,
                       shards=shards)
    with numpy_bodies():
        want = simulate(dataset, config, buckets, 1.0, value_column,
                        shards=shards)
    assert_folds_match(got.hfta, want.hfta)
    if values == "nonfinite":
        assert any(np.isnan(s.value_mins).any() and
                   np.isinf(s.value_maxs).any()
                   for s in columnar(got.hfta).values())


def walk_in_two(dataset, config, buckets, value_column, parts, n_cores,
                numpy):
    """The stream walked as the rows of ``parts[0]``, then those of
    ``parts[1]``, each copied out, into one HFTA."""
    ids = np.zeros(len(dataset), dtype=np.int64)
    ids[parts[1]] = 1
    first, second = split_dataset(dataset, ids, 2)

    def walk(part, hfta=None):
        with numpy_bodies() if numpy else nullcontext(), \
                on_cores(n_cores):
            return simulate(part, config, buckets, 1.0, value_column,
                            hfta=hfta).hfta

    return walk(second, walk(first))


def split_rows(n: int, cut: float, alternate: bool):
    """``[0, n)`` as a contiguous cut at ``cut * n``, or as its even and
    odd rows."""
    rows = np.arange(n)
    if alternate:
        return rows[::2], rows[1::2]
    return rows[:int(cut * n)], rows[int(cut * n):]


@pytest.mark.parametrize("n_cores", [1, 3])
@given(stream=streams, cut=st.floats(0.0, 1.0), alternate=st.booleans(),
       data=st.data())
def test_a_fold_extends_the_state_held(n_cores, stream, cut, alternate,
                                       data):
    """A stream walked in two calls: the second call's folds start from
    the first's state, its groups first, and equal the numpy walk's two
    batches folded into one HFTA, byte for byte, with the same
    ``folds`` and ``rows_folded``."""
    config = data.draw(forests)
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    parts = split_rows(len(dataset), cut, alternate)
    got = walk_in_two(dataset, config, buckets, value_column, parts,
                      n_cores, numpy=False)
    want = walk_in_two(dataset, config, buckets, value_column, parts, 1,
                       numpy=True)
    assert states(got) == states(want)


@pytest.mark.parametrize("values", ["none", "finite", "nonfinite"])
def test_both_legs_count_a_second_call_alike(values):
    """Even rows, then odd rows, into one HFTA: each key's second fold
    extends its first on both legs, so the kernel and numpy walks count
    the same folds over the same rows."""
    config = Configuration.from_notation("ABC(AB A)")
    dataset = make_stream(3, [300, 200], 4, "finite" if values == "none"
                          else values, False)
    buckets = {rel: 5 for rel in config.relations}
    value_column = None if values == "none" else "v"
    parts = split_rows(len(dataset), 0.0, alternate=True)
    got = walk_in_two(dataset, config, buckets, value_column, parts, 1,
                      numpy=False)
    want = walk_in_two(dataset, config, buckets, value_column, parts, 1,
                       numpy=True)
    assert states(got) == states(want)
    assert got.folds == 2 * len(columnar(got))


def test_a_seed_longer_than_a_hash_block():
    """A held state of more groups than the kernel hashes in one block
    (256 rows) seeds the second call's folds: its rows are hashed block
    by block, and each run of the second call finds its group, as the
    numpy fold finds it."""
    config = Configuration.from_notation("ABC(AB A)")
    dataset = make_stream(7, [3000, 2000], 40, "finite", False)
    buckets = {rel: 50 for rel in config.relations}
    parts = split_rows(len(dataset), 0.0, alternate=True)
    got = walk_in_two(dataset, config, buckets, "v", parts, 1, numpy=False)
    want = walk_in_two(dataset, config, buckets, "v", parts, 1, numpy=True)
    assert states(got) == states(want)
    assert max(state.counts.shape[0]
               for state in columnar(got).values()) > 2 * 256


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_shards_extend_each_other(shards):
    """Each shard's runs extend the groups the shards before it folded:
    a key's state is the one fold of every shard's runs in shard order,
    on the kernel walk as in the numpy walk's one batch per key, and it
    counts one fold per key over every partial."""
    dataset = make_stream(5, [500, 300, 40], 5, "nonfinite", False)
    queries = QuerySet.counts(["AB", "BC", "CD"], epoch_seconds=1.0)
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    the_plan = plan(queries, stats, memory=300)
    system = ShardedStreamSystem.from_plan(
        dataset, queries, the_plan, shards=shards, value_column="v")
    got = system.run().result.hfta
    with numpy_bodies():
        want = ShardedStreamSystem.from_plan(
            dataset, queries, the_plan, shards=shards,
            value_column="v").run().result.hfta
    assert states(got) == states(want)
    assert got.folds == len(columnar(got))
    assert got.rows_folded == got.evictions_received


def test_a_seed_is_checked_before_the_kernel_reads_it():
    """A seed for a relation that does not emit, or whose key columns do
    not match its relation or its counts, is refused before the walk,
    and the walk folds as before afterwards."""
    forest = native_ingest.Forest([-1, 0], [[0, 1], [0]], [3, 4], [5, 5],
                                  [False, True], False)
    cols = [np.array([1, 2, 1, 2, 3], dtype=np.int64)] * 2
    forest.bind(cols, None)
    walk = native_ingest.Walk(forest, 8)
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
    assert [a.tobytes() for a in (*got[1:5], *got.columns)] == \
        [a.tobytes() for a in (*want[0][1:5], *want[0].columns)]


def test_summary_says_where_the_folds_ran():
    """Every walk folds in the walk: the ``HFTA merge`` line gives the
    folds and the rows folded, and the ``LFTA walk`` line the walk."""
    dataset = make_stream(5, [100, 100, 100], 4, "none", False)
    queries = QuerySet.counts(["AB", "CD"], epoch_seconds=1.0)
    config = Configuration.flat(queries.group_bys)
    buckets = {rel: 16 for rel in config.relations}
    report = StreamSystem(dataset, queries, config, buckets).run()
    for query in queries:
        report.answers(query)
    lines = report.summary().splitlines()
    assert "HFTA merge        : 6 folds over 383 rows" in lines
    assert any(line.startswith("LFTA walk         : native kernel, ")
               for line in lines)


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


@pytest.mark.parametrize("lanes", [False, True], ids=["one-lane",
                                                       "two-lanes"])
@pytest.mark.parametrize("where", [0.1, 0.5, 0.9])
def test_reopened_live_epoch_is_bit_identical(where, lanes):
    """Part of an epoch, ``finish()``, the rest of it: the reopened
    epoch's fold extends the state its first close left, and every
    answer equals the reference numpy walk's bit for bit,
    over values whose float sums depend on their order. ``two-lanes``:
    every close after the era's first splits where two cores are
    usable, the reopened one with its seeds in either lane's folds."""
    stream = make_stream(21, [900, 700, 800], 5, "finite", False)
    # non-integral values spread over magnitudes: addition order shows
    dataset = Dataset(SCHEMA, stream.columns, stream.timestamps, {
        "v": np.random.default_rng(2).lognormal(0.0, 4.0, len(stream))})
    stats = measure_statistics(dataset, FeedingGraph(QUERIES).nodes)
    the_plan = plan(QUERIES, stats, memory=400)
    cut = 900 + int(where * 700)  # inside epoch 1
    with walk_lanes_of(lanes):
        got = reopened(dataset, the_plan, cut, len(dataset))
    if lanes and split_ran():
        assert got.tables._lanes.ran == 2
    with numpy_bodies():
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


def test_signed_nans_fold_alike():
    """A value column holding NaNs of both signs: ``Dataset`` writes
    every NaN as ``np.nan``'s bits, so the kernel and numpy walks keep
    the same minima and maxima (and sums), byte for byte."""
    stream = make_stream(4, [500], 5, "finite", False)
    rng = np.random.default_rng(8)
    values = stream.values["v"].copy()
    draw = rng.random(len(values))
    values[draw < 0.1] = np.nan
    values[(draw >= 0.1) & (draw < 0.2)] = -np.nan
    assert np.signbit(values[np.isnan(values)]).any()
    dataset = Dataset(SCHEMA, stream.columns, stream.timestamps,
                      {"v": values})
    nan_bits = np.float64(np.nan).view(np.uint64)
    taken = dataset.values["v"]
    assert (taken[np.isnan(taken)].view(np.uint64) == nan_bits).all()
    config = Configuration.from_notation("ABCD(ABC(AB A) CD)")
    buckets = {rel: 5 for rel in config.relations}
    got = simulate(dataset, config, buckets, 1.0, "v")
    with numpy_bodies():
        want = simulate(dataset, config, buckets, 1.0, "v")
    assert_folds_match(got.hfta, want.hfta)
    assert any(np.isnan(state.value_mins).any()
               for state in columnar(got.hfta).values())
