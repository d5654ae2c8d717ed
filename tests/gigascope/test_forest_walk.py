"""The forest walk: the ingest kernel's one call per epoch against the
reference numpy walk and the record-at-a-time reference.

The kernel walks every relation of a configuration in C and feeds each
child its parent's evictions in eviction order; the numpy walk of
``tests/references.py`` runs one vectorized pass per relation, sorting
each one's arrivals by (bucket, time); ``lfta.run_reference`` runs the
paper's sequential LFTA. On random forests up to depth 4 (phantom
chains, fan-out 3), epochs of one record and empty epochs between full
ones, tables of 1 bucket to far more buckets than records, count-only
and value streams (NaN and +-inf included) and strided columns, the two
walks must agree on every counter and every HFTA state — the kernel's
folded in the walk, the numpy walk's batches folded by the HFTA — bit
for bit, NaN sums, group order and fold counts included, and equal the
reference wherever its plain-float min/max can follow (finite values).

One-epoch calls (every live close) walk on two lanes when a ``Tables``
has walked before: the same stream cut into its epochs, each walked in
a call of its own through one ``Tables``, must give the same counters
and states on two lanes, on one lane and on the numpy walk, and equal
the reference, for forests whose lanes cross (a relation whose parent
ran on the other lane, with children of its own), NaN values, shard
slices and relations that emit and feed.
"""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.gigascope import Dataset, StreamSchema, engine, simulate
from repro.gigascope.hfta import HFTA
from repro.gigascope.lfta import run_reference
from repro.gigascope.metrics import CostCounters
from repro.native import ingest as native_ingest
from tests.conftest import split_ran, walk_lanes_of
from tests.hfta_totals import totals
from tests.references import numpy_bodies, numpy_walk, split_dataset

NAMES = tuple("ABCDEF")
SCHEMA = StreamSchema(NAMES, value_columns=("v",))

#: Forests the random ones may miss: a depth-4 phantom chain, fan-out 3
#: at the root and below, two raw relations, one relation alone.
DEEP = ["ABCDE(ABCD(ABC(AB(A) C) BCD) CDE(CD DE E))",
        "ABCDEF(ABC(A B C) DEF(D E F) BCDE(BC BD CE))",
        "ABCD(ABC(AB(A B) BC) D) EF(E F)",
        "ABCDEF"]


@st.composite
def random_forests(draw):
    """A forest over A-F up to depth 4: every child a strict subset of
    its parent, every relation distinct, the leaves the queries."""
    parent: dict[AttributeSet, AttributeSet | None] = {}

    def subset(of: tuple[str, ...], size: int) -> AttributeSet:
        return AttributeSet.of(*draw(st.permutations(of))[:size])

    def grow(rel: AttributeSet, depth: int) -> None:
        if depth == 4 or len(rel) == 1:
            return
        for _ in range(draw(st.integers(0, 3))):
            kid = subset(rel.names, draw(st.integers(1, len(rel) - 1)))
            if kid not in parent:
                parent[kid] = rel
                grow(kid, depth + 1)

    for _ in range(draw(st.integers(1, 2))):
        root = subset(NAMES, draw(st.integers(1, len(NAMES))))
        if root not in parent:
            parent[root] = None
            grow(root, 0)
    fed = set(parent.values())
    return Configuration(parent, [rel for rel in parent if rel not in fed])


forests = st.one_of(st.sampled_from(DEEP).map(Configuration.from_notation),
                    random_forests())

streams = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    # records per epoch: one-record and empty epochs between full ones
    "epochs": st.lists(st.sampled_from([0, 1, 1, 3, 40, 250]),
                       min_size=1, max_size=5),
    "domain": st.integers(1, 6),
    "values": st.sampled_from(["none", "finite", "nonfinite"]),
    "strided": st.booleans(),
})

#: Table sizes: one bucket up to far more buckets than any epoch holds.
BUCKETS = st.sampled_from([1, 2, 3, 7, 64, 997, 5000])


def make_stream(seed, epochs, domain, values, strided):
    """A stream over ``NAMES`` whose epoch ``k`` (1 s long) holds
    ``epochs[k]`` records. Strided streams hand ``Dataset`` columns of a
    2-D array and every other element of a value array (which
    ``Dataset`` copies when it rewrites a ``-nan``). Nonfinite values
    are NaNs of both signs and infinities of both signs."""
    rng = np.random.default_rng(seed)
    times = np.concatenate(
        [k + (np.arange(size) + 0.5) / (size + 1)
         for k, size in enumerate(epochs)] + [np.empty(0)])
    n = times.shape[0]
    grid = rng.integers(0, domain, (n, len(NAMES)))
    if strided:
        cols = {a: grid[:, i] for i, a in enumerate(NAMES)}
    else:
        cols = {a: grid[:, i].copy() for i, a in enumerate(NAMES)}
    vals = rng.uniform(40, 1500, 2 * n)
    if values == "nonfinite":
        special = rng.choice([np.nan, np.inf, -np.inf, -np.nan], 2 * n)
        vals = np.where(rng.random(2 * n) < 0.2, special, vals)
    vals = vals[::2] if strided else vals[:n].copy()
    dataset = Dataset(SCHEMA, cols, times, {"v": vals})
    if strided and n > 1:
        assert not dataset.columns["A"].flags.c_contiguous
        assert dataset.values["v"].flags.c_contiguous == (
            np.signbit(vals[np.isnan(vals)]).any())
    return dataset


def columnar(hfta: HFTA) -> dict:
    """Every key's folded state, by relation label and epoch."""
    keys = sorted(hfta._columnar, key=lambda key: (key[0].label(), key[1]))
    return {key: hfta.totals_columnar(*key) for key in keys}


def states(hfta: HFTA) -> list:
    """Every key's folded state as raw bytes, NaN bits included, then
    the HFTA's counters."""
    out = [(rel, epoch,
            [(name, col.dtype.str, col.tobytes())
             for name, col in zip(state.names, state.columns)],
            state.counts.tobytes(), state.value_sums.tobytes(),
            state.value_mins.tobytes(), state.value_maxs.tobytes())
           for (rel, epoch), state in columnar(hfta).items()]
    return out + [(hfta.evictions_received, hfta.folds, hfta.rows_folded)]


def assert_same_walk(got, want):
    assert got.counters.relations == want.counters.relations
    assert list(got.counters.relations) == list(want.counters.relations)
    assert states(got.hfta) == states(want.hfta)


@given(config=forests, stream=streams, data=st.data())
def test_walks_match_each_other_and_reference(config, stream, data):
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    got = simulate(dataset, config, buckets, 1.0, value_column)
    with numpy_bodies():
        want = simulate(dataset, config, buckets, 1.0, value_column)
    assert_same_walk(got, want)
    assert got.n_epochs == sum(1 for size in stream["epochs"] if size)
    if stream["values"] == "nonfinite":
        return  # the reference's min/max are plain floats
    ref = run_reference(dataset, config, buckets, 1.0, value_column)
    assert got.counters.relations == ref.counters.relations
    for leaf in config.leaves:
        assert got.hfta.epochs(leaf) == ref.hfta.epochs(leaf)
        for epoch in ref.hfta.epochs(leaf):
            assert totals(got.hfta, leaf, epoch) == \
                totals(ref.hfta, leaf, epoch)


def _walk(walk, config, dataset, buckets, emit, value_column):
    """The engine's walk or the reference numpy walk, with its own emit
    flags."""
    counters, hfta = CostCounters(config), HFTA()
    tables = engine.Tables()
    tables.bind(config, buckets, 0, value_column is not None)
    forest = tables.forest
    tables.forest = native_ingest.Forest(forest.parent, forest.keys,
                                         forest.salts, forest.sizes, emit,
                                         forest.has_values)
    walk(tables, dataset.columns,
         dataset.values[value_column] if value_column else None,
         list(dataset.epoch_slices(1.0)), hfta)
    tables.count_into(counters)
    return counters, hfta


@pytest.mark.parametrize("notation", DEEP[:3])
@pytest.mark.parametrize("value_column", [None, "v"])
@given(stream=streams, data=st.data())
def test_inner_relation_emits_and_feeds(notation, value_column, stream,
                                        data):
    """A relation with children whose emit flag is set ships its runs to
    the HFTA (the kernel folds them) *and* feeds its children, the same
    in C as in numpy."""
    config = Configuration.from_notation(notation)
    dataset = make_stream(**{**stream, "epochs": stream["epochs"] + [40]})
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    emit = [data.draw(st.booleans()) or not config.is_leaf(rel)
            for rel in config.relations]
    got = _walk(engine._walk, config, dataset, buckets, emit, value_column)
    want = _walk(numpy_walk, config, dataset, buckets, emit, value_column)
    assert got[0].relations == want[0].relations
    assert states(got[1]) == states(want[1])
    inner = {rel for rel, e in zip(config.relations, emit)
             if e and not config.is_leaf(rel)}
    assert inner and inner <= {rel for rel, _ in columnar(got[1])}


@pytest.mark.parametrize("records", [1, 3])
def test_huge_tables_cost_the_epoch_not_the_table(records):
    """A table of 10**6 buckets under a 1- and a 3-record epoch: the
    kernel pays for the records, not the table, and equals the numpy
    walk."""
    config = Configuration.from_notation("ABCD(ABC(AB A) CD)")
    dataset = make_stream(records, [records], 3, "finite", False)
    buckets = {rel: 10**6 - i for i, rel in enumerate(config.relations)}
    simulate(dataset, config, {rel: 1 for rel in buckets}, 1.0, "v")  # load
    began = time.perf_counter()
    got = simulate(dataset, config, buckets, 1.0, "v")
    elapsed = time.perf_counter() - began
    with numpy_bodies():
        want = simulate(dataset, config, buckets, 1.0, "v")
    assert_same_walk(got, want)
    assert elapsed < 0.5


def test_tables_kept_between_calls_change_nothing():
    """One ``Tables`` through calls whose epochs grow past its buffers,
    whose configuration, allocation and value column change, and back:
    every call equals a call without it."""
    tables = engine.Tables()
    shapes = [("ABCD(ABC(AB A) CD)", 7, [40], "v"),
              ("ABCD(ABC(AB A) CD)", 7, [250, 3], "v"),
              ("ABCD(ABC(AB A) CD)", 7, [1, 0, 600], "v"),
              ("ABCD(ABC(AB A) CD)", 5, [40], "v"),
              ("ABCD(ABC(AB A) CD)", 5, [40], None),
              ("AB BC", 3, [250], None),
              ("ABCD(ABC(AB A) CD)", 7, [40, 40], "v")]
    for seed, (notation, size, epochs, value_column) in enumerate(shapes):
        config = Configuration.from_notation(notation)
        dataset = make_stream(seed, epochs, 4, "finite", seed % 2 == 0)
        buckets = {rel: size + i for i, rel in enumerate(config.relations)}
        got = simulate(dataset, config, buckets, 1.0, value_column,
                       tables=tables)
        want = simulate(dataset, config, buckets, 1.0, value_column)
        assert_same_walk(got, want)


#: Forests whose two-lane schedules cross: a relation on one lane feeds
#: relations on the other, and a relation with children waits for its
#: parent on the other lane. The third adds a query with children.
LANE_SHAPES = ["ABCD(AB BCD(BC BD CD))", "ABCD(ABC(AB A) BCD(BC CD))",
               "ABCD(AB BCD(BC BD CD))+BCD"]


def lane_config(notation: str) -> Configuration:
    """``notation``, with the relations named after a ``+`` made queries
    as well."""
    notation, *more = notation.split("+")
    config = Configuration.from_notation(notation)
    if not more:
        return config
    queries = list(config.leaves) + [AttributeSet.parse(m) for m in more]
    return Configuration({rel: config.parent(rel)
                          for rel in config.relations}, queries)


def epoch_by_epoch(dataset, config, buckets, value_column, shards=None):
    """Every epoch of ``dataset`` in a one-epoch call of its own, as a
    live close walks it: one ``Tables``, counters and HFTA through all.
    Returns the counters, the HFTA and each call's walk."""
    epoch = np.floor(dataset.timestamps).astype(np.int64)
    n_epochs = int(epoch[-1]) + 1 if len(dataset) else 1
    counters, hfta, tables = CostCounters(config), HFTA(), engine.Tables()
    walks = []
    for k, part in enumerate(split_dataset(dataset, epoch, n_epochs)):
        if len(part):
            walks.append(simulate(
                part, config, buckets, 1.0, value_column,
                counters=counters, hfta=hfta, tables=tables,
                shards=None if shards is None else shards[epoch == k]).walk)
    return counters, hfta, walks


def assert_lanes_agree(dataset, config, buckets, value_column, shards=None):
    """Two lanes, one lane and the numpy walk, epoch by epoch, byte for
    byte; returns the two-lane run's walks."""
    with walk_lanes_of(True):
        got = epoch_by_epoch(dataset, config, buckets, value_column, shards)
    with walk_lanes_of(False):
        one = epoch_by_epoch(dataset, config, buckets, value_column, shards)
    with numpy_bodies():
        want = epoch_by_epoch(dataset, config, buckets, value_column, shards)
    for other in (one, want):
        assert got[0].relations == other[0].relations
        assert list(got[0].relations) == list(other[0].relations)
        assert states(got[1]) == states(other[1])
    assert not any(walk.endswith("lanes") for walk in one[2])
    return got[2]


@pytest.mark.parametrize("sharded", [False, True], ids=["all-rows", "index"])
@pytest.mark.parametrize("values", ["none", "finite", "nonfinite"])
@pytest.mark.parametrize("notation", LANE_SHAPES)
def test_one_epoch_calls_on_two_lanes(notation, values, sharded):
    """``index``: row ``i`` in shard ``i mod 3``. Every call after the
    first splits where two cores are usable; with finite values and no
    shards the calls also equal the sequential reference."""
    config = lane_config(notation)
    dataset = make_stream(7, [300, 1, 300, 0, 300, 40, 300], 5,
                          "finite" if values == "none" else values, False)
    buckets = {rel: 5 + 7 * i for i, rel in enumerate(config.relations)}
    value_column = None if values == "none" else "v"
    shards = np.arange(len(dataset)) % 3 if sharded else None
    walks = assert_lanes_agree(dataset, config, buckets, value_column, shards)
    if split_ran():
        assert walks[0] == "native kernel, 1 worker"
        assert walks[2:] == ["native kernel, 1 worker, 2 lanes"] * 4
    if values == "nonfinite" or sharded:
        return  # the reference's min/max are plain floats; no shards
    ref = run_reference(dataset, config, buckets, 1.0, value_column)
    counters, hfta, _ = epoch_by_epoch(dataset, config, buckets,
                                       value_column)
    assert counters.relations == ref.counters.relations
    for leaf in config.leaves:
        assert hfta.epochs(leaf) == ref.hfta.epochs(leaf)
        for epoch in ref.hfta.epochs(leaf):
            assert totals(hfta, leaf, epoch) == totals(ref.hfta, leaf, epoch)


@given(config=forests, stream=streams, data=st.data())
def test_random_forests_on_two_lanes(config, stream, data):
    """Random forests and streams, every epoch a call of its own: two
    lanes, one lane and the numpy walk agree byte for byte."""
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    value_column = None if stream["values"] == "none" else "v"
    assert_lanes_agree(dataset, config, buckets, value_column)
