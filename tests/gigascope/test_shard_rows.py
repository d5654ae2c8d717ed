"""A sharded run is one walk: ``simulate(..., shards=)`` against the
shards walked one after the other.

``simulate(dataset, ..., shards=ids)`` gives every relation ``max(id) +
1`` slices of its bucket count side by side and walks each record in its
shard's slice, in one pass. It must equal
:func:`tests.references.sharded_reference` — each shard copied out
(``split_dataset``) and run through its own record-at-a-time LFTA, in
shard order, every query's evictions of an epoch folded into one HFTA
once — on every counter, ``evictions_received``/``folds``/
``rows_folded`` and every answer; and the kernel walk on one and three
cores and the reference numpy walk must hold the same states byte for
byte (NaN
and +-inf min/max included, which the reference's plain floats do not
follow). ``ShardedStreamSystem`` is held to the same reference under
every partitioner, with empty shards and with a table of one bucket per
shard. A ``shards=`` array that is not 1-D, not integer, not one id per
record or that holds a negative id is refused before anything moves;
ids past the record count walk as their ranks.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import QuerySet, ShardedStreamSystem
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.gigascope import engine, simulate
from repro.gigascope.metrics import CostCounters
from repro.native import ingest as native_ingest
from repro.parallel import HashPartitioner
from tests.conftest import on_cores
from tests.gigascope.test_forest_walk import (
    BUCKETS,
    columnar,
    forests,
    make_stream,
    states,
    streams,
)
from tests.hfta_totals import totals
from tests.references import (
    KeyRange,
    RoundRobin,
    numpy_bodies,
    sharded_reference,
    split_dataset,
)

NOTATION = "ABCD(ABC(AB A) CD)"

#: The kernel walk on one and on three cores, and the reference numpy
#: walk.
LEGS = [pytest.param(("kernels", 1), id="kernels-1"),
        pytest.param(("kernels", 3), id="kernels-3"),
        pytest.param(("numpy", 1), id="numpy")]


@contextmanager
def leg(mode):
    kernels, n_cores = mode
    with numpy_bodies() if kernels == "numpy" else nullcontext(), \
            on_cores(n_cores):
        yield


def reference_of(dataset, ids, config, buckets, value_column):
    """:func:`sharded_reference` over the shards ``ids`` cut, in shard
    order (an empty shard walks nothing)."""
    n_shards = int(ids.max()) + 1 if len(ids) else 1
    return sharded_reference(split_dataset(dataset, ids, n_shards), config,
                             buckets, 1.0, value_column)


def assert_matches(got, ref, config, finite: bool):
    """``got`` against the reference: counters and HFTA counters always,
    every query's answers when min/max are plain floats."""
    assert got.counters.relations == ref.counters.relations
    for field in ("evictions_received", "folds", "rows_folded"):
        assert getattr(got.hfta, field) == getattr(ref.hfta, field), field
    assert (got.n_records, got.n_epochs) == (ref.n_records, ref.n_epochs)
    if not finite:
        return
    for query in config.queries:
        assert got.hfta.epochs(query) == ref.hfta.epochs(query)
        for epoch in ref.hfta.epochs(query):
            assert totals(got.hfta, query, epoch) == \
                totals(ref.hfta, query, epoch)


def assert_one_walk(mode, dataset, ids, config, buckets, value_column):
    """The one walk on ``mode`` equals the reference and, byte for byte,
    the numpy walk."""
    ids = np.asarray(ids, dtype=np.int64)
    with leg(mode):
        got = simulate(dataset, config, buckets, 1.0, value_column,
                       shards=ids)
    finite = value_column is None or \
        bool(np.isfinite(dataset.values[value_column]).all())
    assert_matches(got, reference_of(dataset, ids, config, buckets,
                                     value_column), config, finite)
    if mode[0] != "numpy":
        with numpy_bodies():
            want = simulate(dataset, config, buckets, 1.0, value_column,
                            shards=ids)
        assert states(got.hfta) == states(want.hfta)
    assert got.hfta.folds == len(columnar(got.hfta))  # once per key
    return got


@pytest.mark.parametrize("mode", LEGS)
@given(config=forests, stream=streams, data=st.data())
def test_rows_equal_the_copied_shard(mode, config, stream, data):
    """Random forests, streams and assignments of up to four shards:
    the one walk equals the shards copied out and walked one after the
    other."""
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ids = rng.integers(0, data.draw(st.integers(1, 4)), len(dataset))
    value_column = None if stream["values"] == "none" else "v"
    assert_one_walk(mode, dataset, ids, config, buckets, value_column)


#: Records per 1 s epoch of the stream the shapes cut shard 1 from.
EPOCHS = [40, 3, 0, 250, 1, 90]
_STARTS = np.cumsum([0] + EPOCHS)

#: The rows shard 1 takes; shard 0 takes the rest.
SHAPES = {
    "empty": [],
    "one-row": [137],
    "every-row": list(range(_STARTS[-1])),
    "one-epoch": list(range(_STARTS[3] + 5, _STARTS[4], 3)),
    # epochs 0 and 5 only, so shard 1 is absent from epochs 1-4
    "skips-epochs": [0, 7, 39] + list(range(_STARTS[5], _STARTS[6], 2)),
    "every-other": list(range(1, _STARTS[-1], 2)),
}


@pytest.mark.parametrize("mode", LEGS)
@pytest.mark.parametrize("values", ["none", "nonfinite"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_row_shapes(shape, values, mode):
    # strided columns for two of the shapes: the kernel reads a copy
    strided = shape in ("one-row", "every-other")
    dataset = make_stream(5, EPOCHS, 4, "nonfinite", strided)
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 5 + 3 * i for i, rel in enumerate(config.relations)}
    ids = np.zeros(len(dataset), dtype=np.int64)
    ids[SHAPES[shape]] = 1
    value_column = None if values == "none" else "v"
    got = assert_one_walk(mode, dataset, ids, config, buckets, value_column)
    assert got.n_records == len(dataset)
    if values == "nonfinite":
        assert any(np.isnan(state.value_mins).any()
                   or np.isinf(state.value_maxs).any()
                   for state in columnar(got.hfta).values())


@pytest.mark.parametrize("mode", LEGS)
def test_shards_of_one_stream_add_up(mode):
    """Three shards walked as one count every record of the stream once,
    and each relation's counters are the shards' walked alone, summed."""
    dataset = make_stream(7, [300, 20, 500], 5, "finite", False)
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 11 for rel in config.relations}
    ids = np.random.default_rng(3).integers(0, 3, len(dataset))
    got = assert_one_walk(mode, dataset, ids, config, buckets, "v")
    whole = config.relations[0]
    assert got.counters.counters(whole).arrivals_intra == len(dataset)
    summed = CostCounters(config)
    with leg(mode):
        for part in split_dataset(dataset, ids, 3):
            alone = simulate(part, config, buckets, 1.0, "v")
            for rel, counter in alone.counters.relations.items():
                summed.counters(rel).merge(counter)
    assert got.counters.relations == summed.relations


PARTITIONERS = {"hash": HashPartitioner(), "round-robin": RoundRobin(),
                # no key of domain 5 reaches the third range: shard 2
                # (the highest id) is empty
                "range": KeyRange("A", (2, 10))}


@pytest.mark.parametrize("mode", LEGS)
@pytest.mark.parametrize("partition", sorted(PARTITIONERS))
def test_sharded_system_equals_reference(partition, mode):
    """``ShardedStreamSystem`` under each partitioner equals the shards
    walked one after the other, and ``simulate(shards=)`` with the same
    ids; relation CD has one bucket per shard."""
    dataset = make_stream(9, [200, 0, 350, 60], 5, "finite", False)
    config = Configuration.from_notation(NOTATION)
    queries = QuerySet.counts([q.label() for q in config.queries],
                              epoch_seconds=1.0)
    buckets = {rel: 3 if rel.label() == "CD" else 4 * (i + 2)
               for i, rel in enumerate(config.relations)}
    partitioner = PARTITIONERS[partition]
    system = ShardedStreamSystem(dataset, queries, config, buckets,
                                 value_column="v", shards=3,
                                 partitioner=partitioner)
    assert min(system.shard_buckets.values()) == 1
    with leg(mode):
        got = system.run().result
    ids = partitioner.shard_ids(dataset, 3)
    assert (system.partition_summary["empty_shards"] == 1) == \
        (partition == "range")
    assert_matches(got, reference_of(dataset, ids, config,
                                     system.shard_buckets, "v"),
                   config, finite=True)
    with leg(mode):
        direct = simulate(dataset, config, system.shard_buckets, 1.0, "v",
                          shards=ids)
    assert direct.counters.relations == got.counters.relations
    assert states(direct.hfta) == states(got.hfta)


#: ``shards=`` arrays ``simulate`` refuses, each with what its error names.
REFUSED = {
    "negative": (np.array([0, -1] + [0] * 18), "record 1 has shard id -1"),
    "too-large": (np.array([0, 0, 2**31] + [0] * 17),
                  "record 2 has shard id 2147483648"),
    "past-the-end": (np.zeros(21, dtype=np.int64),
                     "21 ids for 20 records"),
    "too-short": (np.zeros(19, dtype=np.int64), "19 ids for 20 records"),
    "float": (np.zeros(20), "integers, got dtype float64"),
    "bool": (np.ones(20, dtype=bool), "integers, got dtype bool"),
    "2-D": (np.zeros((20, 1), dtype=np.int64),
            r"1-D shard ids, got shape \(20, 1\)"),
}


@pytest.mark.parametrize("mode", LEGS)
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_indices(name, mode):
    """Refused before any counter or HFTA state moves: a call that
    accumulates into an earlier call's counters and HFTA leaves both
    as they were."""
    dataset = make_stream(1, [20], 3, "finite", False)
    config = Configuration.from_notation("AB")
    buckets = {config.relations[0]: 4}
    ids, message = REFUSED[name]
    with leg(mode):
        earlier = simulate(dataset, config, buckets, 1.0, "v")
        held = states(earlier.hfta)
        counters = {rel: vars(c).copy()
                    for rel, c in earlier.counters.relations.items()}
        with pytest.raises(ConfigurationError, match=message):
            simulate(dataset, config, buckets, 1.0, "v",
                     counters=earlier.counters, hfta=earlier.hfta,
                     shards=ids)
    assert states(earlier.hfta) == held
    assert {rel: vars(c) for rel, c in
            earlier.counters.relations.items()} == counters


@pytest.mark.parametrize("mode", LEGS)
def test_sparse_ids_walk_as_their_ranks(mode):
    """Ids past the record count are walked as their ranks among the ids
    present: the tables get one slice per id in use, not one per id up
    to the largest, and every counter and state is the ranks' own."""
    dataset = make_stream(2, [30], 4, "finite", False)
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 3 + i for i, rel in enumerate(config.relations)}
    ranks = np.random.default_rng(3).integers(0, 3, len(dataset))
    sparse = np.array([0, 7, 1000])[ranks]
    checked, slices = engine._shard_ids(sparse, len(dataset))
    assert slices == 3 and np.array_equal(checked, ranks)
    with leg(mode):
        got, want = (simulate(dataset, config, buckets, 1.0, "v",
                              shards=ids) for ids in (sparse, ranks))
    assert got.counters.relations == want.counters.relations
    assert states(got.hfta) == states(want.hfta)
    assert (got.hfta.folds, got.hfta.rows_folded) == \
        (want.hfta.folds, want.hfta.rows_folded)


def test_kernel_reads_rows_past_start():
    """``ingest_runs`` reads arrival ``j``'s shard id at row ``start +
    j``, as it reads its attributes; ids all 0 walk as no ids."""
    rng = np.random.default_rng(4)
    cols = [rng.integers(0, 4, 50) for _ in range(2)]
    values = rng.uniform(0, 9, 50)
    ids = rng.integers(0, 3, 50)
    start, n = 10, 25
    t = np.arange(n, dtype=np.int64)
    w = np.ones(n, dtype=np.int64)

    def walk_of(columns, vals, shard_ids):
        walk = native_ingest.Walk([-1], [[0, 1]], [5], [3], [True], True,
                                  32, slices=3)
        walk.bind(columns, vals, None if shard_ids is None else
                  native_ingest.ShardIds(shard_ids, 3))
        return walk

    got = native_ingest.ingest_runs(walk_of(cols, values, ids), start, t, w)
    want = native_ingest.ingest_runs(
        walk_of([c[start:start + n] for c in cols],
                values[start:start + n], ids[start:start + n]), 0, t, w)
    assert len(got) == len(want) == 1
    (got,), (want,) = got, want

    def fold_bytes(fold):
        return [a.tobytes() for a in (*fold[1:5], *fold.columns)]

    assert fold_bytes(got) == fold_bytes(want)
    assert got.runs == want.runs
    (zeros,), (none,) = (native_ingest.ingest_runs(
        walk_of(cols, values, shard_ids), start, t, w)
        for shard_ids in (np.zeros(50, dtype=np.int64), None))
    assert fold_bytes(zeros) == fold_bytes(none)


def test_checked_ids_are_bound_without_a_pass():
    """``ShardIds`` come checked: ``bind`` compares only their slice
    count with the walk's (ids past it are not read, so they are not
    refused here; a walk over them would go out of its tables), and
    ``simulate`` only their length and slice count against the
    records. Plain ids get every check of ``simulate``'s."""
    ids = np.full(50, 7, dtype=np.int64)
    cols = [np.zeros(50, dtype=np.int64) for _ in range(2)]
    walk = native_ingest.Walk([-1], [[0, 1]], [5], [3], [True], False,
                              32, slices=3)
    walk.bind(cols, None, native_ingest.ShardIds(ids, 3))
    assert walk.shards is ids
    with pytest.raises(ValueError, match=r"in \[0, 3\)"):
        walk.bind(cols, None, native_ingest.ShardIds(ids, 4))

    dataset = make_stream(2, [30], 4, "finite", False)
    n = len(dataset)
    for wrong in (native_ingest.ShardIds(np.zeros(n - 1, np.int64), 1),
                  native_ingest.ShardIds(np.zeros(n, np.int64), 0),
                  native_ingest.ShardIds(np.zeros(n, np.int64), n + 1)):
        with pytest.raises(ConfigurationError, match="checked shard ids"):
            engine._shard_ids(wrong, n)
    ranks = np.random.default_rng(5).integers(0, 3, n)
    checked = native_ingest.ShardIds(ranks.astype(np.int64), 3)
    assert engine._shard_ids(checked, n) is checked
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 3 + i for i, rel in enumerate(config.relations)}
    got, want = (simulate(dataset, config, buckets, 1.0, "v", shards=s)
                 for s in (checked, ranks))
    assert got.counters.relations == want.counters.relations
    assert states(got.hfta) == states(want.hfta)
