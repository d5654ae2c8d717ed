"""A shard as a row index: ``simulate(..., rows=)`` against a copy.

``simulate(dataset, ..., rows=index)`` walks the rows ``index`` names,
reading the stream's columns in place. It must equal ``simulate`` over
the dataset of just those rows (``split_dataset``'s copy): the same
counters, the same HFTA states and fold counts, the same floats bit
for bit (NaN and +-inf min/max included), on the kernel walk with one
and three threads and on the numpy walk. An index that is not 1-D,
integer, strictly ascending and inside the stream is refused by name.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.gigascope import simulate
from repro.native import ingest as native_ingest
from repro.parallel import split_dataset
from tests.conftest import needs_kernel, numpy_kernels_off, walk_workers_of
from tests.gigascope.test_forest_walk import (
    BUCKETS,
    assert_same_walk,
    columnar,
    forests,
    make_stream,
    streams,
)

NOTATION = "ABCD(ABC(AB A) CD)"

#: The kernel walk on one and on three threads, and the numpy walk.
LEGS = [pytest.param(("kernels", 1), marks=needs_kernel, id="kernels-1"),
        pytest.param(("kernels", 3), marks=needs_kernel, id="kernels-3"),
        pytest.param(("numpy", 1), id="numpy")]


@contextmanager
def leg(mode):
    kernels, n_workers = mode
    with numpy_kernels_off() if kernels == "numpy" else nullcontext(), \
            walk_workers_of(n_workers):
        yield


def copy_of(dataset, rows):
    """The dataset of just ``rows``, as ``split_dataset`` copies it."""
    ids = np.ones(len(dataset), dtype=np.int64)
    ids[rows] = 0
    return split_dataset(dataset, ids, 2)[0]


def assert_rows_walk_the_copy(dataset, rows, config, buckets, value_column):
    rows = np.asarray(rows, dtype=np.int64)
    got = simulate(dataset, config, buckets, 1.0, value_column, rows=rows)
    want = simulate(copy_of(dataset, rows), config, buckets, 1.0,
                    value_column)
    assert_same_walk(got, want)
    assert (got.n_records, got.n_epochs) == (want.n_records, want.n_epochs)
    return got


@pytest.mark.parametrize("mode", LEGS)
@given(config=forests, stream=streams, data=st.data())
def test_rows_equal_the_copied_shard(mode, config, stream, data):
    dataset = make_stream(**stream)
    buckets = {rel: data.draw(BUCKETS) for rel in config.relations}
    keep = data.draw(st.lists(st.booleans(), min_size=len(dataset),
                              max_size=len(dataset)))
    value_column = None if stream["values"] == "none" else "v"
    with leg(mode):
        assert_rows_walk_the_copy(dataset, np.flatnonzero(keep), config,
                                  buckets, value_column)


#: Records per 1 s epoch of the stream the shapes cut rows from.
EPOCHS = [40, 3, 0, 250, 1, 90]
_STARTS = np.cumsum([0] + EPOCHS)

#: Row indices into that stream.
SHAPES = {
    "empty": [],
    "one-row": [137],
    "every-row": list(range(_STARTS[-1])),
    "one-epoch": list(range(_STARTS[3] + 5, _STARTS[4], 3)),
    # epochs 0 and 5 only, so the walk skips epochs 1-4
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
    rows = SHAPES[shape]
    value_column = None if values == "none" else "v"
    with leg(mode):
        got = assert_rows_walk_the_copy(dataset, rows, config, buckets,
                                        value_column)
    assert got.n_records == len(rows)
    epochs = {int(t) for t in dataset.timestamps[rows]}
    assert got.n_epochs == len(epochs)
    if shape == "skips-epochs":
        assert epochs == {0, 5}
    if values == "nonfinite" and shape == "every-row":
        assert any(np.isnan(state.value_mins).any()
                   or np.isinf(state.value_maxs).any()
                   for state in columnar(got.hfta).values())


@pytest.mark.parametrize("mode", LEGS)
def test_shards_of_one_stream_add_up(mode):
    """Rows of three disjoint shards, each walked in place, count every
    record of the stream once; each equals its copy."""
    dataset = make_stream(7, [300, 20, 500], 5, "finite", False)
    config = Configuration.from_notation(NOTATION)
    buckets = {rel: 11 for rel in config.relations}
    ids = np.random.default_rng(3).integers(0, 3, len(dataset))
    with leg(mode):
        results = [assert_rows_walk_the_copy(
            dataset, np.flatnonzero(ids == s), config, buckets, "v")
            for s in range(3)]
    whole = config.relations[0]
    assert sum(r.counters.counters(whole).arrivals_intra
               for r in results) == len(dataset)


#: Row indices ``simulate`` refuses, each with what its error names.
REFUSED = {
    "unsorted": (np.array([3, 9, 5]), r"rows\[2\] = 5 is below rows\[1\]"),
    "duplicate": (np.array([3, 5, 5, 8]), r"rows\[2\] = 5 repeats"),
    "negative": (np.array([-1, 4]), r"\[0, 20\), got range \[-1, 4\]"),
    "past-the-end": (np.array([2, 20]), r"\[0, 20\), got range \[2, 20\]"),
    "float": (np.array([1.0, 2.0]), "integers, got dtype float64"),
    "bool": (np.ones(20, dtype=bool), "integers, got dtype bool"),
    "2-D": (np.array([[1, 2], [3, 4]]), r"1-D row index, got shape \(2, 2\)"),
}


@pytest.mark.parametrize("mode", LEGS)
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_indices(name, mode):
    dataset = make_stream(1, [20], 3, "finite", False)
    config = Configuration.from_notation("AB")
    rows, message = REFUSED[name]
    with leg(mode), pytest.raises(ConfigurationError, match=message):
        simulate(dataset, config, {config.relations[0]: 4}, 1.0, "v",
                 rows=rows)


@needs_kernel
def test_kernel_reads_rows_past_start():
    """``ingest_runs`` reads arrival ``j`` at row ``start + rows[j]`` and
    hands out the groups' rows relative to ``start``; rows outside the
    stream past ``start`` are refused before the kernel runs."""
    rng = np.random.default_rng(4)
    cols = [rng.integers(0, 4, 50) for _ in range(2)]
    values = rng.uniform(0, 9, 50)
    start, rows = 10, np.array([0, 3, 4, 11, 39], dtype=np.int64)
    t = np.arange(rows.size, dtype=np.int64)
    w = np.ones(rows.size, dtype=np.int64)

    def walk_of(columns, vals):
        walk = native_ingest.Walk([-1], [[0, 1]], [5], [3], [True], True, 8)
        walk.bind(columns, vals)
        return walk

    got = native_ingest.ingest_runs(walk_of(cols, values), start, t, w,
                                    rows)
    want = native_ingest.ingest_runs(
        walk_of([c[start + rows] for c in cols], values[start + rows]),
        0, t, w)
    assert len(got) == len(want) == 1
    (got,), (want,) = got, want
    assert np.array_equal(got.reps, rows[want.reps])
    for a, b in zip(got[2:6], want[2:6]):
        assert a.tobytes() == b.tobytes()
    assert got.runs == want.runs
    for bad in (np.array([0, 1, 2, 3, 40]), np.array([-1, 0, 1, 2, 3])):
        walk = walk_of(cols, values)
        with pytest.raises(ValueError, match=r"outside \[0, 40\)"):
            native_ingest.ingest_runs(walk, start, t, w, bad)
        assert not walk.stats.any()  # refused before anything is walked
