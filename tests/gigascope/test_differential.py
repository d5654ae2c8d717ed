"""The engine-level differential matrix.

Does the data path compute exactly what the paper's record-at-a-time
LFTA computes, whichever way it runs? Reference ``SequentialLFTA`` x
{the native library walking the epochs on 1 core, on 3, the numpy
bodies of ``tests/references.py`` swapped in (``numpy_bodies``)} x
{flat, two-, three-level forest, forests where a query feeds others} x
{unsharded, 2 shards} x {counts only, value column} over hypothesis
streams; every per-relation counter
and every HFTA key's totals (``tests/hfta_totals.py``, float sums
included) compared for equality. Every
mode equals the reference, hence each other.
Pinned, small-table and degenerate streams run through the same
comparison.
Kernel-function checks live beside the code they test, the NaN-value
kernel shape in ``test_native_ingest.py``.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.gigascope import Dataset, StreamSchema
from tests.conftest import on_cores
from tests.references import (
    ABC_SCHEMA,
    abc_stream,
    assert_matches_reference,
    numpy_bodies,
)

#: The ways the data path runs: the library walking the epochs on one
#: core or on three (the caller and two helpers), and the numpy bodies it
#: is held to.
MODES = pytest.mark.parametrize("mode", [
    pytest.param(partial(on_cores, 1), id="kernels"),
    pytest.param(partial(on_cores, 3), id="kernels-3-cores"),
    pytest.param(numpy_bodies, id="numpy_bodies")])

#: Deeper forests feed the kernel in parent emission order, not time order.
FORESTS = {
    "flat": ["AB", "A B", "AB BC"],
    "two-level": ["ABC(AB BC)", "AB(A B) C"],
    "three-level": ["ABC(AB(A B) C)", "ABC(AB(A B) BC)"],
}

streams = st.fixed_dictionaries({
    "pick": st.integers(0, 5),
    "seed": st.integers(0, 2**16),
    "n": st.integers(50, 600),
    "domain": st.integers(2, 6),
    "duration": st.sampled_from([1.0, 4.0, 9.0]),
    "epoch_seconds": st.sampled_from([0.7, 1.3, 2.5]),
    "buckets": st.integers(2, 17),
    "clustered": st.booleans(),
})


@pytest.mark.parametrize("values", [False, True], ids=["counts", "values"])
@pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
@pytest.mark.parametrize("forest", sorted(FORESTS))
@MODES
@given(stream=streams)
def test_engine_matches_reference(mode, forest, shards, values, stream):
    notations = FORESTS[forest]
    config = Configuration.from_notation(
        notations[stream["pick"] % len(notations)])
    dataset = abc_stream(stream["seed"], stream["n"], stream["domain"],
                         stream["duration"], stream["clustered"])
    buckets = {rel: stream["buckets"] + 2 * i
               for i, rel in enumerate(config.relations)}
    with mode():
        assert_matches_reference(
            dataset, config, buckets, stream["epoch_seconds"],
            value_column="v" if values else None, shards=shards)


#: Forests in which queries feed other relations, with their queries: a
#: query with children ships its evictions to the HFTA and feeds them.
NESTED = [("ABC(AB(A B) C)", "ABC AB A B C"), ("ABC(AB(A) BC)", "AB A BC"),
          ("AB(A B) C", "AB A B C"), ("ABC(AC(A C) B)", "ABC AC C A B")]


@pytest.mark.parametrize("values", [False, True], ids=["counts", "values"])
@pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
@MODES
@given(stream=streams)
@settings(max_examples=25)
def test_nested_queries_match_reference(mode, shards, values, stream):
    notation, queries = NESTED[stream["pick"] % len(NESTED)]
    config = Configuration.from_notation(notation, queries=[
        AttributeSet.parse(label) for label in queries.split()])
    dataset = abc_stream(stream["seed"], stream["n"], stream["domain"],
                         stream["duration"], stream["clustered"])
    buckets = {rel: stream["buckets"] + 2 * i
               for i, rel in enumerate(config.relations)}
    with mode():
        got = assert_matches_reference(
            dataset, config, buckets, stream["epoch_seconds"],
            value_column="v" if values else None, shards=shards)
    inner = [q for q in config.queries if not config.is_leaf(q)]
    assert inner and all(got.hfta.epochs(q) for q in inner)


#: Fixed streams (seeded by position) beside the hypothesis matrix: an AC
#: branch under ABC, two raws where AC feeds only C, one raw over three
#: leaves, the three-level forest, three flat leaves and a phantom beside
#: a flat leaf, each with a value column at a fixed seed.
PINNED = ["ABC(AC(A C) B)", "AB(A B) AC(C)", "ABC(A B C)", "ABC(AB(A B) C)",
          "A B C", "AB(A B) C"]


@pytest.mark.parametrize("notation", PINNED)
@pytest.mark.parametrize("clustered", [False, True],
                         ids=["random", "clustered"])
def test_pinned_stream_matches_reference(clustered, notation):
    config = Configuration.from_notation(notation)
    dataset = abc_stream(PINNED.index(notation), 1500, 4, 5.0, clustered)
    buckets = {rel: 3 + 2 * i for i, rel in enumerate(config.relations)}
    assert_matches_reference(dataset, config, buckets, 2.0,
                             value_column="v")


@MODES
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(PINNED), st.integers(2, 9))
@settings(max_examples=25, deadline=None)
def test_small_tables_match_reference(mode, seed, n_epochs, notation,
                                      domain):
    """The pinned forests (two raws included) over 1-11 buckets per
    relation, b = 1 included, which the matrix above never draws."""
    dataset = abc_stream(seed, 400, domain, float(n_epochs), False)
    config = Configuration.from_notation(notation)
    rng = np.random.default_rng(seed + 1)
    buckets = {rel: int(rng.integers(1, 12)) for rel in config.relations}
    with mode():
        assert_matches_reference(dataset, config, buckets, 1.0)


def _columns(*rows):
    """An A/B/C stream whose three columns are each ``rows``."""
    return {a: np.array(rows, dtype=np.int64) for a in ABC_SCHEMA.attributes}


def _all_collide():
    """64 distinct groups in one epoch, each attribute a multiple of its
    position, so every arrival into a one-bucket table evicts."""
    n = 64
    return Dataset(ABC_SCHEMA,
                   {a: np.arange(n) * (i + 1)
                    for i, a in enumerate(ABC_SCHEMA.attributes)},
                   np.linspace(0.0, 0.9, n), {"v": np.linspace(1.0, 2.0, n)})


def _max_width():
    """Eight wide-domain attributes: the numpy walk's ``pack_tuples``
    re-factorizes them (radix overflow) while the kernel compares column
    by column."""
    names = tuple("ABCDEFGH")
    rng = np.random.default_rng(5)
    n = 300
    return Dataset(StreamSchema(names, value_columns=("v",)),
                   {a: rng.integers(-2**40, 2**40, n) for a in names},
                   np.sort(rng.uniform(0, 3.0, n)),
                   {"v": rng.uniform(0, 10, n)})


#: Streams at the edges of the per-epoch walk, as (forest, stream,
#: buckets per relation, epoch seconds): no records at all; timestamp
#: gaps that leave whole epochs without records, which the per-epoch
#: kernel calls must skip identically; one record; one-bucket tables
#: three levels deep, where every parent eviction cascades; every record
#: colliding in a one-bucket table; the widest packed keys.
DEGENERATE = {
    "all-records-collide": ("ABC", _all_collide, 1, 1.0),
    "max-width-keys": ("ABCDEFGH", _max_width, 9, 1.0),
    "b1-deep-forest": ("ABC(AB(A B) C)",
                       lambda: abc_stream(11, 200, 3, 4.0, True), 1, 1.3),
    "empty": ("AB", lambda: Dataset(ABC_SCHEMA, _columns(), np.array([]),
                                    {"v": np.array([])}), 4, 1.0),
    "empty-epochs": ("ABC(AB BC)",
                     lambda: Dataset(ABC_SCHEMA, _columns(1, 2, 1, 2, 3),
                                     np.array([0.1, 0.2, 5.3, 5.4, 20.9]),
                                     {"v": np.linspace(1.0, 5.0, 5)}),
                     3, 1.0),
    "one-record": ("AB BC", lambda: abc_stream(3, 1, 2, 1.0, False), 7, 0.5),
}


@pytest.mark.parametrize("shape", sorted(DEGENERATE))
@MODES
def test_degenerate_stream_matches_reference(mode, shape):
    notation, make_stream, size, epoch_seconds = DEGENERATE[shape]
    config = Configuration.from_notation(notation)
    dataset = make_stream()
    with mode():
        got = assert_matches_reference(
            dataset, config, {rel: size for rel in config.relations},
            epoch_seconds, value_column="v")
    assert got.n_records == len(dataset)
    if shape == "all-records-collide":
        (counters,) = got.counters.relations.values()
        assert counters.evictions_intra == len(dataset) - 1

