"""The forest walk: the ingest kernel's one call per epoch against the
numpy walk and the record-at-a-time reference.

The kernel walks every relation of a configuration in C and feeds each
child its parent's evictions in eviction order; the numpy walk runs one
vectorized pass per relation, sorting each one's arrivals by (bucket,
time); ``lfta.run_reference`` runs the paper's sequential LFTA. On random forests up to depth 4 (phantom
chains, fan-out 3), epochs of one record and empty epochs between full
ones, tables of 1 bucket to far more buckets than records, count-only
and value streams (NaN and +-inf included) and strided columns, the two
walks must agree on every counter and every HFTA state — the kernel's
folded in the walk, the numpy walk's batches folded by the HFTA — bit
for bit, NaN sums, group order and fold counts included, and equal the
reference wherever its plain-float min/max can follow (finite values).
"""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.gigascope import Dataset, StreamSchema, engine, simulate
from repro.gigascope.hashing import relation_salt
from repro.gigascope.hfta import HFTA
from repro.gigascope.lfta import run_reference
from repro.gigascope.metrics import CostCounters
from tests.conftest import needs_kernel, numpy_kernels_off
from tests.hfta_totals import totals

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
    with numpy_kernels_off():
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
    """One of the engine's two walks with its own emit flags."""
    rels = config.relations
    counters, hfta = CostCounters(config), HFTA()
    slices = list(dataset.epoch_slices(1.0))
    longest = max(end - start for _, start, end in slices)
    walk(dataset, config, {rel: buckets[rel] for rel in rels},
         {rel: relation_salt(rel.label()) for rel in rels}, emit,
         counters, hfta, slices,
         dataset.values[value_column] if value_column else None,
         np.arange(longest, dtype=np.int64),
         np.ones(longest, dtype=np.int64))
    return counters, hfta


@needs_kernel
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
    got = _walk(engine._walk_native, config, dataset, buckets, emit,
                value_column)
    want = _walk(engine._walk_numpy, config, dataset, buckets, emit,
                 value_column)
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
    with numpy_kernels_off():
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
