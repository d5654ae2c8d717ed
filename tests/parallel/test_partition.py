"""Tests for the stream partitioners."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import AttributeSet, StreamSchema
from repro.errors import ConfigurationError, SchemaError
from repro.gigascope.records import Dataset
from repro.parallel import (
    HashPartitioner,
    KeyRangePartitioner,
    RoundRobinPartitioner,
    make_partitioner,
    shard_balance,
    split_dataset,
)
from repro.workloads import make_group_universe, uniform_dataset
from tests.conftest import needs_kernel, numpy_kernels_off

SCHEMA = StreamSchema(("A", "B", "C", "D"))

_KEY_SCHEMA = StreamSchema(("A",))


def _key_dataset(values) -> Dataset:
    """A minimal one-attribute dataset carrying an arbitrary key column."""
    column = np.asarray(values, dtype=np.int64)
    timestamps = np.linspace(0.0, 1.0, len(column))
    return Dataset(_KEY_SCHEMA, {"A": column}, timestamps, {})


@pytest.fixture(scope="module")
def dataset():
    universe = make_group_universe(SCHEMA, (8, 24, 48, 90), seed=7)
    return uniform_dataset(universe, 5000, duration=9.0, seed=13)


class TestHashPartitioner:
    def test_ids_in_range_and_deterministic(self, dataset):
        part = HashPartitioner()
        ids = part.shard_ids(dataset, 4)
        assert ids.shape == (len(dataset),)
        assert ids.min() >= 0 and ids.max() < 4
        assert np.array_equal(ids, part.shard_ids(dataset, 4))

    def test_groups_stay_together(self, dataset):
        """All records of one group land on one shard (key locality)."""
        ids = HashPartitioner(AttributeSet.parse("AB")).shard_ids(dataset, 3)
        key = dataset.columns["A"] * 10_000 + dataset.columns["B"]
        for group in np.unique(key):
            assert np.unique(ids[key == group]).size == 1

    def test_reasonable_balance(self, dataset):
        ids = HashPartitioner().shard_ids(dataset, 4)
        sizes = np.bincount(ids, minlength=4)
        assert sizes.min() > len(dataset) // 10

    def test_rejects_zero_shards(self, dataset):
        ids = np.zeros(len(dataset), dtype=np.int64)
        for bad in (0, 2.9, True, "2"):
            for call in (
                    lambda: HashPartitioner().shard_ids(dataset, bad),
                    lambda: RoundRobinPartitioner().shard_ids(dataset, bad),
                    lambda: KeyRangePartitioner("A").shard_ids(dataset, bad),
                    lambda: shard_balance(ids, bad),
                    lambda: split_dataset(dataset, ids, bad)):
                with pytest.raises(ConfigurationError, match=repr(bad)):
                    call()

    def test_rejects_unknown_key(self, dataset):
        with pytest.raises(SchemaError):
            HashPartitioner(AttributeSet.parse("AZ")).shard_ids(dataset, 2)


class TestRoundRobinPartitioner:
    def test_perfect_balance(self, dataset):
        ids = RoundRobinPartitioner().shard_ids(dataset, 4)
        sizes = np.bincount(ids, minlength=4)
        assert sizes.max() - sizes.min() <= 1
        assert np.array_equal(ids[:8], np.arange(8) % 4)


class TestKeyRangePartitioner:
    def test_explicit_boundaries(self, dataset):
        part = KeyRangePartitioner("A", boundaries=(3.0, 6.0))
        ids = part.shard_ids(dataset, 3)
        a = dataset.columns["A"]
        assert np.all(ids[a < 3] == 0)
        assert np.all(ids[(a >= 3) & (a < 6)] == 1)
        assert np.all(ids[a >= 6] == 2)

    def test_quantile_boundaries_balance(self, dataset):
        ids = KeyRangePartitioner("A").shard_ids(dataset, 2)
        sizes = np.bincount(ids, minlength=2)
        assert sizes.min() > 0

    def test_skewed_column_still_covers_both_shards(self):
        """Regression: interpolated quantiles on a heavily skewed column
        used to produce a boundary no record crosses, silently collapsing
        one shard to empty."""
        data = _key_dataset([5] * 99 + [7])
        ids = KeyRangePartitioner("A").shard_ids(data, 2)
        sizes = np.bincount(ids, minlength=2)
        assert sizes.min() > 0

    def test_low_cardinality_caps_live_shards_at_cardinality(self):
        """Two distinct values cannot cover four shards; the first two
        shards take one value each and the rest are knowingly empty."""
        data = _key_dataset([0] * 50 + [1] * 50)
        ids = KeyRangePartitioner("A").shard_ids(data, 4)
        sizes = np.bincount(ids, minlength=4)
        assert list(sizes) == [50, 50, 0, 0]
        summary = shard_balance(ids, 4, strategy="KeyRangePartitioner")
        assert summary["empty_shards"] == 2
        assert summary["records"] == [50, 50, 0, 0]

    def test_constant_column_lands_on_one_shard(self):
        data = _key_dataset([9] * 30)
        ids = KeyRangePartitioner("A").shard_ids(data, 3)
        assert np.all(ids == 0)

    @given(values=st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=1, max_size=300),
           n_shards=st.integers(min_value=2, max_value=8))
    def test_derived_split_covers_all_reachable_shards(self, values,
                                                       n_shards):
        """Whatever the skew, a derived key-range split fills shards
        ``0..min(n_shards, cardinality)-1`` and only those, and shard ids
        are monotone in the key (ranges stay contiguous)."""
        data = _key_dataset(sorted(values))
        ids = KeyRangePartitioner("A").shard_ids(data, n_shards)
        reachable = min(n_shards, np.unique(data.columns["A"]).size)
        sizes = np.bincount(ids, minlength=n_shards)
        assert np.all(sizes[:reachable] > 0)
        assert np.all(sizes[reachable:] == 0)
        assert np.all(np.diff(ids) >= 0)  # sorted keys → sorted shards

    def test_boundary_count_mismatch(self, dataset):
        with pytest.raises(ConfigurationError):
            KeyRangePartitioner("A", boundaries=(3.0,)).shard_ids(dataset, 3)

    def test_unknown_column(self, dataset):
        with pytest.raises(SchemaError):
            KeyRangePartitioner("Z").shard_ids(dataset, 2)


class TestSplitDataset:
    def test_partition_covers_stream_in_order(self, dataset):
        ids = RoundRobinPartitioner().shard_ids(dataset, 3)
        shards = split_dataset(dataset, ids, 3)
        assert sum(len(s) for s in shards) == len(dataset)
        for shard in shards:
            assert np.all(np.diff(shard.timestamps) >= 0)
        merged = np.sort(np.concatenate([s.columns["A"] for s in shards]))
        assert np.array_equal(merged, np.sort(dataset.columns["A"]))

    def test_values_follow_records(self):
        schema = StreamSchema(("A",), value_columns=("len",))
        universe = make_group_universe(schema, (6,), value_pool=16, seed=1)
        data = uniform_dataset(universe, 400, duration=4.0, seed=2,
                               value_column="len")
        ids = RoundRobinPartitioner().shard_ids(data, 2)
        shards = split_dataset(data, ids, 2)
        assert np.array_equal(shards[0].values["len"],
                              data.values["len"][ids == 0])

    def test_rejects_out_of_range_ids(self, dataset):
        """Ids outside [0, n_shards) and non-integer ids are a typed
        error — the same one, word for word, from the kernel's in-loop
        check, the numpy path and ``shard_balance``."""
        n = len(dataset)
        too_big = np.full(n, 5)
        negative = np.zeros(n, dtype=np.int64)
        negative[n // 2] = -1
        mixed = np.arange(n) % 3
        mixed[7], mixed[9] = 3, -4
        calls = (lambda ids: split_dataset(dataset, ids, 3),
                 lambda ids: shard_balance(ids, 3))
        for ids, span in ((too_big, "[5, 5]"), (negative, "[-1, 0]"),
                          (mixed, "[-4, 3]"), (np.zeros(n), "float64")):
            messages = set()
            for call in calls:
                with pytest.raises(ConfigurationError) as kernel:
                    call(ids)
                with numpy_kernels_off(), \
                        pytest.raises(ConfigurationError) as fallback:
                    call(ids)
                messages |= {str(kernel.value), str(fallback.value)}
            assert len(messages) == 1 and span in messages.pop()
        with pytest.raises(ConfigurationError, match="from Mine"):
            shard_balance(too_big, 3, strategy="Mine")

    def test_rejects_wrong_length(self, dataset):
        for ids in (np.zeros(3, dtype=np.int64),
                    np.zeros((len(dataset), 1), dtype=np.int64)):
            with pytest.raises(ConfigurationError, match="shape"):
                split_dataset(dataset, ids, 2)
            with numpy_kernels_off(), \
                    pytest.raises(ConfigurationError, match="shape"):
                split_dataset(dataset, ids, 2)


_INT64 = st.one_of(
    st.sampled_from([-2**63, 2**63 - 1, -1, 0, 1]),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.integers(min_value=-3, max_value=3))


def _stream(columns: dict, timestamps, values=None) -> Dataset:
    schema = StreamSchema(tuple(columns),
                          value_columns=("len",) if values is not None
                          else ())
    return Dataset(schema,
                   {k: np.asarray(v, dtype=np.int64)
                    for k, v in columns.items()},
                   np.sort(np.asarray(timestamps, dtype=np.float64)),
                   {} if values is None
                   else {"len": np.asarray(values, dtype=np.float64)})


@st.composite
def streams(draw):
    """Short ABC streams over the whole int64 range, with and without a
    value column (NaN and infinities included: lanes are copied, never
    compared or added)."""
    n = draw(st.integers(min_value=0, max_value=40))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    values = column(st.floats()) if draw(st.booleans()) else None
    return _stream({name: column(_INT64) for name in "ABC"},
                   column(st.floats(min_value=0.0, max_value=60.0)), values)


#: The hand-picked shapes of the split differential: (columns, shards).
_SHAPES = {
    "empty": ({"A": [], "B": []}, 3),
    "one-record": ({"A": [7], "B": [-7]}, 3),
    # one key: hash and range put every record on one shard
    "one-shard": ({"A": [4] * 9, "B": [-2**63] * 9}, 3),
    # three records, two keys, four shards: every partitioner leaves
    # at least one shard empty
    "empty-shard": ({"A": [1, 2**63 - 1, 1], "B": [0, 0, 0]}, 4),
}

_PARTITIONERS = {
    "hash": HashPartitioner(),
    "round-robin": RoundRobinPartitioner(),
    "range": KeyRangePartitioner("A"),
}


def _assert_split_agrees(data: Dataset, ids: np.ndarray, n_shards: int):
    """Kernel scatter == numpy masks, lane for lane, and every shard is
    a dataset the engine can take as it is."""
    shards = split_dataset(data, ids, n_shards)
    with numpy_kernels_off():
        expected = split_dataset(data, ids, n_shards)
    assert len(shards) == len(expected) == n_shards
    for shard, (index, ref) in zip(shards, enumerate(expected)):
        assert shard.schema == ref.schema == data.schema
        keep = ids == index
        lanes = [(shard.timestamps, ref.timestamps, data.timestamps)]
        lanes += [(shard.columns[a], ref.columns[a], data.columns[a])
                  for a in data.columns]
        lanes += [(shard.values[v], ref.values[v], data.values[v])
                  for v in data.values]
        assert shard.values.keys() == data.values.keys()
        for got, want, source in lanes:
            assert got.dtype == want.dtype == source.dtype
            assert got.flags.c_contiguous
            # arrival order kept; NaN == NaN, -0.0 != 0.0 (bytes moved)
            assert got.tobytes() == want.tobytes() == source[keep].tobytes()
        assert np.all(np.diff(shard.timestamps) >= 0)


@needs_kernel
class TestKernelDifferential:
    """The partition kernel against the numpy bodies it replaces."""

    @given(data=streams(), n_shards=st.integers(min_value=1, max_value=7),
           key=st.sampled_from([None, AttributeSet.parse("AB")]),
           salt=st.sampled_from([0x5A2D_51AB, 0, 2**64 - 1, -1]))
    def test_hash_ids_bit_equal(self, data, n_shards, key, salt):
        """int64 attributes are *viewed* as uint64 in C and must wrap
        like numpy's ``astype`` — INT64_MIN/-1/INT64_MAX included."""
        part = HashPartitioner(key, salt)
        ids = part.shard_ids(data, n_shards)
        with numpy_kernels_off():
            expected = part.shard_ids(data, n_shards)
        assert ids.dtype == expected.dtype == np.int64
        assert np.array_equal(ids, expected)

    @given(data=streams(), n_shards=st.integers(min_value=1, max_value=7),
           name=st.sampled_from(sorted(_PARTITIONERS)))
    def test_split_equal_lane_for_lane(self, data, n_shards, name):
        ids = _PARTITIONERS[name].shard_ids(data, n_shards)
        _assert_split_agrees(data, ids, n_shards)

    @pytest.mark.parametrize("with_values", [False, True],
                             ids=["counts", "values"])
    @pytest.mark.parametrize("name", sorted(_PARTITIONERS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_split_degenerate_shapes(self, shape, name, with_values):
        columns, n_shards = _SHAPES[shape]
        n = len(columns["A"])
        data = _stream(columns, np.arange(n) / 2.0,
                       np.arange(n) - 0.5 if with_values else None)
        ids = _PARTITIONERS[name].shard_ids(data, n_shards)
        if shape == "one-shard" and name != "round-robin":
            assert np.unique(ids).size == 1
        if shape == "empty-shard":
            assert np.bincount(ids, minlength=n_shards).min() == 0
        _assert_split_agrees(data, ids, n_shards)

    def test_strided_and_narrow_inputs(self, dataset):
        """Non-contiguous columns and int32 ids are converted, not
        reinterpreted."""
        wide = np.arange(2 * len(dataset), dtype=np.int64)
        data = Dataset(SCHEMA,
                       {**dataset.columns, "A": wide[::2]},
                       dataset.timestamps, {})
        ids = HashPartitioner().shard_ids(data, 3)
        with numpy_kernels_off():
            assert np.array_equal(ids, HashPartitioner().shard_ids(data, 3))
        _assert_split_agrees(data, ids.astype(np.int32), 3)


class TestFactory:
    def test_known_strategies(self):
        assert isinstance(make_partitioner("hash"), HashPartitioner)
        assert isinstance(make_partitioner("round-robin"),
                          RoundRobinPartitioner)
        assert isinstance(make_partitioner("rr"), RoundRobinPartitioner)
        ranged = make_partitioner("range", column="A")
        assert isinstance(ranged, KeyRangePartitioner)
        assert ranged.column == "A"

    def test_hash_key_parsing(self):
        part = make_partitioner("hash", key="AB")
        assert part.key == AttributeSet.parse("AB")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            make_partitioner("modulo")

    def test_range_needs_column(self):
        with pytest.raises(ConfigurationError):
            make_partitioner("range")
