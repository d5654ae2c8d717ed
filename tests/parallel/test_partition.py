"""Tests for record-to-shard assignment: the built-in hash partitioner,
the ``shard_ids`` protocol user partitioners implement, the shard
datasets the references' ``split_dataset`` gathers, and the native
partition pass: the hash split across cores with its remainder taken
without a divide, and the one pass that checks and counts shard ids."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    AttributeSet,
    Configuration,
    QuerySet,
    ShardedStreamSystem,
    StreamSchema,
)
from repro.cli import main
from repro.errors import ConfigurationError, SchemaError
from repro.gigascope.records import Dataset
from repro.native import library as native_library
from repro.native import partition as native_partition
from repro.parallel import HashPartitioner
from repro.parallel.partition import balance_summary, check_shard_ids
from repro.workloads import make_group_universe, uniform_dataset
from tests.conftest import on_cores
from tests.references import (
    KeyRange,
    RoundRobin,
    numpy_bodies,
    reference_hash_shards,
    split_dataset,
)

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
                    lambda: split_dataset(dataset, ids, bad)):
                with pytest.raises(ConfigurationError, match=repr(bad)):
                    call()

    def test_rejects_unknown_key(self, dataset):
        with pytest.raises(SchemaError):
            HashPartitioner(AttributeSet.parse("AZ")).shard_ids(dataset, 2)
        # An empty key has nothing to hash: one typed error, before the
        # library is asked.
        with pytest.raises(ConfigurationError, match="empty key"):
            HashPartitioner(AttributeSet(())).shard_ids(dataset, 2)


def _summary(partitioner, data: Dataset, n_shards: int) -> dict:
    """A user partitioner's ids, validated and summarized the way the
    sharded runtime does it."""
    strategy = type(partitioner).__name__
    _, counts = check_shard_ids(partitioner.shard_ids(data, n_shards),
                                n_shards, len(data), source=strategy)
    return balance_summary(counts.tolist(), strategy)


class TestRoundRobinPartitioner:
    """A round-robin split written as user code against the protocol."""

    def test_perfect_balance(self, dataset):
        ids = RoundRobin().shard_ids(dataset, 4)
        assert np.array_equal(ids[:8], np.arange(8) % 4)
        summary = _summary(RoundRobin(), dataset, 4)
        assert max(summary["records"]) - min(summary["records"]) <= 1
        assert summary["strategy"] == "RoundRobin"
        assert summary["empty_shards"] == 0
        assert summary["imbalance"] == pytest.approx(
            summary["largest_shard"] / (len(dataset) / 4))


class TestKeyRangePartitioner:
    """A key-range split with fixed bounds, written as user code against
    the protocol: its numpy ids go through the shared validation,
    balance summary and split."""

    def test_explicit_boundaries(self, dataset):
        bounds = (150_000, 210_000)
        ids = KeyRange("A", bounds).shard_ids(dataset, 3)
        shards = split_dataset(dataset, ids, 3)
        a = [shard.columns["A"] for shard in shards]
        assert np.all(a[0] < 150_000)
        assert np.all((a[1] >= 150_000) & (a[1] < 210_000))
        assert np.all(a[2] >= 210_000)
        assert sum(map(len, a)) == len(dataset)

    def test_quantile_boundaries_balance(self, dataset):
        """Bounds inside the key's range leave no shard empty."""
        summary = _summary(KeyRange("A", (200_000,)), dataset, 2)
        assert summary["empty_shards"] == 0
        assert sum(summary["records"]) == len(dataset)

    def test_skewed_column_still_covers_both_shards(self):
        """A skewed split is reported, not hidden: the summary carries
        the per-shard counts and the largest shard over the mean."""
        summary = _summary(KeyRange("A", (6,)), _key_dataset([5] * 99 + [7]),
                           2)
        assert summary["records"] == [99, 1]
        assert summary["empty_shards"] == 0
        assert summary["imbalance"] == pytest.approx(1.98)

    def test_low_cardinality_caps_live_shards_at_cardinality(self):
        """Two distinct values cannot cover four shards; the first two
        shards take one value each and the rest are knowingly empty."""
        data = _key_dataset([0] * 50 + [1] * 50)
        summary = _summary(KeyRange("A", (1, 2, 3)), data, 4)
        assert summary["empty_shards"] == 2
        assert summary["records"] == [50, 50, 0, 0]
        ids = KeyRange("A", (1, 2, 3)).shard_ids(data, 4)
        assert [len(s) for s in split_dataset(data, ids, 4)] == \
            [50, 50, 0, 0]

    def test_constant_column_lands_on_one_shard(self):
        summary = _summary(KeyRange("A", (10, 20)), _key_dataset([9] * 30),
                           3)
        assert summary["records"] == [30, 0, 0]
        assert summary["empty_shards"] == 2
        assert summary["imbalance"] == 3.0

    @given(values=st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=1, max_size=300),
           n_shards=st.integers(min_value=2, max_value=8))
    def test_derived_split_covers_all_reachable_shards(self, values,
                                                       n_shards):
        """Whatever the skew, each shard of the split holds exactly its
        key range in arrival order, and the summary counts what landed."""
        data = _key_dataset(sorted(values))
        bounds = (-30, -10, 0, 1, 10, 30, 45)[:n_shards - 1]
        ids = KeyRange("A", bounds).shard_ids(data, n_shards)
        assert np.all(np.diff(ids) >= 0)  # sorted keys → sorted shards
        shards = split_dataset(data, ids, n_shards)
        edges = (-np.inf, *bounds, np.inf)
        for index, shard in enumerate(shards):
            keys = shard.columns["A"]
            assert np.all((keys >= edges[index]) & (keys < edges[index + 1]))
            assert np.all(np.diff(shard.timestamps) >= 0)
        summary = _summary(KeyRange("A", bounds), data, n_shards)
        assert summary["records"] == [len(s) for s in shards]
        assert summary["empty_shards"] == sum(not len(s) for s in shards)

    def test_boundary_count_mismatch(self, dataset):
        """Fewer bounds than shards leave the top shards empty: reported
        in the summary, and the run still covers every record."""
        summary = _summary(KeyRange("A", (200_000,)), dataset, 3)
        assert summary["records"][2] == 0
        assert summary["empty_shards"] == 1
        assert sum(summary["records"]) == len(dataset)

    def test_unknown_column(self, dataset):
        """A user partitioner's own error ends the run as itself, before
        any balance is published."""
        queries = QuerySet.counts(["AB"], epoch_seconds=3.0)
        config = Configuration.flat([AttributeSet.parse("AB")])
        system = ShardedStreamSystem(dataset, queries, config,
                                     {AttributeSet.parse("AB"): 8}, shards=2,
                                     partitioner=KeyRange("Z", (0,)))
        with pytest.raises(KeyError, match="Z"):
            system.run()
        assert system.partition_summary is None


class TestSplitDataset:
    def test_partition_covers_stream_in_order(self, dataset):
        ids = RoundRobin().shard_ids(dataset, 3)
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
        ids = RoundRobin().shard_ids(data, 2)
        shards = split_dataset(data, ids, 2)
        assert np.array_equal(shards[0].values["len"],
                              data.values["len"][ids == 0])

    def test_rejects_out_of_range_ids(self, dataset):
        """Ids outside [0, n_shards) and non-integer ids are a typed
        error — the same one, word for word, from ``split_dataset`` and
        ``check_shard_ids``."""
        n = len(dataset)
        too_big = np.full(n, 5)
        negative = np.zeros(n, dtype=np.int64)
        negative[n // 2] = -1
        mixed = np.arange(n) % 3
        mixed[7], mixed[9] = 3, -4
        calls = (lambda ids: split_dataset(dataset, ids, 3),
                 lambda ids: check_shard_ids(ids, 3, n))
        for ids, span in ((too_big, "[5, 5]"), (negative, "[-1, 0]"),
                          (mixed, "[-4, 3]"), (np.zeros(n), "float64")):
            messages = set()
            for call in calls:
                with pytest.raises(ConfigurationError) as refused:
                    call(ids)
                messages.add(str(refused.value))
            assert len(messages) == 1 and span in messages.pop()
        with pytest.raises(ConfigurationError, match="from Mine"):
            check_shard_ids(too_big, 3, source="Mine")

    def test_rejects_wrong_length(self, dataset):
        for ids in (np.zeros(3, dtype=np.int64),
                    np.zeros((len(dataset), 1), dtype=np.int64)):
            with pytest.raises(ConfigurationError, match="shape"):
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

#: The built-in partitioner and two user ones, whose numpy ids reach the
#: same split.
_PARTITIONERS = {
    "hash": HashPartitioner(),
    "round-robin": RoundRobin(),
    "range": KeyRange("A", (-2**40, -1, 0, 1, 2, 2**40)),
}


def _assert_split_agrees(data: Dataset, ids: np.ndarray, n_shards: int):
    """The split == the masked lanes, lane for lane, and every shard is a
    dataset the engine can take as it is."""
    shards = split_dataset(data, ids, n_shards)
    assert len(shards) == n_shards
    for index, shard in enumerate(shards):
        assert shard.schema == data.schema
        keep = ids == index
        lanes = [(shard.timestamps, data.timestamps)]
        lanes += [(shard.columns[a], data.columns[a]) for a in data.columns]
        lanes += [(shard.values[v], data.values[v]) for v in data.values]
        assert shard.values.keys() == data.values.keys()
        for got, source in lanes:
            assert got.dtype == source.dtype
            assert got.flags.c_contiguous
            # arrival order kept; NaN == NaN, -0.0 != 0.0 (bytes moved)
            assert got.tobytes() == source[keep].tobytes()
        assert np.all(np.diff(shard.timestamps) >= 0)


class TestKernelDifferential:
    """The partition kernel against the numpy hash of
    ``tests/references.py``, and the split of its ids."""

    @given(data=streams(), n_shards=st.integers(min_value=1, max_value=7),
           key=st.sampled_from([None, AttributeSet.parse("AB")]),
           salt=st.sampled_from([0x5A2D_51AB, 0, 2**64 - 1, -1]))
    def test_hash_ids_bit_equal(self, data, n_shards, key, salt):
        """int64 attributes are *viewed* as uint64 in C and must wrap
        like numpy's ``astype`` — INT64_MIN/-1/INT64_MAX included."""
        part = HashPartitioner(key, salt)
        ids = part.shard_ids(data, n_shards)
        with numpy_bodies():
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
        with numpy_bodies():
            assert np.array_equal(ids, HashPartitioner().shard_ids(data, 3))
        _assert_split_agrees(data, ids.astype(np.int32), 3)


class TestFactory:
    """No name picks a partitioner: the hash partitioner is the one
    built in, and anything else is an object the caller passes."""

    def test_known_strategies(self):
        import repro
        import repro.parallel
        for module in (repro, repro.parallel):
            assert module.HashPartitioner is HashPartitioner
            for name in ("RoundRobinPartitioner", "KeyRangePartitioner",
                         "make_partitioner", "derive_range_bounds"):
                assert name not in module.__all__
                with pytest.raises(ImportError):
                    exec(f"from {module.__name__} import {name}", {})

    def test_hash_key_parsing(self, dataset):
        """A text key is parsed against the schema like its
        ``AttributeSet``."""
        for n_shards in (2, 5):
            assert np.array_equal(
                HashPartitioner("AB").shard_ids(dataset, n_shards),
                HashPartitioner(AttributeSet.parse("AB")).shard_ids(
                    dataset, n_shards))

    def test_unknown_strategy(self, dataset):
        """A strategy name is not a partitioner: refused when the system
        is built, naming the type."""
        queries = QuerySet.counts(["AB"], epoch_seconds=3.0)
        config = Configuration.flat([AttributeSet.parse("AB")])
        with pytest.raises(ConfigurationError, match="partitioner str"):
            ShardedStreamSystem(dataset, queries, config,
                                {AttributeSet.parse("AB"): 8}, shards=2,
                                partitioner="round-robin")

    def test_range_needs_column(self, capsys):
        """The command line has no partitioner choice left to make."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--data", "trace.npz", "--execute", "--shards", "2",
                  "--partition", "range",
                  "select A, count(*) from R group by A, time/3"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --partition" in err
        assert "--partition-column" not in err


#: Stream lengths around the split's smallest range (2**16 rows); the
#: ranges of the two longest end off the hash's 256-row blocks.
_LENGTHS = (2**16 - 1, 2**16, 2**17 + 3, 10**6 + 7)

#: Shard counts from one to the largest 64-bit one: small odd and prime
#: ones, powers of two and their neighbours, and counts past 2**63.
_SHARD_COUNTS = (1, 2, 3, 7, 2**31 - 1, 2**32 + 1, 2**63 + 1, 2**64 - 1)


class _Calls:
    """The native library, counting the partition hash's ranges: the
    ones the caller hashed and the ones a helper of the pool took."""

    def __init__(self, lib):
        self._lib = lib
        self.here = self.handed = 0

    def __getattr__(self, name):
        entry = getattr(self._lib, name)
        if name == "repro_partition_hash":
            def call(*args):
                self.here += 1
                return entry(*args)
            return call
        if name == "repro_pool_submit":
            def submit(*args):
                took = entry(*args)
                self.handed += took == 0
                return took
            return submit
        return entry


class TestPartitionPass:
    """``hash_shards`` split across cores, byte for byte the numpy chain
    modulo the shard count, and the check-and-count pass against
    ``np.bincount``."""

    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(29)
        n = max(_LENGTHS)
        return [rng.integers(-2**63, 2**63 - 1, n, endpoint=True),
                rng.integers(-5, 5, n)]

    @pytest.mark.parametrize("n", _LENGTHS)
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_hash_ids_bit_equal_on_any_cores(self, columns, cores, n,
                                             monkeypatch):
        cols = [column[:n] for column in columns]
        calls = _Calls(native_library.library())
        monkeypatch.setattr(native_library, "library", lambda: calls)
        with on_cores(cores):
            for n_shards in _SHARD_COUNTS:
                got = native_partition.hash_shards(cols, 0x5A2D_51AB,
                                                   n_shards)
                want = reference_hash_shards(cols, 0x5A2D_51AB, n_shards)
                assert got.dtype == want.dtype == np.int64
                assert got.tobytes() == want.tobytes(), n_shards
        # one range per usable core, each at least 2**16 rows long; the
        # caller hashes the first itself and the pool's free helpers
        # take the rest
        parts = max(1, min(cores, n // native_partition.SPLIT_ROWS))
        assert calls.handed == (parts - 1) * len(_SHARD_COUNTS)
        assert calls.here == len(_SHARD_COUNTS)

    def test_shard_count_out_of_range(self, columns):
        for n_shards in (0, -1, 2**64):
            with pytest.raises(ValueError, match="2\\*\\*64 - 1 shards"):
                native_partition.hash_shards(columns, 0, n_shards)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 1000])
    def test_counts_equal_bincount(self, n_shards):
        ids = np.random.default_rng(n_shards).integers(0, n_shards, 10**5)
        counts, first = native_partition.shard_counts(ids, n_shards)
        assert first == -1
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(ids, minlength=n_shards))

    def test_empty_ids(self):
        counts, first = native_partition.shard_counts(
            np.empty(0, dtype=np.int64), 3)
        assert first == -1 and counts.tolist() == [0, 0, 0]
        ids, counts = check_shard_ids(np.empty(0, dtype=np.uint8), 2)
        assert ids.dtype == np.int64 and ids.size == 0
        assert counts.tolist() == [0, 0]

    @pytest.mark.parametrize("bad", [-1, -2**63, 3, 4, 2**63 - 1])
    def test_first_bad_index(self, bad):
        ids = np.arange(1000, dtype=np.int64) % 3
        ids[[417, 600, 999]] = bad
        assert native_partition.shard_counts(ids, 3)[1] == 417
        ids[0] = bad
        assert native_partition.shard_counts(ids, 3)[1] == 0

    def test_first_bad_index_past_int64(self):
        """uint64 ids of 2**63 or more wrap negative in the one int64
        conversion and fail as negative ids do."""
        for bad in (2**63, 2**64 - 1):
            ids = np.zeros(50, dtype=np.uint64)
            ids[[20, 30]] = bad
            with pytest.raises(ConfigurationError) as refused:
                check_shard_ids(ids, 3)
            assert str(refused.value) == (
                f"shard ids must lie in [0, 3), got range [0, {bad}] "
                "(first bad id at record 20)")
            assert native_partition.shard_counts(ids.astype(np.int64),
                                                 3)[1] == 20

    @pytest.mark.parametrize("n_shards",
                             [2**31 + 1, 2**40, 2**64 - 1, 2**64, 2**70])
    def test_check_refuses_more_shards_than_a_walk_takes(self, n_shards,
                                                         monkeypatch):
        """A shard count past the walk's ``2**31`` ids is refused before
        its counts are allocated."""
        monkeypatch.setattr(native_partition, "shard_counts", None)
        with pytest.raises(ConfigurationError) as refused:
            check_shard_ids(np.zeros(10, dtype=np.int64), n_shards,
                            source="Mine")
        assert str(refused.value) == (
            "shard ids from Mine are checked against at most 2**31 "
            f"shards, the walk's id range, got {n_shards}")

    def test_check_refuses_counts_it_cannot_allocate(self, monkeypatch):
        def no_memory(ids, n_shards):
            raise MemoryError
        monkeypatch.setattr(native_partition, "shard_counts", no_memory)
        with pytest.raises(ConfigurationError) as refused:
            check_shard_ids(np.zeros(10, dtype=np.int64), 2**31)
        assert str(refused.value) == (
            "the record counts of 2147483648 shards do not fit in memory")

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_check_keeps_its_messages(self, dtype):
        """Every integer dtype is converted once to int64 and counted; the
        refusals and their words are those of the dtype's own values."""
        n = 300
        ids = (np.arange(n) % 4).astype(dtype)
        checked, counts = check_shard_ids(ids, 4, n, source="Mine")
        assert checked.dtype == np.int64 and checked.flags.c_contiguous
        assert np.array_equal(checked, ids.astype(np.int64))
        assert counts.tolist() == [75, 75, 75, 75]
        high = np.iinfo(dtype).max
        for bad, low, top in ((4, 0, 4), (high, 0, high)) + (
                ((-1, -1, 3),) if np.iinfo(dtype).min < 0 else ()):
            wrong = ids.copy()
            wrong[[120, 250]] = bad
            with pytest.raises(ConfigurationError) as refused:
                check_shard_ids(wrong, 4, n, source="Mine")
            assert str(refused.value) == (
                f"shard ids from Mine must lie in [0, 4), got range "
                f"[{low}, {top}] (first bad id at record 120)")
        with pytest.raises(ConfigurationError) as refused:
            check_shard_ids(ids[:-1], 4, n, source="Mine")
        assert str(refused.value) == (
            f"shard assignment from Mine has shape ({n - 1},), expected "
            f"({n},): one id per record")
        with pytest.raises(ConfigurationError) as refused:
            check_shard_ids(ids.reshape(2, -1), 4, source="Mine")
        assert str(refused.value) == (
            "shard assignment from Mine has shape (2, 150), expected "
            "(n,): one id per record")
        with pytest.raises(ConfigurationError, match="got dtype float32"):
            check_shard_ids(ids.astype(np.float32), 4, n)
