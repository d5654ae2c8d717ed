"""Tests for the streaming sketches.

Every sketch is updated by the native library's ``repro_kmv_observe``
(``StreamStatisticsCollector.observe``); the numpy reference of
``tests/references.py`` (the unfiltered update, one hash chain per
relation) holds it to the same minima, flags and estimates, byte for
byte."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.sketches import KMVDistinctCounter, StreamStatisticsCollector
from repro.errors import StatisticsError
from repro.gigascope.hashing import combine_columns, splitmix64
from repro.gigascope.records import Dataset, StreamSchema
from repro.workloads import measure_statistics

from tests.references import reference_observe

#: Two relations of one attribute each: the collector salts their
#: sketches 1 and 2 (its first and second relation).
A, B = AttributeSet.parse("A"), AttributeSet.parse("B")


def observed(*batches, k=64, relations=(A,)):
    """A collector over ``relations`` after each batch of values, as
    the column of every attribute, went through ``observe``."""
    collector = StreamStatisticsCollector(relations, k=k)
    for batch in batches:
        values = np.asarray(batch, dtype=np.int64)
        collector.observe({"A": values, "B": values})
    return collector


def sketch_of(*batches, k=64):
    """``A``'s KMV sketch after the batches."""
    return observed(*batches, k=k)._distinct[A]


class TestKMV:
    def test_exact_below_k(self):
        assert sketch_of([1, 2, 3, 2, 1]).estimate() == 3.0

    def test_duplicates_across_batches(self):
        assert sketch_of(np.arange(10), np.arange(10)).estimate() == 10.0

    def test_estimate_accuracy_when_saturated(self):
        rng = np.random.default_rng(0)
        true_distinct = 50_000
        keys = rng.integers(0, true_distinct, size=200_000)
        realized = np.unique(keys).size
        assert sketch_of(keys, k=512).estimate() == pytest.approx(
            realized, rel=0.15)

    def test_merge_equals_union(self):
        """Two overlapping batches in a row leave the sketch of their
        union; sketches of separate substreams are never merged."""
        rng = np.random.default_rng(1)
        left = rng.integers(0, 5000, 20_000)
        right = rng.integers(2500, 7500, 20_000)
        a = sketch_of(left, right, k=128)
        assert_same_sketch(a, sketch_of(np.concatenate([left, right]),
                                        k=128))
        assert not hasattr(a, "merge")

    def test_merge_requires_same_parameters(self):
        """``k`` and the salt decide the sketch: a smaller ``k`` keeps a
        prefix of a larger one's minima, another salt other minima."""
        keys = np.random.default_rng(3).integers(0, 2**40, 5000)
        small = observed(keys, k=64, relations=(A, B))
        large = observed(keys, k=128)
        assert (small._distinct[A].salt, small._distinct[B].salt) == (1, 2)
        assert np.array_equal(small._distinct[A]._minima,
                              large._distinct[A]._minima[:64])
        assert not np.array_equal(small._distinct[A]._minima,
                                  small._distinct[B]._minima)

    def test_rejects_tiny_k(self):
        with pytest.raises(StatisticsError):
            KMVDistinctCounter(k=2)

    def test_empty_update(self):
        assert sketch_of([]).estimate() == 0.0


def flow_length(*batches, timeout=1.0):
    """The planner's flow length of ``A`` over the batches laid back to
    back, one record per second: the exact gap-based count of
    ``measure_statistics``; the sketches estimate no flow lengths."""
    keys = np.concatenate([np.asarray(b, dtype=np.int64) for b in batches])
    data = Dataset(StreamSchema(("A",)), {"A": keys},
                   np.arange(keys.size, dtype=np.float64))
    return measure_statistics(data, ["A"], flow_timeout=timeout) \
        .flow_length(AttributeSet.parse("A"))


class TestRunLength:
    def test_single_batch(self):
        assert flow_length([1, 1, 1, 2, 2, 3]) == 2.0  # 6 records / 3 flows

    def test_runs_spanning_batches(self):
        assert flow_length([1, 1], [1, 2]) == pytest.approx(4 / 2)

    def test_new_run_at_batch_boundary(self):
        assert flow_length([1, 1], [2, 2]) == pytest.approx(4 / 2)
        # A gap past the timeout starts a new flow of the same group.
        assert flow_length([1, 2, 2, 1]) == pytest.approx(4 / 3)

    def test_empty(self):
        with pytest.raises(StatisticsError):
            flow_length([])


class TestCollector:
    def _collector(self, **kwargs):
        rels = [AttributeSet.parse(t) for t in ("A", "B", "AB")]
        return StreamStatisticsCollector(rels, **kwargs)

    def test_statistics_snapshot(self):
        collector = self._collector(k=64)
        rng = np.random.default_rng(2)
        collector.observe({"A": rng.integers(0, 10, 500),
                           "B": rng.integers(0, 5, 500)})
        stats = collector.statistics()
        assert stats.group_count(AttributeSet.parse("A")) == 10
        assert stats.group_count(AttributeSet.parse("B")) == 5
        assert stats.group_count(AttributeSet.parse("AB")) <= 50

    def test_accumulates_across_batches(self):
        collector = self._collector(k=64)
        collector.observe({"A": np.arange(5), "B": np.zeros(5, dtype=int)})
        collector.observe({"A": np.arange(5, 10),
                           "B": np.zeros(5, dtype=int)})
        assert collector.statistics().group_count(
            AttributeSet.parse("A")) == 10
        assert collector.records_seen == 10

    def test_flow_tracking(self):
        """The collector tracks no flows: its statistics plan every
        relation unclustered (l = 1), however long the runs."""
        collector = self._collector(k=64)
        collector.observe({"A": np.array([1, 1, 1, 1]),
                           "B": np.array([7, 7, 8, 8])})
        stats = collector.statistics()
        assert stats.flow_length(AttributeSet.parse("A")) == 1.0
        assert stats.flow_length(AttributeSet.parse("B")) == 1.0
        with pytest.raises(TypeError):
            self._collector(track_flows=True)

    def test_requires_relations(self):
        with pytest.raises(StatisticsError):
            StreamStatisticsCollector([])


@given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
       st.integers(1, 5))
@settings(max_examples=50)
def test_kmv_exact_for_small_cardinalities(values, n_batches):
    """With k above the true cardinality, KMV is exact."""
    chunks = np.array_split(np.array(values, dtype=np.int64), n_batches)
    assert sketch_of(*chunks).estimate() == len(set(values))


def assert_same_sketch(got, want):
    assert got._minima.dtype == want._minima.dtype == np.uint64
    assert got._minima.tobytes() == want._minima.tobytes()
    assert got._saturated == want._saturated
    assert got.estimate() == want.estimate()


def feed(got, want, batch):
    """One batch of values, as ``A`` and ``B``, into ``got`` through the
    library and into ``want`` through the reference; every sketch is
    compared after it."""
    values = np.asarray(batch, dtype=np.int64)
    columns = {"A": values, "B": values}
    got.observe(columns)
    reference_observe(want, columns)
    for rel in want.relations:
        assert_same_sketch(got._distinct[rel], want._distinct[rel])


def feed_both(batches, k):
    """The same batches through the library's filtered update and the
    unfiltered reference, compared after every batch; returns the two
    collectors (relations ``A`` and ``B``)."""
    got, want = (StreamStatisticsCollector([A, B], k=k) for _ in range(2))
    for batch in batches:
        feed(got, want, batch)
    return got, want


@given(st.lists(st.lists(st.integers(0, 40), max_size=30), max_size=8),
       st.lists(st.lists(st.integers(20, 60), max_size=30), max_size=4),
       st.integers(3, 12))
def test_filtered_update_matches_unfiltered_reference(left, right, k):
    """Small key domains around small ``k``: sketches fill, batches repeat
    held minima, and the second run of batches overlaps the first."""
    feed_both(left + right, k)


def key_of(values) -> np.ndarray:
    """The keys values take in ``A``'s sketch: the chain, then the
    sketch's salt."""
    return splitmix64(combine_columns([np.asarray(values, dtype=np.int64)])
                      ^ np.uint64(1))


class TestKMVThresholdFilter:
    """A sketch holding exactly ``k`` minima, then one batch of each kind."""

    K = 8

    def keys_by_hash(self):
        """Values ranked by their key in ``A``'s sketch."""
        values = np.arange(64, dtype=np.int64)
        return values[np.argsort(key_of(values))]

    def step(self, keys):
        """Both collectors holding the values ranked 4..11 in ``A``
        (room below), then ``keys``: ``A``'s sketch and its minima
        before."""
        got, want = feed_both([self.keys_by_hash()[4:4 + self.K]], self.K)
        sketch = got._distinct[A]
        assert len(sketch) == self.K and not sketch._saturated
        before = sketch._minima.copy()
        feed(got, want, keys)
        return sketch, before

    def test_empty_and_held_keys_leave_it_exact(self):
        ranked = self.keys_by_hash()
        for keys in (ranked[:0],                 # empty batch
                     ranked[11:12],              # only the k-th minimum
                     np.repeat(ranked[11], 50),  # ... many times over
                     np.tile(ranked[4:12], 3)):  # all duplicates
            got, before = self.step(keys)
            assert not got._saturated
            assert got.estimate() == self.K
            assert np.array_equal(got._minima, before)

    def test_new_key_above_the_kth_saturates_without_changing_minima(self):
        got, before = self.step(self.keys_by_hash()[12:13])
        assert got._saturated
        assert np.array_equal(got._minima, before)

    def test_new_key_below_the_kth_replaces_it(self):
        ranked = self.keys_by_hash()
        got, before = self.step(ranked[:1])
        assert got._saturated
        assert got._minima[0] == key_of(ranked[:1])[0]
        assert np.array_equal(got._minima[1:], before[:-1])


EXTREMES = np.array([np.iinfo(np.int64).min, -1, 0, 1,
                     np.iinfo(np.int64).max], dtype=np.int64)


@given(st.integers(0, 2 ** 32 - 1))
def test_observe_matches_per_relation_hashing(seed):
    """The library's one hash pass per batch against one chain per
    relation: int64 extremes, relations joining through ``ensure``."""
    rng = np.random.default_rng(seed)
    parse = AttributeSet.parse
    first = [parse(t) for t in ("A", "C", "AB", "BC", "ABC", "BCD")]
    later = [parse(t) for t in ("D", "AD", "ABD", "ABCD")]
    got = StreamStatisticsCollector(first, k=8)
    want = StreamStatisticsCollector(first, k=8)
    for batch in range(6):
        if batch == 3:
            assert got.ensure(later) == want.ensure(later) == later
        n = int(rng.integers(0, 40))
        columns = {name: np.concatenate([
            rng.choice(EXTREMES, n // 2),
            rng.integers(-3, 4, n - n // 2)]) for name in "ABCD"}
        got.observe(columns)
        reference_observe(want, columns)
        assert got.records_seen == want.records_seen
        assert got.relations == want.relations
        for rel in want.relations:
            assert_same_sketch(got._distinct[rel], want._distinct[rel])
        assert got.statistics() == want.statistics()


#: Batch lengths around every ``HASH_BLOCK`` (256) edge of the library.
BATCH_LENGTHS = [0, 1, 255, 256, 257, 2048]


def _column(rng, domain, n):
    """``n`` values of one attribute: int64 extremes, the full int64
    range, or ``domain`` small values (so sketches fill to exactly k,
    one short of it or one past it, and batches repeat held minima)."""
    if domain == "extremes":
        return rng.choice(EXTREMES, n)
    if domain == "wide":
        return rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            n, dtype=np.int64, endpoint=True)
    return rng.integers(-1, domain - 1, n)


@pytest.mark.parametrize("k", [3, 4, 8, 256])
@given(data=st.data())
def test_library_observe_matches_the_numpy_body(k, data):
    """``repro_kmv_observe`` against the numpy reference, after every batch:
    every sketch's minima (bytes), saturated flag and estimate, the
    records seen and the snapshot; relations join through ``ensure``
    between batches."""
    parse = AttributeSet.parse
    first = [parse(t) for t in ("A", "C", "AB", "BC", "ABC", "BCD")]
    later = [parse(t) for t in ("D", "AD", "ABD", "ABCD")]
    domains = {name: data.draw(st.sampled_from(
        ["extremes", "wide", 1, k - 1, k, k + 1]), label=name)
        for name in "ABCD"}
    lengths = data.draw(st.lists(st.sampled_from(BATCH_LENGTHS),
                                 min_size=1, max_size=6), label="lengths")
    join = data.draw(st.integers(0, len(lengths)), label="join")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    got = StreamStatisticsCollector(first, k=k)
    want = StreamStatisticsCollector(first, k=k)
    for batch, n in enumerate(lengths):
        if batch == join:
            assert got.ensure(later) == want.ensure(later) == later
        columns = {name: _column(rng, domain, n)
                   for name, domain in domains.items()}
        got.observe(columns)
        reference_observe(want, columns)
        assert got.records_seen == want.records_seen
        assert got.relations == want.relations
        for rel in want.relations:
            assert_same_sketch(got._distinct[rel], want._distinct[rel])
        assert got.statistics() == want.statistics()


def _unmix(z: int) -> int:
    """The inverse of the splitmix64 finalizer, on Python ints."""
    mask = 2 ** 64 - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2 ** 64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


def test_library_observe_keeps_the_largest_key():
    """A value whose KMV key is 2**64 - 1, the largest a key can be,
    enters a sketch that is not full, in the library as in numpy."""
    rel = AttributeSet.parse("A")
    salt = int(KMVDistinctCounter(salt=1).salt)  # the first relation's
    code = _unmix(2 ** 64 - 1) ^ salt
    value = _unmix(code) ^ int(splitmix64(np.uint64(0)))
    columns = {"A": np.array([value, 7, value], dtype=np.uint64)
               .view(np.int64)}
    got = StreamStatisticsCollector([rel], k=3)
    want = StreamStatisticsCollector([rel], k=3)
    got.observe(columns)
    reference_observe(want, columns)
    assert want._distinct[rel]._minima[-1] == 2 ** 64 - 1
    assert_same_sketch(got._distinct[rel], want._distinct[rel])
