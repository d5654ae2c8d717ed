"""Differential equivalence of the fused C ingest kernel.

The native accounting pass (:mod:`repro.native.ingest`) promises answers
and cost counters *bit-identical* to the numpy engine path — the
accounting pass is the paper's measured quantity, so "close" is not
good enough. Hypothesis generates workloads and every one is run with
``native=True`` and ``native=False`` — directly and through the sharded
system — and compared field by field.

When no C compiler is available (or ``REPRO_NO_CKERNEL=1`` is set, the
CI matrix leg), ``native=True`` falls back to the numpy path and the
differential tests degenerate to numpy-vs-numpy — still green, which is
exactly the opt-out contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configuration import Configuration
from repro.core.queries import QuerySet
from repro.gigascope import Dataset, StreamSchema, StreamSystem, simulate
from repro.native import build as native_build
from repro.native import ingest as native_ingest
from repro.native import machine_info
from repro.native import partition as native_partition
from repro.parallel import HashPartitioner, ShardedStreamSystem, split_dataset

SCHEMA = StreamSchema(("A", "B", "C"), value_columns=("v",))

CONFIGS = [
    "AB",
    "A B",
    "AB BC",
    "ABC(AB BC)",
    "ABC(AB(A B) C)",
]

needs_kernel = pytest.mark.skipif(
    not native_ingest.kernel_available(),
    reason="no C compiler available (or REPRO_NO_CKERNEL set)")


def _dataset(seed: int, n: int, domain: int, duration: float,
             clustered: bool) -> Dataset:
    rng = np.random.default_rng(seed)
    if clustered:
        n_runs = max(1, n // 5)
        lengths = rng.integers(1, 10, n_runs)
        cols = {name: np.repeat(rng.integers(0, domain, n_runs),
                                lengths)[:n]
                for name in SCHEMA.attributes}
        n = len(next(iter(cols.values())))
    else:
        cols = {name: rng.integers(0, domain, n)
                for name in SCHEMA.attributes}
    return Dataset(SCHEMA, cols, np.sort(rng.uniform(0, duration, n)),
                   {"v": rng.uniform(40, 1500, n)})


workloads = st.fixed_dictionaries({
    "notation": st.sampled_from(CONFIGS),
    "seed": st.integers(0, 2**16),
    "n": st.integers(50, 600),
    "domain": st.integers(2, 6),
    "duration": st.sampled_from([1.0, 4.0, 9.0]),
    "epoch_seconds": st.sampled_from([0.7, 1.3, 2.5]),
    "buckets": st.integers(2, 17),
    "clustered": st.booleans(),
    "values": st.booleans(),
})


def _run(workload, native):
    config = Configuration.from_notation(workload["notation"])
    dataset = _dataset(workload["seed"], workload["n"],
                       workload["domain"], workload["duration"],
                       workload["clustered"])
    buckets = {rel: workload["buckets"] + 2 * i
               for i, rel in enumerate(config.relations)}
    return config, simulate(
        dataset, config, buckets, workload["epoch_seconds"],
        value_column="v" if workload["values"] else None,
        native=native)


def _answers(result, config):
    return {
        (leaf, epoch): result.hfta.totals(leaf, epoch)
        for leaf in config.leaves
        for epoch in result.hfta.epochs(leaf)
    }


def _assert_equal_runs(ref, ref_config, got, got_config):
    assert got.counters.relations == ref.counters.relations
    assert _answers(got, got_config) == _answers(ref, ref_config)
    assert got.n_records == ref.n_records
    assert got.n_epochs == ref.n_epochs


class TestKernelDifferential:
    @given(workload=workloads)
    def test_native_matches_numpy(self, workload):
        """Answers (including float sums) and every per-relation counter
        are bit-identical between the kernel and the numpy path."""
        config, ref = _run(workload, native=False)
        got_config, got = _run(workload, native=True)
        _assert_equal_runs(ref, config, got, got_config)


class TestShardedDifferential:
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_native_agrees_sharded_and_single(self, data):
        """A sharded native run's answers and merged counters equal the
        sharded numpy run's, and its answers the unsharded system's,
        example by example — on a flat configuration of the drawn
        queries and on a three-level forest (fed relations reach the
        kernel in parent emission order)."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        domain = data.draw(st.integers(3, 6), label="domain")
        labels = data.draw(
            st.sets(st.sampled_from(["A", "B", "AB", "BC", "AC"]),
                    min_size=1, max_size=3),
            label="queries")
        flat = QuerySet.counts(sorted(labels), epoch_seconds=2.5)
        forest = Configuration.from_notation("ABC(AB(A B) BC)")
        dataset = _dataset(seed, 800, domain, 8.0, clustered=False)

        for queries, config in (
                (flat, Configuration.flat([q.group_by for q in flat])),
                (QuerySet.counts(["A", "B", "BC"], epoch_seconds=2.5),
                 forest)):
            buckets = {rel: 5 for rel in config.relations}
            reports = {}
            for native in (False, True):
                system = ShardedStreamSystem(
                    dataset, queries, config, buckets, shards=2,
                    native=native)
                reports[native] = system.run()
            ref, got = reports[False], reports[True]
            single = StreamSystem(dataset, queries, config, buckets).run()
            for query in queries:
                assert got.answers(query) == ref.answers(query)
                assert got.answers(query) == single.answers(query)
                assert ref.answers(query)
            assert got.result.counters.relations == \
                ref.result.counters.relations
            assert got.result.n_records == ref.result.n_records
            assert got.result.n_epochs == ref.result.n_epochs


class TestDegenerateShapes:
    """The kernel shapes most likely to break a fused pass, each pinned
    counter- and answer-identical to the numpy path."""

    def _compare(self, config, dataset, buckets, epoch_seconds,
                 value_column=None):
        ref = simulate(dataset, config, buckets, epoch_seconds,
                       value_column=value_column, native=False)
        got = simulate(dataset, config, buckets, epoch_seconds,
                       value_column=value_column, native=True)
        _assert_equal_runs(ref, config, got, config)
        return ref, got

    def test_empty_dataset(self):
        config = Configuration.from_notation("AB")
        dataset = Dataset(SCHEMA,
                          {a: np.array([], dtype=np.int64)
                           for a in SCHEMA.attributes},
                          np.array([], dtype=np.float64),
                          {"v": np.array([], dtype=np.float64)})
        buckets = {rel: 4 for rel in config.relations}
        ref, got = self._compare(config, dataset, buckets, 1.0,
                                 value_column="v")
        assert got.n_records == 0

    def test_empty_epochs_between_batches(self):
        """Timestamp gaps leave whole epochs without records; the
        per-epoch kernel calls must skip them identically."""
        config = Configuration.from_notation("ABC(AB BC)")
        times = np.array([0.1, 0.2, 5.3, 5.4, 20.9], dtype=np.float64)
        cols = {a: np.array([1, 2, 1, 2, 3]) for a in SCHEMA.attributes}
        dataset = Dataset(SCHEMA, cols, times,
                          {"v": np.linspace(1.0, 5.0, 5)})
        buckets = {rel: 3 for rel in config.relations}
        self._compare(config, dataset, buckets, 1.0, value_column="v")

    def test_single_record_batches(self):
        config = Configuration.from_notation("AB BC")
        dataset = _dataset(3, 1, 2, 1.0, clustered=False)
        buckets = {rel: 7 for rel in config.relations}
        self._compare(config, dataset, buckets, 0.5, value_column="v")

    def test_all_records_collide(self):
        """Every record a distinct group, one bucket: every intra-epoch
        arrival after the first evicts the resident."""
        config = Configuration.from_notation("ABC")
        n = 64
        cols = {a: np.arange(n) * (i + 1)
                for i, a in enumerate(SCHEMA.attributes)}
        dataset = Dataset(SCHEMA, cols,
                          np.linspace(0.0, 0.9, n),
                          {"v": np.linspace(1.0, 2.0, n)})
        buckets = {rel: 1 for rel in config.relations}
        ref, _ = self._compare(config, dataset, buckets, 1.0,
                               value_column="v")
        (counters,) = ref.counters.relations.values()
        assert counters.evictions_intra == n - 1

    def test_b1_tables_deep_forest(self):
        config = Configuration.from_notation("ABC(AB(A B) C)")
        dataset = _dataset(11, 200, 3, 4.0, clustered=True)
        buckets = {rel: 1 for rel in config.relations}
        self._compare(config, dataset, buckets, 1.3, value_column="v")

    def test_max_width_packed_keys(self):
        """Eight wide-domain attributes force the numpy path's
        ``pack_tuples`` through its radix re-factorization; the kernel's
        per-column equality loop must agree exactly."""
        names = tuple("ABCDEFGH")
        schema = StreamSchema(names, value_columns=("v",))
        config = Configuration.flat([schema.attribute_set("ABCDEFGH")])
        rng = np.random.default_rng(5)
        n = 300
        cols = {a: rng.integers(-2**40, 2**40, n) for a in names}
        dataset = Dataset(schema, cols, np.sort(rng.uniform(0, 3.0, n)),
                          {"v": rng.uniform(0, 10, n)})
        buckets = {rel: 9 for rel in config.relations}
        self._compare(config, dataset, buckets, 1.0, value_column="v")

    @needs_kernel
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_values_propagate_like_numpy(self):
        """np.minimum/np.maximum let NaN win; the kernel's min/max must
        reproduce that, not IEEE fmin/fmax."""
        config = Configuration.from_notation("AB")
        n = 40
        rng = np.random.default_rng(9)
        cols = {a: rng.integers(0, 3, n) for a in SCHEMA.attributes}
        vals = rng.uniform(0, 100, n)
        vals[::7] = np.nan
        dataset = Dataset(SCHEMA, cols, np.sort(rng.uniform(0, 2.0, n)),
                          {"v": vals})
        buckets = {rel: 2 for rel in config.relations}
        ref = simulate(dataset, config, buckets, 0.9, value_column="v",
                       native=False)
        got = simulate(dataset, config, buckets, 0.9, value_column="v",
                       native=True)
        assert got.counters.relations == ref.counters.relations
        for leaf in config.leaves:
            assert ref.hfta.epochs(leaf) == got.hfta.epochs(leaf)
            for epoch in ref.hfta.epochs(leaf):
                a, b = (r.hfta.totals(leaf, epoch) for r in (ref, got))
                assert a.keys() == b.keys()
                for group in a:
                    np.testing.assert_array_equal(
                        np.asarray(a[group], dtype=np.float64),
                        np.asarray(b[group], dtype=np.float64))


class TestBuildMachinery:
    def test_failed_compile_warns_once_and_records_error(self, monkeypatch):
        import warnings

        monkeypatch.delenv(native_build.DISABLE_ENV, raising=False)
        name = "test_bad_source_kernel"
        native_build._statuses.pop(name, None)
        with pytest.warns(RuntimeWarning, match=name):
            assert native_build.load_kernel(name, "this is not C") is None
        status = native_build.kernel_status(name)
        assert status is not None and not status.available
        assert status.error
        # Second load: cached failure, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native_build.load_kernel(name, "this is not C") is None
        # The same failure inside a kernel module: the partition kernel's
        # callers degrade to their numpy bodies with identical output.
        name = native_partition.KERNEL_NAME
        dataset = _dataset(3, 500, 40, 4.0, clustered=False)
        native_partition.kernel_available()
        ids = HashPartitioner().shard_ids(dataset, 3)
        shards = split_dataset(dataset, ids, 3)
        monkeypatch.setattr(native_partition, "_SOURCE", "this is not C")
        monkeypatch.setattr(native_partition, "_tried", False)
        monkeypatch.setattr(native_partition, "_lib", None)
        monkeypatch.delitem(native_build._statuses, name)
        monkeypatch.delitem(native_build._libs, name, raising=False)
        with pytest.warns(RuntimeWarning, match=name):
            assert not native_partition.kernel_available()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(HashPartitioner().shard_ids(dataset, 3),
                                  ids)
            for got, want in zip(split_dataset(dataset, ids, 3), shards):
                assert np.array_equal(got.timestamps, want.timestamps)
                assert np.array_equal(got.values["v"], want.values["v"])
        status = machine_info(probe=False)["kernels"][name]
        assert not status["available"] and not status["disabled"]
        assert status["error"]

    def test_opt_out_env_suppresses_attempt(self, monkeypatch):
        monkeypatch.setenv(native_build.DISABLE_ENV, "1")
        name = "test_disabled_kernel"
        native_build._statuses.pop(name, None)
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("error")  # opting out must not warn
            assert native_build.load_kernel(name, "int x;") is None
        status = native_build.kernel_status(name)
        assert status.disabled and not status.available

    @needs_kernel
    def test_ingest_kernel_reports_available(self):
        status = native_build.kernel_status(native_ingest.KERNEL_NAME)
        assert status is not None and status.available
        assert status.compiler

    def test_machine_info_shape(self):
        info = machine_info()
        assert set(info) >= {"platform", "python", "numpy", "cpu_count",
                             "compiler", "c_kernel", "kernels"}
        assert "engine_ingest" in info["kernels"]
        assert "es_descend" in info["kernels"]
        assert native_partition.KERNEL_NAME in info["kernels"]
        for status in info["kernels"].values():
            assert set(status) == {"available", "disabled", "compiler",
                                   "error"}

    def test_manifest_carries_machine_diagnostics(self):
        from repro.observability import RunManifest

        manifest = RunManifest.collect(git_sha=False)
        doc = manifest.to_dict()
        assert doc["machine"]["kernels"].keys() >= {
            "engine_ingest", "es_descend", native_partition.KERNEL_NAME}
        assert isinstance(doc["machine"]["c_kernel"], bool)
