"""The ingest kernel's degenerate shapes, and the shared build machinery.

NaN values through the kernel against the numpy path (every other
degenerate stream runs against the sequential reference on both kernel
modes in ``test_differential.py``), and the tests of
:mod:`repro.native.build`: one load attempt and one warning per kernel,
the opt-out, the on-disk cache.
"""

import ctypes
import stat
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.gigascope import Dataset, simulate
from repro.native import build as native_build
from repro.native import ingest as native_ingest
from repro.native import machine_info
from repro.native import partition as native_partition
from repro.parallel import HashPartitioner, split_dataset
from tests.conftest import needs_kernel, numpy_kernels_off
from tests.references import ABC_SCHEMA as SCHEMA, abc_stream as _dataset


class TestDegenerateShapes:
    """NaN values, the kernel shape the engine differential cannot pin
    against the sequential reference (its min/max are plain floats); the
    other degenerate streams run in ``test_differential.py``."""

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
        got = simulate(dataset, config, buckets, 0.9, value_column="v")
        with numpy_kernels_off():
            ref = simulate(dataset, config, buckets, 0.9, value_column="v")
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


_ANSWER = {"repro_answer": (ctypes.c_int, [])}
_ANSWER_SOURCE = "int repro_answer(void) { return %d; }"


class TestBuildMachinery:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        """Each test starts as a new process would: nothing attempted."""
        monkeypatch.setattr(native_build, "_statuses", {})

    def test_failed_compile_warns_once_and_records_error(self, monkeypatch):
        monkeypatch.delenv(native_build.DISABLE_ENV, raising=False)
        name = "test_bad_source_kernel"
        with pytest.warns(RuntimeWarning, match=name):
            assert native_build.load_kernel(name, "this is not C", {}) is None
        status = native_build.kernel_status(name)
        assert status is not None and not status.available
        assert status.error
        # Second load: cached failure, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native_build.load_kernel(name, "this is not C", {}) is None
        # The same failure inside a kernel module: the partition kernel's
        # callers degrade to their numpy bodies with identical output.
        name = native_partition.KERNEL_NAME
        dataset = _dataset(3, 500, 40, 4.0, clustered=False)
        ids = HashPartitioner().shard_ids(dataset, 3)
        shards = split_dataset(dataset, ids, 3)
        monkeypatch.setattr(native_partition, "_SOURCE", "this is not C")
        native_build._statuses.pop(name, None)  # forget the good load
        with pytest.warns(RuntimeWarning, match=name):
            assert not native_partition.kernel_available()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(HashPartitioner().shard_ids(dataset, 3),
                                  ids)
            for got, want in zip(split_dataset(dataset, ids, 3), shards):
                assert np.array_equal(got.timestamps, want.timestamps)
                assert np.array_equal(got.values["v"], want.values["v"])
        status = machine_info()["kernels"][name]
        assert not status["available"] and not status["disabled"]
        assert status["error"]

    def test_opt_out_env_suppresses_attempt(self, monkeypatch):
        monkeypatch.setenv(native_build.DISABLE_ENV, "1")
        name = "test_disabled_kernel"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # opting out must not warn
            assert native_build.load_kernel(name, "int x;", {}) is None
        status = native_build.kernel_status(name)
        assert status.disabled and not status.available

    @needs_kernel
    @pytest.mark.parametrize("planted", ["corrupt", "group-writable"])
    def test_bad_cache_file_is_rebuilt_not_loaded(self, planted,
                                                  monkeypatch, tmp_path):
        """A truncated cache file must not disable the kernel for every
        later process, and a file somebody else could have written under
        the predictable name must not be loaded at all."""
        monkeypatch.delenv(native_build.DISABLE_ENV, raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        name, source = "test_cache_kernel", _ANSWER_SOURCE % 42
        cache = native_build._cache_path(name, source,
                                         native_build.DEFAULT_FLAGS)
        if planted == "corrupt":
            cache.write_bytes(b"\x7fELF, then nothing")
        else:
            assert native_build._compile(
                native_build.compiler_path(), name, _ANSWER_SOURCE % 7,
                native_build.DEFAULT_FLAGS, cache,
                native_build.KernelStatus(name))
            cache.chmod(0o775)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lib = native_build.load_kernel(name, source, _ANSWER)
        assert lib is not None and lib.repro_answer() == 42
        assert native_build.kernel_status(name).available
        assert not cache.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        # The next process finds a file it can load.
        monkeypatch.setattr(native_build, "_statuses", {})
        built = cache.stat().st_mtime_ns
        assert native_build.load_kernel(name, source, _ANSWER) is not None
        assert cache.stat().st_mtime_ns == built

    @needs_kernel
    def test_ingest_kernel_reports_available(self):
        assert native_ingest.kernel_available()
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
