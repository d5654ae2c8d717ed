"""The ingest kernel's degenerate shapes, and the shared build machinery.

NaN values and the edges of the kernel's hash blocks through the walk
of a one-relation forest against the numpy path (every other degenerate
stream runs against the sequential reference on both kernel modes in
``test_differential.py``, whole forests in ``test_forest_walk.py``),
and the tests of :mod:`repro.native.build`: one load attempt and one
warning per kernel, the opt-out, the on-disk cache, racing first
compiles, a compiler gone before the first load, and every kernel
source compiling without a warning.
"""

import ctypes
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.gigascope import Dataset, simulate
from repro.gigascope.engine import _process_relation
from repro.gigascope.hashing import bucket_indices, relation_salt
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import CostCounters
from repro.native import build as native_build
from repro.native import ingest as native_ingest
from repro.native import machine_info
from repro.native import merge as native_merge
from repro.native import partition as native_partition
from repro.parallel import HashPartitioner, split_dataset
from tests.conftest import needs_kernel, numpy_kernels_off
from tests.hfta_totals import totals
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
                a, b = (totals(r.hfta, leaf, epoch) for r in (ref, got))
                assert a.keys() == b.keys()
                for group in a:
                    np.testing.assert_array_equal(
                        np.asarray(a[group], dtype=np.float64),
                        np.asarray(b[group], dtype=np.float64))


#: The kernel hashes this many arrivals ahead of its probe loop.
_BLOCK = 64
_AB = AttributeSet.parse("AB")


def _block_edge_stream(m, n_buckets, edge, salt, seed):
    """``m`` arrivals of two small-domain key columns in which, at every
    block edge, either one run spans the edge (``edge="run"``) or the
    first arrival of the block evicts the resident of its bucket
    (``edge="collide"``)."""
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, 5, (2, m))
    for start in range(_BLOCK, m, _BLOCK):
        if edge == "run":
            cols[:, start - 3:start + 3] = cols[:, [start - 3]]
            continue
        resident = cols[:, start - 1]
        a, b = np.divmod(np.arange(100_000), 300)
        same = bucket_indices([a, b], salt, n_buckets) == bucket_indices(
            [resident[:1], resident[1:]], salt, n_buckets)[0]
        same &= (a != resident[0]) | (b != resident[1])
        pick = np.flatnonzero(same)[0]
        cols[:, start] = a[pick], b[pick]
    return cols


class TestBlockEdges:
    """The kernel hashes a block of arrivals before probing it. Runs and
    collisions across block edges, through the walk of a one-relation
    forest, must come out as the numpy path's, bit for bit: the kernel's
    fold of its runs equals the HFTA's fold of the numpy runs."""

    @needs_kernel
    @pytest.mark.parametrize("values", [False, True])
    @pytest.mark.parametrize("edge", ["run", "collide"])
    @pytest.mark.parametrize("n_buckets", [1, 2, 7, 4205])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129, 1000])
    def test_kernel_equals_numpy(self, m, n_buckets, edge, values):
        salt = relation_salt(_AB.label(), m)
        cols = _block_edge_stream(m, n_buckets, edge, salt, seed=m)
        rng = np.random.default_rng(n_buckets)
        t = np.arange(m, dtype=np.int64)
        w = rng.integers(1, 5, m)
        vs = None
        if values:
            vs = rng.uniform(40, 1500, m)
        counters = CostCounters(Configuration.from_notation("AB"))
        with numpy_kernels_off():
            want = _process_relation(
                _AB, t, w, vs, vs, vs, {"A": cols[0], "B": cols[1]},
                m, np.int64(m + n_buckets + 2), n_buckets, salt, 0,
                counters, times_sorted=True)
            hfta = HFTA()
            hfta.ingest_arrays(_AB, 0, want[5], *want[1:5])
            state = hfta.totals_columnar(_AB, 0)
        walk = native_ingest.Walk([-1], [[0, 1]], [salt], [n_buckets],
                                  [True], values, m)
        walk.bind([cols[0], cols[1]], vs)
        (fold,) = native_ingest.ingest_runs(walk, 0, t, w)
        c = counters.counters(_AB)
        assert fold.relation == 0 and fold.runs == want[1].shape[0]
        assert walk.stats.tolist() == [[
            c.arrivals_intra, c.arrivals_flush, c.evictions_intra,
            c.evictions_flush]]
        for got, ref in zip(fold[2:6], (state.counts, state.value_sums,
                                        state.value_mins,
                                        state.value_maxs)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(cols[0][fold.reps], state.columns[0])
        np.testing.assert_array_equal(cols[1][fold.reps], state.columns[1])


@pytest.mark.skipif(
    native_build.compiler_path() is None
    or native_build.kernels_disabled(),
    reason="no C compiler available (or REPRO_NO_CKERNEL set)")
@pytest.mark.parametrize("module", [native_ingest, native_merge,
                                    native_partition],
                         ids=lambda module: module.__name__)
def test_kernel_source_compiles_without_warnings(module, tmp_path):
    """Every kernel builds clean under ``-Wall -Wextra -Werror`` with the
    flags it ships with."""
    source = tmp_path / "kernel.c"
    source.write_text(module._SOURCE)
    result = subprocess.run(
        [native_build.compiler_path(), *native_build.DEFAULT_FLAGS,
         "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"),
         str(source)], capture_output=True, text=True, timeout=60.0)
    assert result.returncode == 0, result.stderr


_ROOT = Path(__file__).resolve().parents[2]

#: A small three-level run whose counters and answers come out as JSON.
_RUN_SOURCE = """
def racer_run():
    import numpy as np
    from repro.core.configuration import Configuration
    from repro.gigascope import Dataset, StreamSchema, simulate
    rng = np.random.default_rng(3)
    n = 3000
    schema = StreamSchema(("A", "B", "C"), value_columns=("v",))
    dataset = Dataset(schema, {a: rng.integers(0, 9, n) for a in "ABC"},
                      np.sort(rng.uniform(0, 4.0, n)),
                      {"v": rng.uniform(0, 100, n)})
    config = Configuration.from_notation("ABC(AB(A B) C)")
    result = simulate(dataset, config, {rel: 5 for rel in config.relations},
                      1.0, "v")
    counters = {rel.label(): vars(c)
                for rel, c in result.counters.relations.items()}

    def groups(leaf, epoch):
        state = result.hfta.totals_columnar(leaf, epoch)
        return zip(state.group_tuples(), state.counts.tolist(),
                   state.value_sums.tolist())

    totals = {f"{leaf.label()}@{epoch}": sorted(
                  [list(group), count, value_sum.hex()]
                  for group, count, value_sum in groups(leaf, epoch))
              for leaf in config.leaves for epoch in result.hfta.epochs(leaf)}
    return {"counters": counters, "totals": totals}
"""

_RACER = _RUN_SOURCE + """
import json
from repro.native import build, ingest
run = racer_run()
status = build.kernel_status(ingest.KERNEL_NAME).to_dict()
print(json.dumps({"status": {key: status[key] for key in
                             ("available", "disabled", "error")},
                  "run": run}))
"""


def _racer_run() -> dict:
    namespace: dict = {}
    exec(_RUN_SOURCE, namespace)
    return namespace["racer_run"]()


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
    def test_racing_first_compiles_agree(self, tmp_path):
        """Two processes that find no cached ingest kernel in a fresh
        ``TMPDIR`` compile it at the same time: both load it, and both
        runs equal this process's."""
        env = {key: value for key, value in os.environ.items()
               if key != native_build.DISABLE_ENV}
        env["TMPDIR"] = str(tmp_path)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_ROOT / "src"), str(_ROOT)] +
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        racers = [subprocess.Popen([sys.executable, "-c", _RACER],
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
                  for _ in range(2)]
        outputs = []
        for racer in racers:
            out, err = racer.communicate(timeout=300)
            assert racer.returncode == 0, err
            outputs.append(json.loads(out))
        assert [o["status"] for o in outputs] == [
            {"available": True, "disabled": False, "error": None}] * 2
        assert outputs[0]["run"] == outputs[1]["run"] == _racer_run()
        assert list(tmp_path.glob(
            f"repro_kernel_{native_ingest.KERNEL_NAME}_*.so"))

    @needs_kernel
    def test_compiler_gone_before_first_load(self, monkeypatch):
        """The compiler vanishes before the ingest kernel's first load:
        one warning, the error on record, the numpy walk's answers, which
        are the kernel's."""
        for module in (native_merge, native_partition):
            assert module.kernel_available()
        with pytest.MonkeyPatch.context() as patch, \
                warnings.catch_warnings(record=True) as caught:
            patch.setattr(native_build, "compiler_path", lambda: None)
            warnings.simplefilter("always")
            run = _racer_run()
        assert [type(w.message) for w in caught] == [RuntimeWarning]
        assert native_ingest.KERNEL_NAME in str(caught[0].message)
        status = native_build.kernel_status(native_ingest.KERNEL_NAME)
        assert not status.available and status.error
        native_build._statuses.pop(native_ingest.KERNEL_NAME)
        assert native_ingest.kernel_available()
        assert run == _racer_run()

    def test_concurrent_first_loads_wait_for_the_build(self, monkeypatch):
        """Threads asking for a kernel while another thread's first build
        is under way wait for that build: all get the library, from one
        build, with no warning."""
        monkeypatch.delenv(native_build.DISABLE_ENV, raising=False)
        library, builds = object(), []
        building, release = threading.Event(), threading.Event()

        def slow_build(name, source, flags, status):
            builds.append(name)
            building.set()
            release.wait(10.0)
            return library

        monkeypatch.setattr(native_build, "_build_and_load", slow_build)
        got = []

        def load():
            got.append(native_build.load_kernel("test_slow_kernel", "", {}))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = threading.Thread(target=load)
            first.start()
            assert building.wait(10.0)
            waiting = [threading.Thread(target=load) for _ in range(7)]
            for thread in waiting:
                thread.start()
            waiting[0].join(0.2)
            assert not got  # waiting, not handed a None
            release.set()
            for thread in [first, *waiting]:
                thread.join(10.0)
                assert not thread.is_alive()
        assert got == [library] * 8
        assert builds == ["test_slow_kernel"]
        assert caught == []
        assert native_build.kernel_status("test_slow_kernel").available

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
        assert native_partition.KERNEL_NAME in info["kernels"]
        for status in info["kernels"].values():
            assert set(status) == {"available", "disabled", "compiler",
                                   "error"}

    def test_manifest_carries_machine_diagnostics(self):
        from repro.observability import RunManifest

        manifest = RunManifest.collect(git_sha=False)
        doc = manifest.to_dict()
        assert doc["machine"]["kernels"].keys() >= {
            "engine_ingest", native_partition.KERNEL_NAME}
        assert isinstance(doc["machine"]["c_kernel"], bool)
