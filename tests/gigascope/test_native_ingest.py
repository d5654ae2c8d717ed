"""The ingest walk's degenerate shapes, the build machinery and the one
native library.

NaN values and the edges of the walk's hash blocks through a
one-relation forest against the reference numpy walk (every other
degenerate stream runs against the sequential reference in
``test_differential.py``, whole forests in ``test_forest_walk.py``),
and the tests of :mod:`repro.native.build` and
:mod:`repro.native.library`: one load attempt per kernel, the on-disk
cache, racing first compiles that leave one shared object, the library
as the only body (a bad source, a vanished compiler or none at all:
every product entry raises ``NativeLibraryError`` with the compiler's
message, no warning, no numpy result), and the library's source
compiling without a warning.
"""

import ctypes
import json
import multiprocessing
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
from hypothesis import given, strategies as st

import repro.native
from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro import RelationStatistics, plan
from repro.cli import main as plan_main
from repro.core.queries import QuerySet
from repro.core.sketches import StreamStatisticsCollector
from repro.errors import NativeLibraryError
from repro.gigascope import Dataset, StreamSchema, engine, simulate
from repro.gigascope.hashing import (
    bucket_indices,
    combine_columns,
    relation_salt,
)
from repro.gigascope.hfta import HFTA
from repro.gigascope.lfta import run_reference
from repro.gigascope.metrics import CostCounters
from repro.gigascope.online import LiveStreamSystem
from repro.native import available as kernel_available
from repro.native import build as native_build
from repro.native import ingest as native_ingest
from repro.native import library as native_library
from repro.native import machine_info
from repro.native import partition as native_partition
from repro.parallel import HashPartitioner
from repro.workloads import flow_count, measure_statistics
from repro.workloads.io import save_npz
from tests.conftest import (
    PAPER_GROUPS,
    on_cores,
    split_ran,
    walk_lanes_of,
    without_library,
)
from tests.gigascope.test_forest_walk import (
    epoch_by_epoch,
    lane_config,
    make_stream,
    states,
)
from tests.hfta_totals import totals
from tests.references import ABC_SCHEMA as SCHEMA, abc_stream as _dataset
from tests.references import numpy_bodies, numpy_relation, split_dataset


class TestDegenerateShapes:
    """NaN values, the kernel shape the engine differential cannot pin
    against the sequential reference (its min/max are plain floats); the
    other degenerate streams run in ``test_differential.py``."""

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
        with numpy_bodies():
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


#: The kernel hashes ``HASH_BLOCK`` (256) arrivals ahead of its probe
#: loop; the edge streams plant an edge every 64 arrivals, so every
#: block edge is one of them.
_EDGE = 64
_AB = AttributeSet.parse("AB")


def _block_edge_stream(m, n_buckets, edge, salt, seed):
    """``m`` arrivals of two small-domain key columns in which, every
    ``_EDGE`` arrivals, either one run spans the edge (``edge="run"``) or
    the first arrival after it evicts the resident of its bucket
    (``edge="collide"``)."""
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, 5, (2, m))
    for start in range(_EDGE, m, _EDGE):
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
    forest, must come out as the reference numpy walk's, bit for bit: the
    kernel's fold of its runs equals the HFTA's fold of the numpy runs."""

    @pytest.mark.parametrize("values", [False, True])
    @pytest.mark.parametrize("edge", ["run", "collide"])
    @pytest.mark.parametrize("n_buckets", [1, 2, 7, 4205])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129, 255, 256, 257,
                                   512, 513, 1000])
    def test_kernel_equals_numpy(self, m, n_buckets, edge, values):
        salt = relation_salt(_AB.label(), m)
        cols = _block_edge_stream(m, n_buckets, edge, salt, seed=m)
        rng = np.random.default_rng(n_buckets)
        t = np.arange(m, dtype=np.int64)
        w = rng.integers(1, 5, m)
        vs = None
        if values:
            vs = rng.uniform(40, 1500, m)
        counts = np.zeros(4, dtype=np.int64)
        want = numpy_relation(
            _AB, t, w, vs, vs, vs, {"A": cols[0], "B": cols[1]},
            m, np.int64(m + n_buckets + 2), n_buckets, salt, 0,
            counts, times_sorted=True)
        hfta = HFTA()
        hfta.ingest_arrays(_AB, 0, want[5], *want[1:5])
        state = hfta.totals_columnar(_AB, 0)
        walk = native_ingest.Walk([-1], [[0, 1]], [salt], [n_buckets],
                                  [True], values, m)
        walk.bind([cols[0], cols[1]], vs)
        (fold,) = native_ingest.ingest_runs(walk, 0, t, w)
        assert fold.relation == 0 and fold.runs == want[1].shape[0]
        assert walk.stats.tolist() == [counts.tolist()]
        for got, ref in zip(fold[1:5], (state.counts, state.value_sums,
                                        state.value_mins,
                                        state.value_maxs)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for got, ref in zip(fold.columns, state.columns):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


#: Row counts at and around the edge of one ``HASH_BLOCK`` (256 rows)
#: and of a quarter block, and one spanning several blocks.
_BLOCK_EDGES = [0, 1, 63, 64, 65, 255, 256, 257, 1000]

#: int64's extremes and its neighbours of 0: what the C code views as
#: uint64 must wrap as numpy's ``astype(np.uint64)`` does.
_EXTREMES = np.array([-2**63, -2**63 + 1, -2, -1, 0, 1, 2**63 - 2,
                      2**63 - 1], dtype=np.int64)


@st.composite
def _hash_blocks(draw, k):
    """``k`` int64 key columns of a block-edge length, each drawn
    from int64's extremes, a small domain (repeated groups) or the whole
    range, and non-decreasing timestamps whose gaps include ties and gaps
    of exactly 0.5 and 1.0."""
    n = draw(st.sampled_from(_BLOCK_EDGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(k):
        domain = draw(st.sampled_from(["extremes", "small", "full"]))
        if domain == "extremes":
            col = rng.choice(_EXTREMES, n)
        elif domain == "small":
            col = rng.integers(-3, 4, n)
        else:
            col = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
        columns.append(col.astype(np.int64))
    timestamps = np.cumsum(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], n))
    return columns, timestamps


class TestBlockHasher:
    """``hash_block`` against the numpy chain, through the two entries
    that hash a whole stream: the partition ids and the statistics equal
    numpy's (``combine_columns``, ``Dataset.group_count``,
    ``flow_count``) at every block edge, for 1 to 6 columns. The
    gathered rows of the walk's inner relations are covered by the walk
    differentials on forests with children."""

    @pytest.mark.parametrize("k", range(1, 7))
    @given(data=st.data(),
           n_shards=st.sampled_from([1, 2, 3, 7, 2**31 - 1]),
           salt=st.sampled_from([0, 0x5A2D_51AB, 2**64 - 1]))
    def test_hash_shards_equal_numpy(self, k, data, n_shards, salt):
        columns, _ = data.draw(_hash_blocks(k))
        got = native_partition.hash_shards(columns, salt, n_shards)
        want = (combine_columns(columns, salt)
                % np.uint64(n_shards)).astype(np.int64)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 7))
    @given(data=st.data(), timeout=st.sampled_from([None, 0.0, 0.5, 1.0]))
    def test_group_stats_equal_numpy(self, k, data, timeout):
        columns, timestamps = data.draw(_hash_blocks(k))
        names = tuple("ABCDEF"[:k])
        stream = Dataset(StreamSchema(names), dict(zip(names, columns)),
                         timestamps)
        got = native_partition.group_stats(columns, timestamps, timeout)
        if not len(stream):
            assert got == (0, 0)
            return
        attrs = stream.schema.all_attributes
        flows = (stream.group_count(attrs) if timeout is None
                 else flow_count(stream, attrs, timeout))
        assert got == (stream.group_count(attrs), flows)


#: The line that clones ``hash_block`` for the CPU's widest lanes; the
#: source without it is the plain loop every other platform builds.
_DISPATCH = "#define HASH_DISPATCH 1\n"

#: The library's two builds: ``hash_block`` dispatched (where the
#: platform allows it) and plain.
_VARIANTS = {"dispatched": native_library.SOURCE,
             "plain": native_library.SOURCE.replace(_DISPATCH, "")}


@pytest.mark.parametrize("entries", [
    pytest.param(("repro_walk", "repro_walk_take", "repro_walk_free",
                  "repro_walk_wait", "repro_walk_stop"),
                 id="repro.native.ingest"),
    pytest.param(("repro_pool_submit", "repro_pool_wait"), id="pool"),
    pytest.param(("repro_group_stats",), id="repro.native.merge"),
    pytest.param(("repro_partition_hash", "repro_shard_counts",
                  "repro_hash_isa", "repro_kmv_observe"),
                 id="repro.native.partition"),
])
def test_kernel_source_compiles_without_warnings(entries, strict_build):
    """The library builds clean under ``-Wall -Wextra -Werror`` with the
    flags it ships with, dispatched and plain, and each build exports
    every kernel's entries. One case per kernel the source gathers,
    under the name of the module that once compiled it alone, and one
    for the pool of helper threads that runs them on other cores."""
    assert _VARIANTS["plain"] != _VARIANTS["dispatched"]
    for variant, (result, shared) in strict_build.items():
        assert result.returncode == 0, (variant, result.stderr)
        lib = ctypes.CDLL(str(shared))
        for entry in entries:
            assert hasattr(lib, entry), (variant, entry)


@pytest.fixture(scope="module")
def strict_build(tmp_path_factory):
    """One ``-Wall -Wextra -Werror`` build of each variant of the library
    source: the compiler's result and the shared object's path, by
    variant."""
    directory = tmp_path_factory.mktemp("strict_build")
    built = {}
    for variant, text in _VARIANTS.items():
        source = directory / f"{variant}.c"
        source.write_text(text)
        shared = directory / f"{variant}.so"
        result = subprocess.run(
            [native_build.compiler_path(), *native_build.DEFAULT_FLAGS,
             "-Wall", "-Wextra", "-Werror", "-o", str(shared), str(source)],
            capture_output=True, text=True, timeout=60.0)
        built[variant] = result, shared
    return built


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
from repro.native import build, library
run = racer_run()
status = build.kernel_status(library.NAME).to_dict()
print(json.dumps({"status": {key: status[key] for key in
                             ("available", "error")},
                  "run": run}))
"""


def _racer_run() -> dict:
    namespace: dict = {}
    exec(_RUN_SOURCE, namespace)
    return namespace["racer_run"]()


def _every_caller(dataset: Dataset) -> list:
    """What each caller of the library returns: the walk's counters and
    HFTA states (raw bytes, NaN bits included), the partition hash's ids
    (raw bytes), the planner's statistics and the service's sketches
    (each one's minima as raw bytes, its flag and estimate, after every
    batch)."""
    config = Configuration.from_notation("ABC(AB(A B) C)")
    result = simulate(dataset, config, {rel: 5 for rel in config.relations},
                      1.0, "v")
    ids = HashPartitioner().shard_ids(dataset, 3)
    stats = measure_statistics(dataset, config.relations, 0.5)
    collector = StreamStatisticsCollector(config.relations, k=8)
    sketches = []
    for start in range(0, len(dataset), 300):
        collector.observe({name: column[start:start + 300]
                           for name, column in dataset.columns.items()})
        sketches.append([(sketch._minima.tobytes(), sketch._saturated,
                          sketch.estimate())
                         for sketch in collector._distinct.values()])
    return [result.counters.relations, states(result.hfta), ids.tobytes(),
            ids.dtype, stats, sketches, collector.records_seen]


#: How the library fails to build, and a word of the error it records:
#: a source that does not compile, a compiler that vanished after it was
#: found, and no compiler at all.
_BREAKS = {"broken-source": "exited",
           "vanished-compiler": "compiler invocation failed",
           "no-compiler": "no C compiler found"}


def _break_library(case: str, patch, tmp_path) -> None:
    """The library's next load fails as ``case`` says: a fresh memo, and
    an empty cache directory, where a cached build would load without
    asking the compiler."""
    patch.setattr(native_build, "_statuses", {})
    patch.setattr(tempfile, "tempdir", str(tmp_path))
    if case == "broken-source":
        patch.setattr(native_library, "SOURCE", "this is not C")
    elif case == "vanished-compiler":
        patch.setattr(native_build, "compiler_path",
                      lambda: str(tmp_path / "cc"))
    else:
        patch.setattr(native_build, "compiler_path", lambda: None)


def _entries(dataset: Dataset) -> dict:
    """Every product entry the library serves, as a call on
    ``dataset``."""
    config = Configuration.from_notation("ABC(AB(A B) C)")
    queries = QuerySet.counts(["AB", "BC"], epoch_seconds=1.0)
    the_plan = plan(queries, RelationStatistics.from_counts(PAPER_GROUPS),
                    4000.0)

    def push():
        live = LiveStreamSystem(dataset.schema, queries, the_plan)
        # records of four epochs: the push closes the first three
        live.push(dataset.columns, dataset.timestamps)

    return {
        "simulate": lambda: simulate(
            dataset, config, {rel: 5 for rel in config.relations}, 1.0,
            "v"),
        "LiveStreamSystem.push": push,
        "HashPartitioner.shard_ids":
            lambda: HashPartitioner().shard_ids(dataset, 3),
        "measure_statistics":
            lambda: measure_statistics(dataset, config.relations, 0.5),
        "StreamStatisticsCollector.observe": lambda: StreamStatisticsCollector(
            config.relations, k=8).observe(dataset.columns),
    }


@pytest.mark.parametrize("case", sorted(_BREAKS))
def test_every_entry_raises_the_compiler_error(case, tmp_path):
    """The library is the only body: when it cannot be built, each
    product entry, as the library's first use, raises
    ``NativeLibraryError`` carrying the compiler's message on one line,
    warns nothing and returns no numpy result; ``machine_info()`` still
    returns and records the error. With the library back every entry
    returns what it returned before."""
    dataset = _dataset(3, 500, 40, 4.0, clustered=True)
    want = _every_caller(dataset)
    with pytest.MonkeyPatch.context() as patch:
        _break_library(case, patch, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, entry in _entries(dataset).items():
                native_build._statuses.clear()  # the library's first use
                with pytest.raises(NativeLibraryError) as raised:
                    entry()
                status = native_build.kernel_status(native_library.NAME)
                message = str(raised.value)
                assert "\n" not in message, name
                assert _BREAKS[case] in status.error, name
                assert " ".join(status.error.split()) in message, name
            info = machine_info()
    assert not info["c_kernel"]
    (recorded,) = info["kernels"].values()
    assert not recorded["available"] and recorded["hash_isa"] is None
    assert _BREAKS[case] in recorded["error"]
    assert kernel_available()
    assert _every_caller(dataset) == want


def test_what_needs_no_library_runs_without_it():
    """Only the four facts need the library: without it the planner
    plans, the record-at-a-time reference runs and a stream without
    records is walked (there is nothing to walk), as with it."""
    dataset = _dataset(3, 500, 40, 4.0, clustered=True)
    config = Configuration.from_notation("ABC(AB(A B) C)")
    buckets = {rel: 5 for rel in config.relations}
    queries = QuerySet.counts(["AB", "BC"], epoch_seconds=1.0)
    stats = RelationStatistics.from_counts(PAPER_GROUPS)

    def run():
        the_plan = plan(queries, stats, 4000.0, algorithm="gcsl")
        reference = run_reference(dataset, config, buckets, 1.0, "v")
        empty = simulate(dataset.head(0), config, buckets, 1.0, "v")
        return (the_plan.configuration, the_plan.allocation.buckets,
                reference.counters.relations, states(reference.hfta),
                empty.n_records, empty.counters.relations)

    want = run()
    with without_library():
        assert run() == want
        assert not machine_info()["c_kernel"]


def test_repro_plan_prints_the_error_as_one_line(tmp_path, capsys):
    """``repro-plan`` without the library: exit 2 and one ``error:``
    line on stderr, the compiler's multi-line diagnostic included."""
    data = tmp_path / "trace.npz"
    save_npz(_dataset(3, 500, 40, 4.0, clustered=True), data)
    with pytest.MonkeyPatch.context() as patch:
        _break_library("broken-source", patch, tmp_path)
        code = plan_main(["--data", str(data), "--memory", "4000",
                          "select A, B, count(*) from R group by A, B, "
                          "time/1"])
        error = native_build.kernel_status(native_library.NAME).error
    assert code == 2
    assert "\n" in error  # the compiler's own diagnostic spans lines
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: the native library 'engine_ingest' ")
    assert line.endswith(" ".join(error.split()))


@pytest.mark.parametrize("clustered", [False, True])
def test_plain_build_agrees_with_the_dispatched_one(clustered, monkeypatch):
    """The library built without ``hash_block``'s clones, as every
    platform but x86-64 glibc with a capable compiler builds it, returns
    what the loaded library returns, byte for byte: the walk's counters
    and states (a forest with children, so gathered rows too), the
    partition ids, the statistics and the sketches."""
    plain = native_build.load_kernel(f"{native_library.NAME}_plain",
                                     _VARIANTS["plain"],
                                     native_library._SIGNATURES)
    assert plain is not None and plain.repro_hash_isa() == b"plain"
    dataset = _dataset(5, 3000, 40, 4.0, clustered=clustered)
    want = _every_caller(dataset)
    monkeypatch.setattr(native_library, "library", lambda: plain)
    assert native_library.hash_isa() == "plain"
    assert _every_caller(dataset) == want


_ANSWER = {"repro_answer": (ctypes.c_int, [])}
_ANSWER_SOURCE = "int repro_answer(void) { return %d; }"


class TestBuildMachinery:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        """Each test starts as a new process would: nothing attempted."""
        monkeypatch.setattr(native_build, "_statuses", {})

    def test_failed_compile_records_error_once(self, monkeypatch):
        """A failed build returns None and records the compiler's error,
        once per process and without a warning: a second load asks no
        compiler."""
        name = "test_bad_source_kernel"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native_build.load_kernel(name, "this is not C", {}) is None
            status = native_build.kernel_status(name)
            assert status is not None and not status.available
            assert "exited" in status.error

            def compile_again(*args):
                raise AssertionError("a failed build was attempted twice")

            monkeypatch.setattr(native_build, "_compile", compile_again)
            assert native_build.load_kernel(name, "this is not C", {}) is None
        assert native_build.kernel_status(name) is status

    @pytest.mark.parametrize("planted", ["corrupt", "group-writable"])
    def test_bad_cache_file_is_rebuilt_not_loaded(self, planted,
                                                  monkeypatch, tmp_path):
        """A truncated cache file must not disable the kernel for every
        later process, and a file somebody else could have written under
        the predictable name must not be loaded at all."""
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

    def test_racing_first_compiles_agree(self, tmp_path):
        """Two processes that find no cached ingest kernel in a fresh
        ``TMPDIR`` compile it at the same time: both load it, and both
        runs equal this process's."""
        env = dict(os.environ)
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
            {"available": True, "error": None}] * 2
        assert outputs[0]["run"] == outputs[1]["run"] == _racer_run()
        (built,) = tmp_path.glob("repro_kernel_*.so")
        assert built.name.startswith(f"repro_kernel_{native_library.NAME}_")

    def test_concurrent_first_loads_wait_for_the_build(self, monkeypatch):
        """Threads asking for a kernel while another thread's first build
        is under way wait for that build: all get the library, from one
        build, with no warning."""
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

    def test_ingest_kernel_reports_available(self):
        assert kernel_available()
        status = native_build.kernel_status(native_library.NAME)
        assert status is not None and status.available
        assert status.compiler

    def test_machine_info_shape(self):
        info = machine_info()
        assert set(info) >= {"platform", "python", "numpy", "cpu_count",
                             "compiler", "c_kernel", "kernels"}
        assert list(info["kernels"]) == ["engine_ingest"]
        status = info["kernels"]["engine_ingest"]
        assert set(status) == {"available", "compiler", "error", "hash_isa"}
        assert info["c_kernel"] is status["available"] is kernel_available()
        # which hash_block runs: a clone the loader picked, or the plain
        # loop; nothing when the library is not loaded
        assert status["hash_isa"] == native_library.hash_isa()
        if status["available"]:
            assert status["hash_isa"] in ("x86-64-v4", "default", "plain")
        else:
            assert status["hash_isa"] is None

    def test_manifest_carries_machine_diagnostics(self):
        from repro.observability import RunManifest

        manifest = RunManifest.collect(git_sha=False)
        doc = manifest.to_dict()
        assert doc["machine"]["kernels"].keys() == {"engine_ingest"}
        assert isinstance(doc["machine"]["c_kernel"], bool)


#: A forest whose lanes can cross every way: two relations with children
#: at depth 1 (whose evictions one list per depth would have to share, so
#: that a lane refilled the list the other lane's children read) and one
#: of them a query.
_LANE_FOREST = "ABCD(ABC(AB BC) ABD(AD BD))"


def _lane_walks(config, dataset, emit, order=None):
    """Three kernel walks of ``config`` bound to ``dataset``: one lane's,
    and the two of a two-lane call. With ``order``, the walks take the
    relations in that order of their indices in ``config`` (parents
    still first), and ``emit`` is read in ``config``'s."""
    tables = engine.Tables()
    tables.bind(config, {rel: 7 + 3 * i
                         for i, rel in enumerate(config.relations)}, 0, True)
    order = range(len(tables.parent)) if order is None else order
    at = {r: i for i, r in enumerate(order)}
    parent = [at.get(tables.parent[r], -1) for r in order]
    walks = [native_ingest.Walk(
        parent, *([seq[r] for r in order] for seq in (
            tables.keys, tables.salts, tables.sizes, emit)),
        True, len(dataset)) for _ in range(3)]
    walks[0].bind([dataset.columns[a] for a in tables.names],
                  dataset.values["v"])
    for walk in walks[1:]:
        walk.bind_like(walks[0])
    return walks


def _folded(folds, walks, order=None) -> list:
    """Folds as raw bytes, and the counters summed over ``walks``; with
    ``order`` (as :func:`_lane_walks` takes it), each fold and counter
    row under its relation's index in the configuration."""
    stats = sum(walk.stats for walk in walks)
    if order is not None:
        folds = sorted((f._replace(relation=order[f.relation])
                        for f in folds), key=lambda f: f.relation)
        stats = stats[np.argsort(order)]
    return [(f.relation, f.runs, f.counts.tobytes(), f.sums.tobytes(),
             f.mins.tobytes(), f.maxs.tobytes(),
             [c.tobytes() for c in f.columns]) for f in folds] + [
        stats.tobytes()]


def _walk_lane(lanes, lane_id, n):
    """Start lane ``lane_id`` of ``lanes`` over the first ``n`` rows on a
    thread of its own, as the kernel's job would walk it: the thread,
    and the list its walk's status goes to."""
    lib, status = native_library.library(), []
    t, w = np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    thread = threading.Thread(target=lambda: status.append(lib.repro_walk(
        lanes.walks[lane_id]._ref, 0, t.ctypes.data, w.ctypes.data, n)),
        daemon=True)
    thread.start()
    return thread, status


class TestLanes:
    """Two lanes of one epoch (``ingest_runs(..., lanes=)``): what each
    relation waits for, every assignment of a forest to the lanes
    against one lane, a failing fold in either lane, callers that
    contend for the pool's helpers, and a fork."""

    def test_waits(self):
        """A relation waits for its parent when the other lane walks it,
        and for nothing else: every relation with children has an
        eviction list of its own, so none waits to refill a list the
        other lane still reads. Each lane is walked on a thread of its
        own, one after the other, and the folds equal one lane's."""
        config = Configuration.from_notation(_LANE_FOREST)
        assert [r.label() for r in config.relations] == \
            ["ABCD", "ABC", "AB", "BC", "ABD", "AD", "BD"]
        dataset = make_stream(1, [50], 4, "finite", False)
        one, first, second = _lane_walks(config, dataset, [True] * 7)
        n = len(dataset)
        t, w = np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        want = _folded(native_ingest.ingest_runs(one, 0, t, w), [one])
        lib = native_library.library()

        def walked(lane, waiting):
            """Lane 0 alone, then lane 1: lane 0 stops at relation
            ``waiting`` (None: none) until lane 1 walks."""
            lanes = native_ingest.Lanes(first, second, lane)
            lanes.done[:] = 0
            first.stats[:] = second.stats[:] = 0
            lanes._point(True)
            try:
                thread, status = _walk_lane(lanes, 0, n)
                thread.join(timeout=0.2 if waiting is not None else 60)
                assert thread.is_alive() == (waiting is not None), lane
                mine = [r for r in range(7) if lane[r] == 0]
                before = mine if waiting is None else \
                    mine[:mine.index(waiting)]
                assert list(np.flatnonzero(lanes.done[:7])) == before
                other, other_status = _walk_lane(lanes, 1, n)
                for each in (other, thread):
                    each.join(timeout=60)
                    assert not each.is_alive(), lane
                assert status == other_status == [0]
            finally:
                lib.repro_walk_stop(first._ref)  # a stuck lane returns
                lanes._point(False)
            folds = native_ingest._take(lib, first) + \
                native_ingest._take(lib, second)
            return _folded(sorted(folds, key=lambda f: f.relation),
                           [first, second])

        # ABD (lane 0) once waited to refill the list ABC (lane 0) filled
        # for AB (lane 1): now lane 0 walks all five of its relations
        # before lane 1 begins
        assert walked([0, 0, 1, 0, 0, 1, 0], None) == want
        # ABC waits for ABCD, which lane 1 walks, and lane 0 with it
        assert walked([1, 0, 0, 1, 1, 1, 0], 1) == want
        # lane 0 walks ABCD, then waits at AD for lane 1's ABD
        assert walked([0, 1, 1, 1, 1, 0, 1], 5) == want
        with pytest.raises(ValueError, match="lane 0 or 1"):
            native_ingest.Lanes(first, second, [0, 2, 0, 0, 0, 0, 0])

    def test_a_forest_walks_parents_first_in_any_order(self):
        """The netflow forest given breadth-first (ABCD, ABC, BCD, AB,
        BC, BD, CD) walks as given depth-first, on one lane and on every
        assignment to two: the folds, mapped by relation, their runs
        and the counters equal byte for byte. A relation whose parent
        comes after it is refused."""
        config = Configuration.from_notation("ABCD(ABC(AB) BCD(BC BD CD))")
        assert [r.label() for r in config.relations] == \
            ["ABCD", "ABC", "AB", "BCD", "BC", "BD", "CD"]
        order = [0, 1, 3, 2, 4, 5, 6]
        emit = [rel in config.leaves or rel.label() == "BCD"
                for rel in config.relations]
        dataset = make_stream(5, [600], 6, "nonfinite", False)
        n = len(dataset)
        t, w = np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        depth_first = _lane_walks(config, dataset, emit)[0]
        want = _folded(native_ingest.ingest_runs(depth_first, 0, t, w),
                       [depth_first])
        one, first, second = _lane_walks(config, dataset, emit, order)
        assert one.parent == [-1, 0, 0, 1, 2, 2, 2]
        assert _folded(native_ingest.ingest_runs(one, 0, t, w), [one],
                       order) == want
        for bits in range(2 ** 7):
            lane = [bits >> r & 1 for r in range(7)]
            lanes = native_ingest.Lanes(first, second, lane)
            first.stats[:] = second.stats[:] = 0
            with on_cores(2):
                got = native_ingest.ingest_runs(first, 0, t, w, None, lanes)
            assert lanes.ran == 2
            assert _folded(got, [first, second], order) == want, lane
        for parent in ([1, -1], [0, -1], [-1, 1]):
            with pytest.raises(ValueError, match="parents first"):
                native_ingest.Walk(parent, [[0, 1], [0]], [1, 2], [3, 3],
                                   [True, True], False, 8)

    @pytest.mark.parametrize("n_cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_every_assignment_equals_one_lane(self, seeded, n_cores):
        """All 128 assignments of a seven-relation forest, NaN and
        infinite values included, with seeds or without, on one to four
        cores (one lane on one: the pool has no helper to give): the
        folds, their runs and the summed counters equal one lane's, byte
        for byte."""
        config = Configuration.from_notation(_LANE_FOREST)
        emit = [rel in config.leaves or rel.label() == "ABD"
                for rel in config.relations]
        dataset = make_stream(4, [600], 6, "nonfinite", False)
        one, first, second = _lane_walks(config, dataset, emit)
        n = len(dataset) // 2
        t, w = np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        seeds = {}
        if seeded:  # the states of the stream's other half
            seeds = {f.relation: (f.columns, f.counts, f.sums, f.mins,
                                  f.maxs)
                     for f in native_ingest.ingest_runs(one, n, t, w)}
        one.stats[:] = 0
        want = _folded(native_ingest.ingest_runs(one, 0, t, w, seeds), [one])
        for bits in range(2 ** 7):
            lane = [bits >> r & 1 for r in range(7)]
            lanes = native_ingest.Lanes(first, second, lane)
            first.stats[:] = second.stats[:] = 0
            with on_cores(n_cores):
                got = native_ingest.ingest_runs(first, 0, t, w, seeds,
                                                lanes)
            assert lanes.ran == min(n_cores, 2)
            assert _folded(got, [first, second]) == want, lane

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_fold_stops_both_lanes(self, failing, monkeypatch):
        """A test build whose folds fail in lane ``failing``: the other
        lane waits for a relation that lane never walks, yet the call
        returns, raises ``MemoryError`` and leaves the counters and the
        HFTA as they were; the next call, on the real library, walks on
        two lanes again."""
        broken = native_build.load_kernel(
            f"{native_library.NAME}_lane{failing}_fails",
            native_library.SOURCE.replace(
                "    if (reserve_groups(W, n_seed + n_runs) < 0)",
                f"    if (W->lane != NULL && W->lane_id == {failing})\n"
                "        return -1;\n"
                "    if (reserve_groups(W, n_seed + n_runs) < 0)", 1),
            native_library._SIGNATURES)
        assert broken is not None
        # BCD emits and feeds: in the failing lane it never finishes, and
        # BC, BD and CD wait for it in the other
        config = lane_config("ABCD(AB BCD(BC BD CD))+BCD")
        lane = [failing, 1 - failing, failing] + [1 - failing] * 3
        monkeypatch.setattr(repro.native, "cores", lambda: 2)
        monkeypatch.setattr(engine, "_schedule",
                            lambda *args: (lane, float("inf")))
        dataset = make_stream(3, [400, 400, 400], 4, "finite", False)
        buckets = {rel: 9 for rel in config.relations}
        parts = split_dataset(dataset, np.floor(dataset.timestamps).astype(
            np.int64), 3)
        counters, hfta, tables = CostCounters(config), HFTA(), \
            engine.Tables()

        def close(part):
            return simulate(part, config, buckets, 1.0, "v",
                            counters=counters, hfta=hfta, tables=tables)

        close(parts[0])  # one lane: no counters to schedule by yet
        before = (repr(counters.relations), states(hfta))
        monkeypatch.setattr(native_library, "library", lambda: broken)
        raised = []
        caller = threading.Thread(target=lambda: raised.append(
            pytest.raises(MemoryError, close, parts[1])), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a lane waits for a failed one"
        assert len(raised) == 1
        assert (repr(counters.relations), states(hfta)) == before
        monkeypatch.undo()
        monkeypatch.setattr(repro.native, "cores", lambda: 2)
        monkeypatch.setattr(engine, "_schedule",
                            lambda *args: (lane, float("inf")))
        assert close(parts[1]).walk.endswith("2 lanes")
        with numpy_bodies():
            want = simulate(dataset.head(800), config, buckets, 1.0, "v")
        assert counters.relations == want.counters.relations
        assert states(hfta) == states(want.hfta)

    def test_callers_on_many_threads_share_the_helper(self):
        """Six threads, each closing epochs of its own through its own
        ``Tables`` with lanes forced, a short switch interval: a call
        that finds no helper of the pool free walks one lane, and every
        thread's counters and states equal a one-lane run's."""
        config = Configuration.from_notation("ABCD(AB BCD(BC BD CD))")
        buckets = {rel: 17 for rel in config.relations}
        streams = [make_stream(20 + k, [200] * 12, 5, "finite", False)
                   for k in range(6)]
        with walk_lanes_of(False):
            want = [epoch_by_epoch(s, config, buckets, "v")[:2]
                    for s in streams]
        got: list = [None] * len(streams)

        def run(k):
            got[k] = epoch_by_epoch(streams[k], config, buckets, "v")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with walk_lanes_of(True):
                threads = [threading.Thread(target=run, args=(k,),
                                            daemon=True)
                           for k in range(len(streams))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (counters, hfta, _), (one, one_hfta) in zip(got, want):
            assert counters.relations == one.relations
            assert states(hfta) == states(one_hfta)
        if split_ran():
            assert any(walk.endswith("2 lanes")
                       for _, _, walks in got for walk in walks)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_a_forked_child_walks_on_its_own_helper(self):
        """The pool's helpers do not survive a fork: after the parent
        has used every helper (two, on three cores), a forked child
        starts its own and runs a two-lane close, a multi-epoch call and
        a split partition hash to the parent's results."""
        with on_cores(3), walk_lanes_of(True):
            work = _forked_work()
            with multiprocessing.get_context("fork").Pool(1) as pool:
                child = pool.apply(_forked_work)
        assert child == work
        assert work[0][0] == "native kernel, 1 worker, 2 lanes"
        assert work[1][0] == "native kernel, 3 workers"


def _forked_work():
    """Two one-epoch calls through one ``Tables`` (the second's walk and
    states), a six-epoch call (its walk and states) and a partition hash
    of three ranges (its ids)."""
    config = Configuration.from_notation("ABCD(AB BCD(BC BD CD))")
    buckets = {rel: 11 for rel in config.relations}
    dataset = make_stream(8, [500], 4, "finite", False)
    tables = engine.Tables()
    simulate(dataset, config, buckets, 1.0, "v", tables=tables)
    close = simulate(dataset, config, buckets, 1.0, "v", tables=tables)
    many = simulate(make_stream(9, [300] * 6, 4, "finite", False), config,
                    buckets, 1.0, "v")
    rng = np.random.default_rng(3)
    cols = [rng.integers(0, 1000, 3 * native_partition.SPLIT_ROWS)
            for _ in range(2)]
    ids = native_partition.hash_shards(cols, 7, 5)
    return ((close.walk, states(close.hfta)),
            (many.walk, states(many.hfta)), ids.tobytes())
