"""Differential pins for the columnar HFTA.

The HFTA rebuild (packed key columns + int64/float64 aggregate arrays,
folded by the :mod:`repro.native.merge` hash-table kernel or its numpy
fallback) promises answers *bit-identical* to the dict-of-
``GroupAggregate`` HFTA it replaced. These tests pin that promise three
ways:

* hypothesis workloads compared against a literal sequential reference
  (per-row dict accumulation in arrival order — exactly the float
  addition sequence the pre-columnar merge performed), with folds forced
  at arbitrary points so the incremental state-rows-first re-fold path
  is exercised, not just the single-shot fold;
* ``query_answer`` compared against a brute-force per-record oracle for
  every aggregate kind, including NaN values, the ``±inf`` sentinels of
  value-less workloads, and the ``having_min`` boundary;
* the C kernel compared against the numpy fallback row-for-row (group
  order included), which is also what the ``REPRO_NO_CKERNEL=1`` CI leg
  degenerates both sides to.

Plus the memory-bounding contract: folding releases raw batch lists,
and ``finalize_epoch`` does it eagerly as the live runtime closes epochs.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.queries import Aggregate, AggregationQuery
from repro.gigascope.hfta import HFTA, ColumnarTotals, _fold_rows_numpy
from repro.native import merge as native_merge
from tests.conftest import needs_kernel
from tests.hfta_totals import GroupAggregate, totals

# NaN workloads trip numpy's elementwise warnings inside minimum.at /
# maximum.at; the NaN propagation itself is exactly what's under test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered")


def A(label):
    return AttributeSet.parse(label)


# ---------------------------------------------------------------------------
# The literal reference: per-row sequential accumulation, NaN-propagating
# min/max — the addition order the pre-columnar HFTA merge performed.
# ---------------------------------------------------------------------------

def _nanprop_min(a: float, b: float) -> float:
    return b if (math.isnan(b) or b < a) else a


def _nanprop_max(a: float, b: float) -> float:
    return b if (math.isnan(b) or b > a) else a


def _reference_totals(batches, names):
    """Fold batches row by row into a plain dict, in arrival order."""
    totals: dict[tuple, list] = {}
    for cols, counts, vsums, vmins, vmaxs in batches:
        for i in range(len(counts)):
            group = tuple(int(cols[name][i]) for name in names)
            acc = totals.setdefault(group, [0, 0.0, math.inf, -math.inf])
            acc[0] += int(counts[i])
            acc[1] += float(vsums[i]) if vsums is not None else 0.0
            acc[2] = _nanprop_min(
                acc[2], float(vmins[i]) if vmins is not None else math.inf)
            acc[3] = _nanprop_max(
                acc[3], float(vmaxs[i]) if vmaxs is not None else -math.inf)
    return {g: GroupAggregate(*acc) for g, acc in totals.items()}


def _assert_totals_equal(got, want):
    assert got.keys() == want.keys()
    for group in want:
        # Field-wise array compare: NaN == NaN, and exact float bits
        # otherwise (assert_array_equal distinguishes nothing weaker).
        np.testing.assert_array_equal(
            np.asarray(got[group], dtype=np.float64),
            np.asarray(want[group], dtype=np.float64),
            err_msg=f"group {group}")


# Values that stress the float paths: NaN, infinities, denormals, signed
# zeros, plus ordinary magnitudes where addition order shows.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                     math.nan, 1e-300, 1e300, 0.1, 1/3]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              width=64))


@st.composite
def _batch(draw, with_values):
    n = draw(st.integers(1, 12))
    cols = {
        "A": np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n)), dtype=np.int64),
        "B": np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                    max_size=n)), dtype=np.int64),
    }
    counts = np.array(draw(st.lists(st.integers(1, 9), min_size=n,
                                    max_size=n)), dtype=np.int64)
    if not with_values:
        return (cols, counts, None, None, None)
    vals = st.lists(_FLOATS, min_size=n, max_size=n)
    return (cols, counts,
            np.array(draw(vals), dtype=np.float64),
            np.array(draw(vals), dtype=np.float64),
            np.array(draw(vals), dtype=np.float64))


@st.composite
def _workload(draw):
    with_values = draw(st.booleans())
    batches = draw(st.lists(_batch(with_values), min_size=1, max_size=6))
    # After which batches to force a fold (exercises incremental
    # state-rows-first re-folds and the answer cache).
    folds = draw(st.sets(st.integers(0, len(batches) - 1)))
    return batches, folds


class TestDifferentialVsReference:
    @given(workload=_workload())
    @settings(max_examples=120)
    def test_totals_bit_identical(self, workload):
        """Interleaved ingest/fold produces exactly the reference's
        per-group count/sum/min/max — float bits included."""
        batches, folds = workload
        rel = A("AB")
        hfta = HFTA()
        for i, batch in enumerate(batches):
            hfta.ingest_arrays(rel, 0, *batch)
            if i in folds:
                totals(hfta, rel, 0)
        _assert_totals_equal(totals(hfta, rel, 0),
                             _reference_totals(batches, ("A", "B")))

    @given(workload=_workload(), split=st.integers(0, 6))
    @settings(max_examples=60)
    def test_merge_from_matches_single_stream(self, workload, split):
        """Two shard HFTAs merged equal one HFTA fed both parts in
        merge order — bit-identical float sums included. The source
        side ships *unfolded* rows, as every shard executor does (a
        source folded early would still be value-exact, but its rows
        would enter the final sum as one accumulated partial — the
        tree-shaped addition the row-shipping design exists to avoid).
        The destination may fold whenever: its state re-enters later
        folds first, preserving the sequence."""
        batches, folds = workload
        split = min(split, len(batches))
        rel = A("AB")
        a, b = HFTA(), HFTA()
        for i, batch in enumerate(batches):
            if i < split:
                a.ingest_arrays(rel, 0, *batch)
                if i in folds:
                    totals(a, rel, 0)
            else:
                b.ingest_arrays(rel, 0, *batch)
        a.merge_from(b)
        _assert_totals_equal(totals(a, rel, 0),
                             _reference_totals(batches, ("A", "B")))

    @given(workload=_workload())
    @settings(max_examples=40)
    def test_merge_into_empty_adopts_folded_state_verbatim(self,
                                                           workload):
        """A fully folded shard merged into an empty HFTA is adopted
        wholesale — bitwise the shard's own totals, no re-fold."""
        batches, _ = workload
        rel = A("AB")
        shard = HFTA()
        for batch in batches:
            shard.ingest_arrays(rel, 0, *batch)
        totals(shard, rel, 0)
        folds_before = shard.folds
        parent = HFTA()
        parent.merge_from(shard)
        _assert_totals_equal(totals(parent, rel, 0), totals(shard, rel, 0))
        assert parent.folds == folds_before  # adoption, not a new fold

    @given(workload=_workload())
    @settings(max_examples=40)
    def test_pickle_roundtrip_preserves_totals(self, workload):
        batches, folds = workload
        rel = A("AB")
        hfta = HFTA()
        for i, batch in enumerate(batches):
            hfta.ingest_arrays(rel, 0, *batch)
            if i in folds:
                totals(hfta, rel, 0)
        clone = pickle.loads(pickle.dumps(hfta))
        _assert_totals_equal(totals(clone, rel, 0), totals(hfta, rel, 0))


class TestQueryAnswerBruteForce:
    """``query_answer`` vs a per-record oracle (satellite of the
    vectorized-answers rebuild): every aggregate kind, HAVING at the
    boundary, NaN values and the value-less ``±inf`` sentinels."""

    KINDS = ("count", "sum", "avg", "min", "max")

    def _oracle(self, totals, kind, having_min):
        out = {}
        for group, agg in totals.items():
            if having_min is not None and agg.count < having_min:
                continue
            if kind == "count":
                out[group] = float(agg.count)
            elif kind == "sum":
                out[group] = agg.value_sum
            elif kind == "avg":
                out[group] = (agg.value_sum / agg.count if agg.count
                              else 0.0)
            elif kind == "min":
                out[group] = agg.value_min
            else:
                out[group] = agg.value_max
        return out

    @given(workload=_workload(), kind=st.sampled_from(KINDS),
           having=st.one_of(st.none(), st.integers(0, 30)))
    @settings(max_examples=120)
    def test_matches_oracle(self, workload, kind, having):
        batches, folds = workload
        rel = A("AB")
        hfta = HFTA()
        for i, batch in enumerate(batches):
            hfta.ingest_arrays(rel, 0, *batch)
            if i in folds:
                hfta.query_answer(AggregationQuery(rel), 0)
        aggregate = (Aggregate() if kind == "count"
                     else Aggregate(kind, "v"))
        query = AggregationQuery(rel, aggregate, having_min=having)
        got = hfta.query_answer(query, 0)
        want = self._oracle(_reference_totals(batches, ("A", "B")),
                            kind, having)
        assert got.keys() == want.keys()
        for group in want:
            np.testing.assert_array_equal(
                np.float64(got[group]), np.float64(want[group]),
                err_msg=f"{kind} group {group}")

    def test_having_min_boundary_is_inclusive(self):
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1, 2]}, [100, 99])
        query = AggregationQuery(rel, having_min=100)
        assert hfta.query_answer(query, 0) == {(1,): 100.0}

    def test_valueless_min_max_expose_sentinels(self):
        """Count-only ingest leaves the GroupAggregate defaults: min
        answers +inf, max answers -inf — same as the old dict HFTA."""
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [5]}, [3])
        assert hfta.query_answer(
            AggregationQuery(rel, Aggregate("min", "v")), 0) \
            == {(5,): math.inf}
        assert hfta.query_answer(
            AggregationQuery(rel, Aggregate("max", "v")), 0) \
            == {(5,): -math.inf}

    def test_avg_of_zero_count_group_is_zero(self):
        """A count-0 partial (possible through merged evictions) answers
        avg 0.0, not NaN — pinned old behavior of ``sum/count if count
        else 0.0``."""
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [0], [0.0])
        assert hfta.query_answer(
            AggregationQuery(rel, Aggregate("avg", "v")), 0) == {(1,): 0.0}

    def test_nan_values_answer_nan(self):
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1, 1]}, [1, 1],
                           [math.nan, 2.0], [math.nan, 2.0],
                           [math.nan, 2.0])
        for kind in ("sum", "avg", "min", "max"):
            (value,) = hfta.query_answer(
                AggregationQuery(rel, Aggregate(kind, "v")), 0).values()
            assert math.isnan(value), kind


class TestKernelVsNumpyFold:
    """The two fold implementations are row-for-row identical — group
    order (first appearance), counts, and float bits."""

    @st.composite
    def _rows(draw):
        n = draw(st.integers(1, 200))
        k = draw(st.integers(1, 4))
        domain = draw(st.sampled_from([1, 2, 7, 2**40]))
        cols = [np.array(draw(st.lists(
            st.integers(-domain, domain), min_size=n, max_size=n)),
            dtype=np.int64) for _ in range(k)]
        counts = np.array(draw(st.lists(st.integers(0, 50), min_size=n,
                                        max_size=n)), dtype=np.int64)
        floats = st.lists(_FLOATS, min_size=n, max_size=n)
        return (cols, counts,
                np.array(draw(floats), dtype=np.float64),
                np.array(draw(floats), dtype=np.float64),
                np.array(draw(floats), dtype=np.float64))

    @needs_kernel
    @given(rows=_rows())
    @settings(max_examples=120)
    def test_fold_rows_agree(self, rows):
        cols, counts, vs, vmin, vmax = rows
        eq_cols = [col.view(np.uint64) for col in cols]
        native = native_merge.merge_rows(eq_cols, counts, vs, vmin, vmax)
        fallback = _fold_rows_numpy(cols, counts, vs, vmin, vmax)
        for got, want, label in zip(native, fallback,
                                    ("rep", "counts", "sums", "mins",
                                     "maxs")):
            np.testing.assert_array_equal(got, want, err_msg=label)

    @needs_kernel
    def test_fold_dispatch_uses_kernel_for_int_keys(self, monkeypatch):
        """An HFTA fold with int64 keys goes through the kernel; with a
        float key column it silently takes the numpy fallback."""
        calls = []
        real = native_merge.merge_rows
        monkeypatch.setattr(native_merge, "merge_rows",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1, 1, 2]}, [1, 2, 3])
        hfta.ingest_arrays(rel, 0, {"A": [2]}, [4])
        assert totals(hfta, rel, 0)[(1,)].count == 3
        assert calls
        exotic = HFTA()
        exotic.ingest_arrays(rel, 1, {"A": np.array([1.5, 1.5])}, [1, 1])
        exotic.ingest_arrays(rel, 1, {"A": np.array([1.5])}, [1])
        del calls[:]
        assert totals(exotic, rel, 1) == {(1,): GroupAggregate(3)}
        assert not calls

    def test_no_ckernel_env_forces_fallback(self, numpy_kernels):
        assert not native_merge.kernel_available()
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1, 1]}, [1, 2], [0.5, 0.25])
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [4], [0.125])
        agg = totals(hfta, rel, 0)[(1,)]
        assert agg == GroupAggregate(7, 0.875, math.inf, -math.inf)


class TestBoundedMemory:
    """Folding is the memory-bounding step: raw batch lists are released
    and only one row per group remains."""

    def test_fold_releases_batch_lists(self):
        hfta = HFTA()
        rel = A("A")
        for i in range(50):
            hfta.ingest_arrays(rel, 0, {"A": [i % 4]}, [1], [float(i)])
        assert len(hfta._batches[(rel, 0)]) == 50
        totals(hfta, rel, 0)
        assert (rel, 0) not in hfta._batches
        assert hfta._columnar[(rel, 0)].n_groups == 4

    def test_finalize_epoch_folds_only_that_epoch(self):
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [1])
        hfta.ingest_arrays(rel, 1, {"A": [1]}, [2])
        assert hfta.finalize_epoch(0) == 1
        assert (rel, 0) in hfta._columnar
        assert (rel, 1) in hfta._batches
        assert hfta.finalize_epoch(0) == 0  # idempotent
        assert hfta.finalize() == 1
        assert not hfta._batches

    def test_live_system_holds_no_closed_epoch_batches(self):
        """The live runtime simulates an epoch's buffered records at the
        close and finalizes the HFTA in the same step, so no raw
        eviction batch ever outlives its epoch — the HFTA footprint is
        folded per-group state only, regardless of stream length."""
        from repro import QuerySet, StreamSchema, plan
        from repro.core.feeding_graph import FeedingGraph
        from repro.gigascope.online import LiveStreamSystem
        from repro.workloads import (
            make_group_universe,
            measure_statistics,
            uniform_dataset,
        )

        schema = StreamSchema(("A", "B"))
        universe = make_group_universe(schema, (6, 12), value_pool=16,
                                       seed=3)
        dataset = uniform_dataset(universe, 3000, duration=30.0, seed=5)
        queries = QuerySet.counts(["AB"], epoch_seconds=1.0)
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        live = LiveStreamSystem(schema, queries, plan(queries, stats,
                                                      memory=200))
        step = 200
        for start in range(0, len(dataset), step):
            cols = {a: dataset.columns[a][start:start + step]
                    for a in schema.attributes}
            live.push(cols, dataset.timestamps[start:start + step])
            assert not live.hfta._batches
        live.finish()
        assert not live.hfta._batches
        assert len(live.epoch_reports) >= 25
        # Every closed epoch holds compact columnar state: one row per
        # group, bounded by the (6 * 12)-group universe.
        for state in live.hfta._columnar.values():
            assert state.n_groups <= 72


class TestColumnarInterface:
    def test_totals_columnar_shape(self):
        hfta = HFTA()
        rel = A("AB")
        hfta.ingest_arrays(rel, 0, {"A": [1, 1, 2], "B": [5, 5, 6]},
                           [1, 2, 3], [0.5, 1.5, 2.5])
        state = hfta.totals_columnar(rel, 0)
        assert isinstance(state, ColumnarTotals)
        assert state.names == ("A", "B")
        assert state.n_groups == 2
        assert state.counts.dtype == np.int64
        assert state.counts.tolist() == [3, 3]
        assert state.value_sums.tolist() == [2.0, 2.5]
        assert state.group_tuples() == [(1, 5), (2, 6)]

    def test_never_fed_key_is_none(self):
        hfta = HFTA()
        assert hfta.totals_columnar(A("A"), 0) is None
        assert totals(hfta, A("A"), 0) == {}

    def test_first_appearance_group_order(self):
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [7, 2, 7, 5]}, [1, 1, 1, 1])
        state = hfta.totals_columnar(rel, 0)
        assert state.group_tuples() == [(7,), (2,), (5,)]
        # Later batches append new groups after existing ones.
        hfta.ingest_arrays(rel, 0, {"A": [1, 2]}, [1, 1])
        state = hfta.totals_columnar(rel, 0)
        assert state.group_tuples() == [(7,), (2,), (5,), (1,)]

    def test_merge_counters_travel_with_merge_from(self):
        a, b = HFTA(), HFTA()
        rel = A("A")
        a.ingest_arrays(rel, 0, {"A": [1, 1]}, [1, 1])
        totals(a, rel, 0)
        b.ingest_arrays(rel, 0, {"A": [2, 2]}, [1, 1])
        totals(b, rel, 0)
        folds_before = a.folds + b.folds
        a.merge_from(b)
        assert a.folds == folds_before
        totals(a, rel, 0)
        assert a.folds == folds_before + 1
        assert a.rows_folded >= 4
