"""Differential pins for the columnar HFTA.

The HFTA (packed key columns + int64/float64 aggregate arrays, folded
on arrival by a vectorized numpy fold) promises answers *bit-identical*
to the dict-of-``GroupAggregate`` HFTA it replaced. These tests pin
that promise:

* hypothesis workloads compared against a literal sequential reference
  (per-row dict accumulation in arrival order — exactly the float
  addition sequence the pre-columnar merge performed), batch after
  batch, so the state-rows-first re-fold path is exercised, not just
  the first fold;
* ``query_answer`` compared against a brute-force per-record oracle for
  every aggregate kind, including NaN values, the ``±inf`` sentinels of
  value-less workloads, and the ``having_min`` boundary;
* a NaN sum written as ``np.nan``'s bits, as the ingest walk's C fold
  writes it.

Plus the memory-bounding contract (a key holds one row per group) and
the input check of ``ingest_arrays``.
"""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.queries import Aggregate, AggregationQuery
from repro.gigascope.hfta import HFTA, ColumnarTotals, _fold_rows_numpy
from tests.hfta_totals import GroupAggregate, totals

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
    # After which batches to read the key (an answer taken between two
    # folds must not change what the later fold holds).
    folds = draw(st.sets(st.integers(0, len(batches) - 1)))
    return batches, folds


class TestDifferentialVsReference:
    @given(workload=_workload())
    @settings(max_examples=120)
    def test_totals_bit_identical(self, workload):
        """Batch after batch, interleaved with reads, produces exactly
        the reference's per-group count/sum/min/max — float bits
        included."""
        batches, folds = workload
        rel = A("AB")
        hfta = HFTA()
        for i, batch in enumerate(batches):
            hfta.ingest_arrays(rel, 0, *batch)
            if i in folds:
                totals(hfta, rel, 0)
        _assert_totals_equal(totals(hfta, rel, 0),
                             _reference_totals(batches, ("A", "B")))

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
    """The HFTA's numpy fold writes what the ingest walk's C fold writes
    (the walk's side: ``test_walk_fold.py``)."""

    def test_nan_sums_are_numpy_nan(self):
        """Where NaNs meet, or ``inf`` meets ``-inf``, which NaN a sum
        ends on depends on the operand order; the fold writes every NaN
        sum as ``np.nan``'s bits."""
        nan_bits = np.array([np.nan]).tobytes()
        cols = [np.array([1, 1, 2, 2, 3, 3], dtype=np.int64)]
        vs = np.array([-np.nan, np.nan, np.inf, -np.inf, np.nan, -np.nan])
        _, _, sums, _, _ = _fold_rows_numpy(
            cols, np.ones(6, dtype=np.int64), vs, vs, vs)
        assert [s.tobytes() for s in sums] == [nan_bits] * 3

    def test_nan_fold_warns_nothing(self):
        """NaN minima and maxima are defined input: the numpy fold lets
        them propagate without a ``RuntimeWarning``, and the error state
        it silences them under stays inside it."""
        hfta = HFTA()
        rel = A("A")
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):  # a fresh state, then one that is held
                hfta.ingest_arrays(rel, 0, {"A": [1, 1, 2]}, [1, 1, 1],
                                   [math.nan, 2.0, 1.0],
                                   [math.nan, 2.0, 1.0],
                                   [math.nan, 2.0, 1.0])
        state = hfta.totals_columnar(rel, 0)
        assert np.isnan(state.value_mins[0]) and np.isnan(
            state.value_maxs[0])
        assert state.value_mins[1] == state.value_maxs[1] == 1.0
        assert np.geterr() == before

    def test_second_batch_extends_the_first(self):
        """A second batch of a key folds into the held state: counts and
        sums add, and batches without minima and maxima leave them at
        +-inf."""
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1, 1]}, [1, 2], [0.5, 0.25])
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [4], [0.125])
        agg = totals(hfta, rel, 0)[(1,)]
        assert agg == GroupAggregate(7, 0.875, math.inf, -math.inf)


class TestBoundedMemory:
    """Every batch is folded on arrival: a key holds one row per group."""

    def test_live_system_holds_no_closed_epoch_batches(self):
        """The live runtime simulates an epoch's buffered records at the
        close, and the HFTA folds them as they arrive: its footprint is
        folded per-group state only, after every push, regardless of
        stream length."""
        from repro import QuerySet, StreamSchema, plan
        from repro.core.feeding_graph import FeedingGraph
        from repro.gigascope.online import LiveStreamSystem
        from repro.workloads import (
            make_group_universe,
            measure_statistics,
            uniform_dataset,
        )

        def assert_bounded(hfta):
            # Every closed epoch holds compact columnar state: one row
            # per group, bounded by the (6 * 12)-group universe.
            assert set(vars(hfta)) == {
                "_columnar", "evictions_received", "folds", "rows_folded"}
            for state in hfta._columnar.values():
                assert state.n_groups <= 72

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
            assert_bounded(live.hfta)
        live.finish()
        assert_bounded(live.hfta)
        assert len(live.epoch_reports) >= 25


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

    def test_legacy_pending_batches_fold_on_restore(self):
        """A pickled HFTA from before every producer folded on arrival
        holds unfolded batches per key: restoring folds them after the
        key's state, in arrival order, and leaves the eviction count
        as it was."""
        rel = A("A")
        legacy = HFTA()
        legacy.ingest_arrays(rel, 0, {"A": [1]}, [2], [0.5])
        state = dict(vars(legacy), evictions_received=4, _batches={
            (rel, 0): [({"A": np.array([2, 1])}, np.array([1, 1]),
                        np.array([0.25, 0.125]), None, None)],
            (rel, 1): [({"A": np.array([3])}, np.array([1]),
                        np.array([1.0]), np.array([1.0]),
                        np.array([1.0]))]})
        restored = HFTA.__new__(HFTA)
        restored.__setstate__(state)
        assert "_batches" not in vars(restored)
        assert restored.evictions_received == 4
        assert totals(restored, rel, 0) == {
            (1,): GroupAggregate(3, 0.625, math.inf, -math.inf),
            (2,): GroupAggregate(1, 0.25, math.inf, -math.inf)}
        assert totals(restored, rel, 1) == {
            (3,): GroupAggregate(1, 1.0, 1.0, 1.0)}

    def test_legacy_hand_over_marks_restore(self):
        """A pickled HFTA from when sharded runs handed HFTAs on carries
        its set of handed-over keys: restoring drops it, and the answers
        and counters are those of the HFTA that was pickled."""
        rel = A("AB")
        hfta = HFTA()
        hfta.ingest_arrays(rel, 0, {"A": [1, 2, 1], "B": [3, 4, 3]},
                           [1, 2, 3], [0.5, 0.25, 0.125])
        hfta.ingest_arrays(rel, 1, {"A": [5], "B": [6]}, [1], [1.0])
        legacy = copy.copy(hfta)
        legacy._continued = {(rel, 0)}
        restored = pickle.loads(pickle.dumps(legacy))
        assert "_continued" not in vars(restored)
        assert set(vars(restored)) == set(vars(hfta))
        for epoch in (0, 1):
            assert totals(restored, rel, epoch) == totals(hfta, rel, epoch)
        assert (restored.evictions_received, restored.folds,
                restored.rows_folded) == (hfta.evictions_received,
                                          hfta.folds, hfta.rows_folded)
        query = AggregationQuery(rel, Aggregate("sum", "v"),
                                 epoch_seconds=1.0)
        assert restored.all_answers(query) == hfta.all_answers(query)
        # a fold after the restore counts as a fold of its own
        restored.ingest_arrays(rel, 0, {"A": [1], "B": [3]}, [1])
        assert restored.folds == hfta.folds + 1

    @pytest.mark.parametrize("columns, counts", [
        ({"A": [1, 2]}, [1, 1]),                          # B missing
        ({"A": [1, 2], "B": [3, 4], "C": [5, 6]}, [1, 1]),  # C extra
        ({"A": [1, 2, 3], "B": [3, 4, 5]}, [1, 1]),       # longer keys
        ({"A": [1], "B": [3]}, [1, 1]),                   # shorter keys
        ({"A": [1, 2], "B": [3, 4]}, [[1, 1]]),           # 2-D counts
    ])
    def test_a_malformed_batch_changes_nothing(self, columns, counts):
        """A batch whose columns are not the relation's, or whose arrays
        do not have one row per count, is refused before the key's
        state or any counter moves."""
        hfta = HFTA()
        rel = A("AB")
        hfta.ingest_arrays(rel, 0, {"A": [1], "B": [2]}, [4], [0.5])
        before = (totals(hfta, rel, 0), hfta.evictions_received,
                  hfta.folds, hfta.rows_folded)
        with pytest.raises(ValueError, match="a batch for AB"):
            hfta.ingest_arrays(rel, 0, columns, counts)
        with pytest.raises(ValueError, match="a batch for AB"):
            hfta.ingest_arrays(rel, 0, {"A": [1, 2], "B": [3, 4]}, [1, 1],
                               [0.5])  # a value array one row short
        assert (totals(hfta, rel, 0), hfta.evictions_received,
                hfta.folds, hfta.rows_folded) == before
        assert hfta.query_answer(AggregationQuery(rel), 0) == {(1, 2): 4.0}
