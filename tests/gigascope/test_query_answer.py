"""The lazy query answer: ``HFTA.query_answer`` returns a ``QueryAnswer``.

A ``QueryAnswer`` is a read-only ``Mapping`` over one key's folded
columnar state. These tests pin what callers may rely on: it compares
equal to the plain dict it stands for (either side of ``==``), ``len()``
and the columnar accessors never build Python group tuples, an answer is
a snapshot that later ingestion does not change, it pickles, and every
aggregate kind equals the value derived from the dict of
``tests/hfta_totals.totals``.
"""

import pickle
from contextlib import nullcontext

import numpy as np
import pytest

from repro import QueryAnswer
from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.queries import Aggregate, AggregationQuery
from repro.gigascope.engine import simulate
from repro.gigascope.hfta import HFTA
from tests.conftest import numpy_kernels_off
from tests.hfta_totals import totals
from tests.references import abc_stream

AB = AttributeSet.parse("AB")
KINDS = ("count", "sum", "avg", "min", "max")


@pytest.fixture(params=[nullcontext, numpy_kernels_off],
                ids=["kernels", "numpy_kernels"])
def mode(request):
    with request.param():
        yield


def fed_hfta() -> HFTA:
    """Two batches for (AB, 0): groups (1,1) x3, (2,1) x1, (1,2) x2."""
    hfta = HFTA()
    hfta.ingest_arrays(AB, 0, {"A": np.array([1, 2, 1]),
                               "B": np.array([1, 1, 2])},
                       np.array([2, 1, 1]), np.array([5.0, 1.5, 2.0]),
                       np.array([1.0, 1.5, 2.0]), np.array([4.0, 1.5, 2.0]))
    hfta.ingest_arrays(AB, 0, {"A": np.array([1, 1]), "B": np.array([1, 2])},
                       np.array([1, 1]), np.array([3.0, 0.5]),
                       np.array([3.0, 0.5]), np.array([3.0, 0.5]))
    return hfta


def query(kind="count", having_min=None) -> AggregationQuery:
    agg = Aggregate(kind) if kind == "count" else Aggregate(kind, "v")
    return AggregationQuery(AB, agg, having_min=having_min)


def expected_from_totals(hfta, q, epoch) -> dict:
    """The answer derived group by group from the ``totals()`` path."""
    out = {}
    for group, agg in totals(hfta, q.group_by, epoch).items():
        if q.having_min is not None and agg.count < q.having_min:
            continue
        out[group] = {"count": float(agg.count), "sum": agg.value_sum,
                      "avg": agg.value_sum / agg.count if agg.count else 0.0,
                      "min": agg.value_min,
                      "max": agg.value_max}[q.aggregate.kind]
    return out


class TestEquality:
    def test_equal_to_dict_both_directions(self, mode):
        answer = fed_hfta().query_answer(query(), 0)
        expected = {(1, 1): 3.0, (2, 1): 1.0, (1, 2): 2.0}
        assert isinstance(answer, QueryAnswer)
        assert answer == expected and expected == answer
        assert not (answer != expected) and not (expected != answer)
        other = {**expected, (2, 1): 9.0}
        assert answer != other and other != answer
        assert answer != {} and {} != answer

    def test_never_fed_key_equals_empty_dict(self):
        answer = fed_hfta().query_answer(query(), 7)
        assert answer == {} and {} == answer
        assert not answer and len(answer) == 0
        assert list(answer.columns) == ["A", "B"]
        assert answer.array.shape == (0,)

    def test_fully_filtered_key_equals_empty_dict(self):
        answer = fed_hfta().query_answer(query(having_min=10), 0)
        assert answer == {} and {} == answer
        assert not answer and answer.array.shape == (0,)

    def test_equal_to_another_answer(self):
        hfta = fed_hfta()
        assert hfta.query_answer(query(), 0) == hfta.query_answer(query(), 0)
        assert hfta.query_answer(query(), 0) != \
            hfta.query_answer(query("sum"), 0)

    def test_answers_in_the_same_row_order_compare_without_tuples(self):
        first, second = fed_hfta(), fed_hfta()
        assert first.query_answer(query("avg"), 0) == \
            second.query_answer(query("avg"), 0)
        assert first.totals_columnar(AB, 0)._tuples is None
        assert second.totals_columnar(AB, 0)._tuples is None

    def test_answers_in_another_row_order_compare_as_dicts(self):
        def fed(a, b, counts):
            hfta = HFTA()
            hfta.ingest_arrays(AB, 0, {"A": np.array(a), "B": np.array(b)},
                               np.array(counts))
            return hfta.query_answer(query(), 0)

        forward = fed([1, 2], [1, 1], [3, 1])
        assert forward == fed([2, 1], [1, 1], [1, 3])
        assert forward != fed([2, 1], [1, 1], [3, 1])
        assert forward != fed([1], [1], [3])

    def test_not_equal_to_non_mappings(self):
        answer = fed_hfta().query_answer(query(), 0)
        assert answer != [(1, 1)] and answer != None  # noqa: E711

    def test_unhashable_like_a_dict(self):
        with pytest.raises(TypeError):
            hash(fed_hfta().query_answer(query(), 0))


class TestLaziness:
    def test_len_under_having_builds_no_tuples(self, mode):
        hfta = fed_hfta()
        answer = hfta.query_answer(query(having_min=2), 0)
        state = hfta.totals_columnar(AB, 0)
        counts = state.counts
        assert len(answer) == int(np.count_nonzero(counts >= 2)) == 2
        assert answer
        assert answer.columns["A"].tolist() == [1, 1]
        assert answer.array.tolist() == [3.0, 2.0]
        assert state._tuples is None
        assert answer[(1, 1)] == 3.0
        assert state._tuples is not None

    def test_columns_and_array_align_with_items(self, mode):
        answer = fed_hfta().query_answer(query("avg", having_min=2), 0)
        cols = answer.columns
        rows = zip(cols["A"].tolist(), cols["B"].tolist(),
                   answer.array.tolist())
        assert {(a, b): v for a, b, v in rows} == dict(answer.items())

    def test_accessors_are_read_only(self):
        hfta = fed_hfta()
        for q in (query(), query("sum"), query("sum", having_min=2)):
            answer = hfta.query_answer(q, 0)
            with pytest.raises(ValueError):
                answer.array[0] = -1.0
            with pytest.raises(ValueError):
                answer.columns["A"][0] = -1
        assert hfta.query_answer(query("sum"), 0)[(1, 1)] == 8.0

    def test_mapping_protocol(self):
        answer = fed_hfta().query_answer(query(), 0)
        assert (1, 1) in answer and (9, 9) not in answer
        assert answer.get((9, 9), -1.0) == -1.0
        assert list(answer) == list(answer.keys()) == \
            [(1, 1), (2, 1), (1, 2)]
        assert list(answer.values()) == [3.0, 1.0, 2.0]
        with pytest.raises(KeyError):
            answer[(9, 9)]
        assert repr(answer).startswith("QueryAnswer({")


class TestSnapshot:
    def test_answer_keeps_its_values_after_more_ingest(self, mode):
        hfta = fed_hfta()
        before = hfta.query_answer(query("sum"), 0)
        held_len = len(before)
        hfta.ingest_arrays(AB, 0, {"A": np.array([1, 3]),
                                   "B": np.array([1, 3])},
                           np.array([1, 1]), np.array([10.0, 7.0]))
        assert len(before) == held_len
        assert before == {(1, 1): 8.0, (2, 1): 1.5, (1, 2): 2.5}
        after = hfta.query_answer(query("sum"), 0)
        assert after == {(1, 1): 18.0, (2, 1): 1.5, (1, 2): 2.5,
                         (3, 3): 7.0}
        assert before != after

    def test_pickle_round_trip(self, mode):
        hfta = fed_hfta()
        for q in (query(), query("avg", having_min=2)):
            answer = hfta.query_answer(q, 0)
            answer[(1, 1)]  # materialized dicts are not pickled
            clone = pickle.loads(pickle.dumps(answer))
            assert isinstance(clone, QueryAnswer)
            assert clone._state._tuples is None
            assert clone == answer and len(clone) == len(answer)
            np.testing.assert_array_equal(clone.array, answer.array)


class TestAgainstEngine:
    @pytest.fixture(scope="class")
    def dataset(self):
        return abc_stream(5, 1200, 5, 6.0, clustered=True)

    def run(self, dataset, group_by):
        return simulate(dataset, Configuration.flat([group_by]),
                        {group_by: 7}, 2.0, value_column="v")

    def test_count_conserves_epoch_records(self, mode, dataset):
        group_by = AttributeSet.parse("AB")
        hfta = self.run(dataset, group_by).hfta
        epochs = np.floor(dataset.timestamps / 2.0).astype(int)
        q = AggregationQuery(group_by)
        assert hfta.epochs(group_by) == sorted(set(epochs.tolist()))
        for epoch, answer in hfta.all_answers(q).items():
            assert sum(answer.values()) == np.count_nonzero(epochs == epoch)
            assert answer.array.sum() == np.count_nonzero(epochs == epoch)

    @pytest.mark.parametrize("having_min", [None, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_matches_totals(self, mode, dataset, kind, having_min):
        group_by = AttributeSet.parse("AC")
        hfta = self.run(dataset, group_by).hfta
        agg = Aggregate(kind) if kind == "count" else Aggregate(kind, "v")
        q = AggregationQuery(group_by, agg, having_min=having_min)
        answers = hfta.all_answers(q)
        assert answers
        for epoch, answer in answers.items():
            expected = expected_from_totals(hfta, q, epoch)
            assert answer == expected and expected == answer
            assert len(answer) == len(expected)
