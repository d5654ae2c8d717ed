"""Tests for HFTA merging and query answers."""

import numpy as np
import pytest

from repro.core.attributes import AttributeSet
from repro.core.queries import Aggregate, AggregationQuery
from repro.gigascope.hfta import HFTA
from tests.hfta_totals import totals


def A(label):
    return AttributeSet.parse(label)


class TestIngestAndTotals:
    def test_merges_partials_of_same_group(self):
        hfta = HFTA()
        rel = A("AB")
        hfta.ingest_arrays(rel, 0, {"A": [1, 1], "B": [2, 2]}, [3, 4],
                           [1.0, 2.0])
        hfta.ingest_arrays(rel, 0, {"A": [1], "B": [2]}, [5], [0.5])
        agg = totals(hfta, rel, 0)[(1, 2)]
        assert agg.count == 12
        assert agg.value_sum == pytest.approx(3.5)

    def test_epochs_kept_separate(self):
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [2])
        hfta.ingest_arrays(rel, 1, {"A": [1]}, [3])
        assert totals(hfta, rel, 0)[(1,)].count == 2
        assert totals(hfta, rel, 1)[(1,)].count == 3
        assert hfta.epochs(rel) == [0, 1]

    def test_relations_kept_separate(self):
        hfta = HFTA()
        hfta.ingest_arrays(A("A"), 0, {"A": [1]}, [2])
        hfta.ingest_arrays(A("B"), 0, {"B": [1]}, [9])
        assert totals(hfta, A("A"), 0)[(1,)].count == 2
        assert totals(hfta, A("B"), 0)[(1,)].count == 9

    def test_empty_batch_ignored(self):
        hfta = HFTA()
        hfta.ingest_arrays(A("A"), 0, {"A": np.array([], dtype=int)},
                           np.array([], dtype=int))
        assert hfta.evictions_received == 0
        assert totals(hfta, A("A"), 0) == {}

    def test_ingest_evictions_objects(self):
        """Two evictions of one group, each with its own partials."""
        hfta = HFTA()
        hfta.ingest_arrays(A("AB"), 0, {"A": [7, 7], "B": [8, 8]}, [2, 3],
                           [1.0, 2.0], [0.4, 0.1], [0.6, 1.9])
        agg = totals(hfta, A("AB"), 0)[(7, 8)]
        assert agg.count == 5
        assert agg.value_sum == pytest.approx(3.0)
        assert agg.value_min == pytest.approx(0.1)
        assert agg.value_max == pytest.approx(1.9)

    def test_cache_invalidation_on_new_batch(self):
        hfta = HFTA()
        rel = A("A")
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [1])
        assert totals(hfta, rel, 0)[(1,)].count == 1
        hfta.ingest_arrays(rel, 0, {"A": [1]}, [1])
        assert totals(hfta, rel, 0)[(1,)].count == 2


class TestQueryAnswers:
    def _hfta(self):
        hfta = HFTA()
        hfta.ingest_arrays(A("A"), 0, {"A": [1, 2]}, [150, 30],
                           [300.0, 90.0])
        return hfta

    def test_count(self):
        q = AggregationQuery(A("A"))
        assert self._hfta().query_answer(q, 0) == {(1,): 150.0, (2,): 30.0}

    def test_sum(self):
        q = AggregationQuery(A("A"), Aggregate("sum", "len"))
        assert self._hfta().query_answer(q, 0) == {(1,): 300.0, (2,): 90.0}

    def test_avg(self):
        q = AggregationQuery(A("A"), Aggregate("avg", "len"))
        assert self._hfta().query_answer(q, 0) == {(1,): 2.0, (2,): 3.0}

    def test_having_filters_small_groups(self):
        """The intro's 'more than 100 packets' query."""
        q = AggregationQuery(A("A"), having_min=100)
        assert self._hfta().query_answer(q, 0) == {(1,): 150.0}

    def test_all_answers(self):
        q = AggregationQuery(A("A"))
        hfta = self._hfta()
        hfta.ingest_arrays(A("A"), 3, {"A": [9]}, [1])
        answers = hfta.all_answers(q)
        assert set(answers) == {0, 3}
        assert answers[3] == {(9,): 1.0}
