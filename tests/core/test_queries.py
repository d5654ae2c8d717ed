"""Unit tests for query specifications."""

import math

import pytest

from repro.core.attributes import AttributeSet
from repro.core.queries import Aggregate, AggregationQuery, QuerySet
from repro.errors import SchemaError


class TestAggregate:
    def test_default_is_count(self):
        assert Aggregate().kind == "count"
        assert Aggregate().label() == "count(*)"

    def test_sum_requires_column(self):
        with pytest.raises(SchemaError):
            Aggregate("sum")

    def test_count_rejects_column(self):
        with pytest.raises(SchemaError):
            Aggregate("count", "len")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            Aggregate("median", "len")

    def test_label(self):
        assert Aggregate().label() == "count(*)"
        assert Aggregate("sum", "len").label() == "sum(len)"


class TestAggregationQuery:
    def test_basic(self):
        q = AggregationQuery(AttributeSet.parse("AB"), epoch_seconds=300)
        assert q.epoch_seconds == 300
        assert "AB" in str(q)

    def test_rejects_empty_group_by(self):
        with pytest.raises(SchemaError):
            AggregationQuery(AttributeSet([]))

    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(SchemaError):
            AggregationQuery(AttributeSet.parse("A"), epoch_seconds=0)

    @pytest.mark.parametrize("epoch", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epoch(self, epoch):
        """NaN passes a ``<= 0`` check; a run planned with it keyed
        every answer to epoch -2**63."""
        with pytest.raises(SchemaError, match="finite"):
            QuerySet.counts(["AB", "CD"], epoch_seconds=epoch)

    def test_rejects_negative_having(self):
        with pytest.raises(SchemaError):
            AggregationQuery(AttributeSet.parse("A"), having_min=-1)

    def test_named_query(self):
        q = AggregationQuery(AttributeSet.parse("A"), name="per-source")
        assert q.display_name == "per-source"


class TestQuerySet:
    def test_counts_constructor(self):
        qs = QuerySet.counts(["AB", "BC"])
        assert [g.label() for g in qs.group_bys] == ["AB", "BC"]
        assert len(qs) == 2

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            QuerySet.counts(["AB", "BA"])

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            QuerySet([])

    def test_rejects_mixed_epochs(self):
        q1 = AggregationQuery(AttributeSet.parse("A"), epoch_seconds=60)
        q2 = AggregationQuery(AttributeSet.parse("B"), epoch_seconds=30)
        with pytest.raises(SchemaError):
            QuerySet([q1, q2])

    def test_all_attributes(self):
        qs = QuerySet.counts(["AB", "BC", "CD"])
        assert qs.all_attributes() == AttributeSet.parse("ABCD")

    def test_query_for(self):
        qs = QuerySet.counts(["AB", "BC"])
        assert qs.query_for(AttributeSet.parse("BC")).group_by.label() == "BC"
        with pytest.raises(KeyError):
            qs.query_for(AttributeSet.parse("AD"))

    def test_contains(self):
        qs = QuerySet.counts(["AB"])
        assert AttributeSet.parse("AB") in qs
        assert AttributeSet.parse("A") not in qs
        assert "AB" not in qs  # only AttributeSet keys
