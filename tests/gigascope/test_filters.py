"""Tests for filters and transforms (the F and T of FTA)."""

import numpy as np
import pytest

from repro import AttributeSet, Configuration, QuerySet, StreamSchema, StreamSystem
from repro.errors import SchemaError
from repro.gigascope.filters import (
    And,
    BitMask,
    Bucketize,
    Comparison,
    Not,
    Or,
    filter_dataset,
    with_derived_attribute,
)
from repro.gigascope.records import Dataset


def make_dataset():
    schema = StreamSchema(("A", "B"), value_columns=("len",))
    return Dataset(
        schema,
        {"A": np.array([1, 2, 3, 4, 5]), "B": np.array([10, 20, 30, 40, 50])},
        np.arange(5.0),
        {"len": np.array([100.0, 200.0, 300.0, 400.0, 500.0])},
    )


class TestComparison:
    @pytest.mark.parametrize("op,expected", [
        ("=", [False, True, False, False, False]),
        ("==", [False, True, False, False, False]),
        ("!=", [True, False, True, True, True]),
        ("<", [True, False, False, False, False]),
        ("<=", [True, True, False, False, False]),
        (">", [False, False, True, True, True]),
        (">=", [False, True, True, True, True]),
    ])
    def test_operators(self, op, expected):
        data = make_dataset()
        mask = Comparison("A", op, 2).mask(data.columns)
        assert mask.tolist() == expected

    def test_unknown_operator(self):
        with pytest.raises(SchemaError):
            Comparison("A", "~", 2)

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            Comparison("Z", "=", 2).mask(make_dataset().columns)

    def test_value_column_predicate(self):
        data = make_dataset()
        filtered = filter_dataset(data, Comparison("len", ">=", 300))
        assert len(filtered) == 3


class TestCombinators:
    def test_and(self):
        data = make_dataset()
        pred = And(Comparison("A", ">", 1), Comparison("A", "<", 4))
        assert pred.mask(data.columns).tolist() == \
            [False, True, True, False, False]

    def test_or(self):
        data = make_dataset()
        pred = Or(Comparison("A", "=", 1), Comparison("A", "=", 5))
        assert pred.mask(data.columns).tolist() == \
            [True, False, False, False, True]

    def test_not(self):
        data = make_dataset()
        pred = Not(Comparison("A", ">", 3))
        assert pred.mask(data.columns).tolist() == \
            [True, True, True, False, False]

    def test_empty_and_is_true(self):
        assert And().mask(make_dataset().columns).all()

    def test_empty_or_is_false(self):
        assert not Or().mask(make_dataset().columns).any()

    def test_referenced_columns(self):
        pred = And(Comparison("A", ">", 1), Or(Comparison("B", "<", 5)))
        assert pred.referenced_columns() == {"A", "B"}

    def test_str_renders(self):
        pred = Not(And(Comparison("A", ">", 1)))
        assert "A > 1" in str(pred)


class TestFilterDataset:
    def test_keeps_alignment(self):
        data = make_dataset()
        filtered = filter_dataset(data, Comparison("A", ">", 3))
        assert filtered.columns["B"].tolist() == [40, 50]
        assert filtered.timestamps.tolist() == [3.0, 4.0]
        assert filtered.values["len"].tolist() == [400.0, 500.0]

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            filter_dataset(make_dataset(), Comparison("Z", "=", 1))


class TestTransforms:
    def test_bitmask_groups_by_prefix(self):
        data = make_dataset()
        derived = with_derived_attribute(
            data, "A_hi", BitMask("A", keep_bits=30))
        # Values 1..5 with the low 2 bits dropped: 0,0,0,4,4
        assert derived.columns["A_hi"].tolist() == [0, 0, 0, 4, 4]
        assert "A_hi" in derived.schema.attributes

    def test_bucketize(self):
        data = make_dataset()
        derived = with_derived_attribute(
            data, "B_bin", Bucketize("B", width=25))
        assert derived.columns["B_bin"].tolist() == [0, 0, 1, 1, 2]

    def test_bucketize_value_column(self):
        data = make_dataset()
        derived = with_derived_attribute(
            data, "len_bin", Bucketize("len", width=250))
        assert derived.columns["len_bin"].tolist() == [0, 0, 1, 1, 2]

    def test_duplicate_name_rejected(self):
        with pytest.raises(SchemaError):
            with_derived_attribute(make_dataset(), "A", Bucketize("B", 10))

    def test_bad_parameters(self):
        with pytest.raises(SchemaError):
            BitMask("A", keep_bits=0)
        with pytest.raises(SchemaError):
            Bucketize("A", width=0)
        for width in (np.nan, np.inf, -np.inf):
            with pytest.raises(SchemaError, match="finite"):
                Bucketize("A", width=width)

    def test_unknown_source_column(self):
        with pytest.raises(SchemaError):
            with_derived_attribute(make_dataset(), "X", Bucketize("Z", 10))

    def test_derived_attribute_is_groupable(self):
        """End to end: group by a derived subnet-style attribute."""
        data = make_dataset()
        derived = with_derived_attribute(
            data, "bin", Bucketize("B", width=25))
        bin_attr = AttributeSet.of("bin")  # multi-char name: not parse()
        queries = QuerySet.counts([bin_attr], epoch_seconds=100.0)
        config = Configuration.flat([bin_attr])
        report = StreamSystem(derived, queries, config,
                              {bin_attr: 8}).run()
        answers = report.answers(queries.query_for(bin_attr))
        assert answers[0] == {(0,): 2.0, (1,): 2.0, (2,): 1.0}


class TestRuntimeIntegration:
    def test_stream_system_where(self):
        data = make_dataset()
        queries = QuerySet.counts(["A"], epoch_seconds=100.0)
        config = Configuration.flat([AttributeSet.parse("A")])
        report = StreamSystem(data, queries, config,
                              {AttributeSet.parse("A"): 8},
                              where=Comparison("B", ">=", 30)).run()
        assert report.result.n_records == 3

    def test_live_system_where_matches_batch(self):
        from repro.core.optimizer import plan
        from repro.core.statistics import RelationStatistics
        from repro.gigascope.online import LiveStreamSystem
        data = make_dataset()
        queries = QuerySet.counts(["A"], epoch_seconds=2.0)
        stats = RelationStatistics.from_counts({"A": 5})
        p = plan(queries, stats, memory=64)
        where = Comparison("A", "!=", 3)
        live = LiveStreamSystem(data.schema, queries, p, where=where)
        live.push(data.columns, data.timestamps)
        live.finish()
        batch = StreamSystem.from_plan(data, queries, p, where=where).run()
        q = queries.query_for(AttributeSet.parse("A"))
        assert live.answers(q) == batch.answers(q)
        assert live.records_seen == len(data)
