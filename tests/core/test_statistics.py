"""Tests for RelationStatistics."""

import pytest

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.statistics import RelationStatistics
from repro.errors import StatisticsError


def A(label):
    return AttributeSet.parse(label)


class TestConstruction:
    def test_from_counts_labels(self):
        stats = RelationStatistics.from_counts({"A": 10, "AB": 30})
        assert stats.group_count(A("AB")) == 30

    def test_rejects_sub_one_groups(self):
        with pytest.raises(StatisticsError):
            RelationStatistics({A("A"): 0})

    def test_rejects_sub_one_flow(self):
        with pytest.raises(StatisticsError):
            RelationStatistics({A("A"): 10}, {A("A"): 0.5})

    def test_missing_relation_raises(self):
        stats = RelationStatistics.from_counts({"A": 10})
        with pytest.raises(StatisticsError):
            stats.group_count(A("B"))


class TestAccessors:
    def test_flow_length_defaults_to_one(self):
        stats = RelationStatistics.from_counts({"A": 10})
        assert stats.flow_length(A("A")) == 1.0

    def test_entry_units_counts_attrs_plus_counter(self):
        stats = RelationStatistics.from_counts({"ABCD": 10})
        assert stats.entry_units(A("ABCD")) == 5  # 4 attrs + 1 counter
        assert stats.entry_units(A("A")) == 2

    def test_entry_units_with_value_sum(self):
        stats = RelationStatistics.from_counts({"AB": 10}, counters=2)
        assert stats.entry_units(A("AB")) == 4

    def test_demand_score(self):
        """``g h / l`` for a stream-fed relation, ``g h`` for a fed one."""
        stats = RelationStatistics.from_counts(
            {"AB": 100, "ABC": 10}, {"AB": 4.0, "ABC": 2.0})
        config = Configuration.from_notation("ABC(AB)").with_stats(stats)
        index = config.universe.index
        assert config.demand_score(index[A("ABC")]) == \
            pytest.approx(10 * 4 / 2)
        assert config.demand_score(index[A("AB")]) == pytest.approx(100 * 3)

    def test_covered(self):
        stats = RelationStatistics.from_counts({"A": 10, "B": 20})
        assert stats.covered([A("A"), A("B")])
        assert not stats.covered([A("A"), A("C")])
