"""Tests for stream schemas and datasets."""

import numpy as np
import pytest

from repro.core.attributes import AttributeSet
from repro.errors import SchemaError
from repro.gigascope.records import Dataset, StreamSchema
from repro.workloads import mean_flow_length, one_record_per_flow


def make_dataset(n=10, epoch_spread=3.0):
    schema = StreamSchema(("A", "B"), value_columns=("len",))
    rng = np.random.default_rng(0)
    return Dataset(
        schema,
        {"A": rng.integers(0, 3, n), "B": rng.integers(0, 3, n)},
        np.linspace(0.0, epoch_spread, n),
        {"len": rng.uniform(40, 1500, n)},
    )


class TestSchema:
    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            StreamSchema(())

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            StreamSchema(("A", "A"))
        with pytest.raises(SchemaError):
            StreamSchema(("A",), value_columns=("A",))

    def test_attribute_set_validation(self):
        schema = StreamSchema(("A", "B", "C"))
        assert schema.attribute_set("AB").names == ("A", "B")
        with pytest.raises(SchemaError):
            schema.attribute_set("AD")

    def test_all_attributes(self):
        schema = StreamSchema(("B", "A"))
        assert schema.all_attributes == AttributeSet.parse("AB")


class TestDatasetValidation:
    def test_missing_column(self):
        schema = StreamSchema(("A", "B"))
        with pytest.raises(SchemaError):
            Dataset(schema, {"A": np.arange(3)}, np.arange(3.0))

    def test_wrong_length(self):
        schema = StreamSchema(("A",))
        with pytest.raises(SchemaError):
            Dataset(schema, {"A": np.arange(4)}, np.arange(3.0))

    def test_non_integer_column(self):
        schema = StreamSchema(("A",))
        with pytest.raises(SchemaError):
            Dataset(schema, {"A": np.linspace(0, 1, 3)}, np.arange(3.0))

    def test_unsorted_timestamps(self):
        schema = StreamSchema(("A",))
        for times in ([0.0, 2.0, 1.0],
                      # Not finite: a NaN anywhere fails the order pass.
                      [0.0, np.nan, 1.0], [np.nan, 1.0, 2.0],
                      [0.0, 1.0, np.nan], [-np.inf, 1.0, 2.0],
                      [0.0, 1.0, np.inf]):
            with pytest.raises(SchemaError, match="finite"):
                Dataset(schema, {"A": np.arange(3)}, np.array(times))
        with pytest.raises(SchemaError):
            Dataset(schema, {"A": np.arange(1)}, np.array(5.0))

    def test_undeclared_value_column(self):
        schema = StreamSchema(("A",))
        with pytest.raises(SchemaError):
            Dataset(schema, {"A": np.arange(3)}, np.arange(3.0),
                    {"len": np.arange(3.0)})

    def test_value_columns_are_optional(self):
        schema = StreamSchema(("A",), value_columns=("len",))
        data = Dataset(schema, {"A": np.arange(3)}, np.arange(3.0))
        assert data.values == {}


class TestEpochSlices:
    def test_covers_everything_in_order(self):
        data = make_dataset(n=50, epoch_spread=4.9)
        slices = list(data.epoch_slices(1.0))
        assert slices[0][1] == 0 and slices[-1][2] == 50
        for (_, _, end), (_, start, _) in zip(slices, slices[1:]):
            assert end == start

    def test_epoch_ids_are_absolute(self):
        schema = StreamSchema(("A",))
        data = Dataset(schema, {"A": np.arange(4)},
                       np.array([59.0, 61.0, 119.0, 121.0]))
        ids = [eid for eid, _, _ in data.epoch_slices(60.0)]
        assert ids == [0, 1, 2]

    def test_single_epoch(self):
        data = make_dataset(n=10, epoch_spread=0.5)
        assert len(list(data.epoch_slices(10.0))) == 1

    def test_rejects_bad_epoch(self):
        with pytest.raises(SchemaError):
            list(make_dataset().epoch_slices(0))


class TestStatisticsHelpers:
    def test_group_count(self):
        schema = StreamSchema(("A", "B"))
        data = Dataset(schema,
                       {"A": np.array([1, 1, 2]), "B": np.array([1, 1, 1])},
                       np.arange(3.0))
        assert data.group_count(AttributeSet.parse("AB")) == 2
        assert data.group_count(AttributeSet.parse("B")) == 1

    def test_mean_flow_length_of_runs(self):
        """A flow is gap-based, not a run of consecutive records."""
        schema = StreamSchema(("A",))
        data = Dataset(schema, {"A": np.array([1, 1, 1, 2, 2, 1])},
                       np.arange(6.0))
        # The last 1 comes 3 s after its group's previous record: at a
        # 1 s timeout it opens a third flow (6 records / 3 flows), at a
        # 3 s timeout it continues the first (6 / 2).
        assert mean_flow_length(data, "A", timeout=1.0) == 2.0
        assert mean_flow_length(data, "A", timeout=3.0) == 3.0

    def test_collapse_flows(self):
        schema = StreamSchema(("A",))
        data = Dataset(schema, {"A": np.array([1, 1, 2, 2, 2, 3])},
                       np.arange(6.0))
        collapsed = one_record_per_flow(data, "A", timeout=1.0)
        assert list(collapsed.columns["A"]) == [1, 2, 3]
        assert list(collapsed.timestamps) == [0.0, 2.0, 5.0]

    def test_head(self):
        data = make_dataset(n=10)
        assert len(data.head(4)) == 4
        assert data.head(4).duration <= data.duration
