"""Tests for dataset save/load."""

import numpy as np
import pytest

from repro import StreamSchema
from repro.errors import SchemaError
from repro.gigascope.records import Dataset
from repro.workloads import make_group_universe, uniform_dataset
from repro.workloads.io import load_csv, load_npz, save_csv, save_npz
from tests.hfta_totals import totals


@pytest.fixture()
def dataset():
    schema = StreamSchema(("A", "B"), value_columns=("len",))
    universe = make_group_universe(schema, (5, 20), seed=1)
    return uniform_dataset(universe, 300, duration=4.0, seed=2,
                           value_column="len")


def assert_datasets_equal(a: Dataset, b: Dataset) -> None:
    assert a.schema.attributes == b.schema.attributes
    assert np.array_equal(a.timestamps, b.timestamps)
    for name in a.schema.attributes:
        assert np.array_equal(a.columns[name], b.columns[name])
    assert set(a.values) == set(b.values)
    for name in a.values:
        assert np.allclose(a.values[name], b.values[name])


class TestNpz:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "trace.npz"
        save_npz(dataset, path)
        assert_datasets_equal(dataset, load_npz(path))

    def test_roundtrip_without_values(self, tmp_path):
        schema = StreamSchema(("A",))
        data = Dataset(schema, {"A": np.arange(5)}, np.arange(5.0))
        path = tmp_path / "t.npz"
        save_npz(data, path)
        loaded = load_npz(path)
        assert loaded.values == {}
        assert_datasets_equal(data, loaded)

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(SchemaError):
            load_npz(path)


class TestCsv:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(dataset, path)
        loaded = load_csv(path, value_columns=("len",))
        assert_datasets_equal(dataset, loaded)

    def test_roundtrip_without_values(self, tmp_path):
        schema = StreamSchema(("A", "B"))
        data = Dataset(schema,
                       {"A": np.array([1, 2]), "B": np.array([3, 4])},
                       np.array([0.5, 1.5]))
        path = tmp_path / "t.csv"
        save_csv(data, path)
        assert_datasets_equal(data, load_csv(path))

    def test_missing_time_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_unknown_value_column(self, dataset, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(dataset, path)
        with pytest.raises(SchemaError):
            load_csv(path, value_columns=("nope",))

    def test_loaded_dataset_is_usable(self, dataset, tmp_path):
        """Round-tripped data runs through the engine identically."""
        from repro import Configuration
        from repro.gigascope.engine import simulate
        path = tmp_path / "trace.csv"
        save_csv(dataset, path)
        loaded = load_csv(path, value_columns=("len",))
        config = Configuration.from_notation("AB(A B)")
        buckets = {rel: 8 for rel in config.relations}
        a = simulate(dataset, config, buckets, epoch_seconds=2.0)
        b = simulate(loaded, config, buckets, epoch_seconds=2.0)
        for leaf in config.leaves:
            for epoch in a.hfta.epochs(leaf):
                assert totals(a.hfta, leaf, epoch) == \
                    totals(b.hfta, leaf, epoch)
