"""Tests for stream schemas and datasets."""

import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.attributes import AttributeSet
from repro.errors import SchemaError
from repro.gigascope.records import Dataset, StreamSchema
from repro.workloads import mean_flow_length, one_record_per_flow
from tests.references import ref_epoch_slices


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


_EPOCHS = (1e-3, 0.1, 1 / 3, 3.7, 60.0)


def _stamped(times) -> Dataset:
    times = np.asarray(times, dtype=np.float64)
    return Dataset(StreamSchema(("A",)),
                   {"A": np.zeros(times.size, dtype=np.int64)}, times)


@st.composite
def _edge_times(draw, epoch):
    """``(epoch, sorted timestamps)``, the timestamps on and next to
    epoch edges ``k * epoch``."""
    # A few hundred consecutive edges: a few percent of them round
    # across, so every example exercises the fix-up.
    first = draw(st.integers(-10 ** 6, 10 ** 6))
    edges = np.arange(first, first + draw(st.integers(1, 400)),
                      dtype=np.float64) * epoch
    near = np.concatenate([np.nextafter(edges, -np.inf), edges,
                           np.nextafter(edges, np.inf)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    times = [np.repeat(near, rng.integers(0, 3, near.size))]
    if draw(st.booleans()):
        # A run of one timestamp at an edge, longer than any fix-up step.
        times.append(np.full(draw(st.integers(10_000, 12_000)),
                             rng.choice(near)))
    return epoch, np.sort(np.concatenate(times))


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

    @pytest.mark.parametrize("epoch", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_epoch(self, epoch):
        with pytest.raises(SchemaError, match="finite"):
            list(make_dataset().epoch_slices(epoch))

    def test_rejects_epoch_ids_beyond_int64(self):
        with pytest.raises(SchemaError, match="int64"):
            list(_stamped([0.0, 1e300]).epoch_slices(1e-3))
        with pytest.raises(SchemaError, match="int64"):
            list(_stamped([-2.0 ** 64, 0.0]).epoch_slices(1.0))

    @pytest.mark.parametrize("epoch, times, want", [
        # 7 * (1/3) rounds down to 2.333333333333333, whose quotient
        # rounds to 6.999999999999999: at the edge, still epoch 6.
        (1 / 3, [2.0, 2.333333333333333, 2.4], [(6, 0, 2), (7, 2, 3)]),
        # 0.9999999999999999 / (1/3) rounds up to 3.0: below the edge
        # 1.0, already epoch 3.
        (1 / 3, [0.5, 0.9999999999999999, 1.0], [(1, 0, 1), (3, 1, 3)]),
        # The quotient underflows to -0.0, whose floor is epoch 0.
        (60.0, [-5e-324, 0.0], [(0, 0, 2)]),
    ])
    def test_quotient_not_edge_decides(self, epoch, times, want):
        assert list(_stamped(times).epoch_slices(epoch)) == want
        assert ref_epoch_slices(times, epoch) == want

    @given(st.sampled_from(_EPOCHS).flatmap(_edge_times))
    @example((1 / 3, np.array([2.0] + [2.333333333333333] * 10_000)))
    @example((0.1, np.array([-25.200000000000003, -25.2, -25.1])))
    def test_search_cut_equals_floor_cut(self, case):
        """The search-based cut yields the floor/diff pass's slices on
        edges ``k * e``, their float neighbours, long runs of one
        timestamp at an edge, and negative times."""
        epoch, times = case
        assert list(_stamped(times).epoch_slices(epoch)) == \
            ref_epoch_slices(times, epoch)

    def test_empty_epochs_cost_nothing(self):
        """A gap of 10**12 empty epochs is one binary search."""
        times = [-3.7, 0.0, 1e12 * 3.7, 1e12 * 3.7, 2e12 * 3.7 + 1.0]
        began = time.perf_counter()
        got = list(_stamped(times).epoch_slices(3.7))
        assert time.perf_counter() - began < 0.5
        assert got == ref_epoch_slices(times, 3.7)
        assert [eid for eid, _, _ in got] == [-1, 0, 10 ** 12, 2 * 10 ** 12]


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


def test_value_nans_enter_as_numpy_nan():
    """Every NaN of a value column enters as ``np.nan``'s bits; a column
    whose NaNs all are is taken as it is, one with another NaN copied."""
    schema = StreamSchema(("A",), value_columns=("v",))
    t = np.arange(4, dtype=np.float64)
    cols = {"A": np.zeros(4, dtype=np.int64)}
    plain = np.array([1.0, np.nan, -2.0, 3.0])
    assert Dataset(schema, cols, t, {"v": plain}).values["v"] is plain
    signed = np.array([1.0, -np.nan, np.nan, -np.inf])
    payload = np.array([0x7FF8000000000001, 0], dtype=np.uint64).view(
        np.float64)
    for raw in (signed, np.concatenate([payload, [1.0, 2.0]])):
        before = raw.tobytes()
        taken = Dataset(schema, cols, t, {"v": raw}).values["v"]
        assert raw.tobytes() == before  # the caller's array is untouched
        nan = np.isnan(raw)
        assert np.array_equal(np.isnan(taken), nan)
        assert (taken[nan].view(np.uint64)
                == np.float64(np.nan).view(np.uint64)).all()
        assert np.array_equal(taken[~nan], raw[~nan])
