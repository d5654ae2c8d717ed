"""Tests for group universes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import StreamSchema
from repro.errors import WorkloadError
from repro.gigascope.hashing import pack_tuples
from repro.workloads import PAPER_CHAIN, GroupUniverse, make_group_universe


def projection_count(universe, attrs: str) -> int:
    """The universe's distinct groups at a projection."""
    idx = [universe.schema.attributes.index(a) for a in attrs]
    codes = pack_tuples([universe.tuples[:, i] for i in idx])
    return int(np.unique(codes).size)


class TestMakeGroupUniverse:
    def test_paper_chain_exact(self):
        schema = StreamSchema(("A", "B", "C", "D"))
        universe = make_group_universe(schema, PAPER_CHAIN, seed=0)
        assert universe.n_groups == 2837
        assert projection_count(universe, "A") == 552
        assert projection_count(universe, "AB") == 1846
        assert projection_count(universe, "ABC") == 2117
        assert projection_count(universe, "ABCD") == 2837

    def test_tuples_are_distinct(self):
        schema = StreamSchema(("A", "B", "C"))
        universe = make_group_universe(schema, (5, 20, 50), value_pool=32,
                                       seed=1)
        codes = pack_tuples([universe.tuples[:, i] for i in range(3)])
        assert np.unique(codes).size == 50

    def test_non_prefix_projections_plausible(self):
        schema = StreamSchema(("A", "B", "C", "D"))
        universe = make_group_universe(schema, (10, 40, 80, 160),
                                       value_pool=64, seed=2)
        bd = projection_count(universe, "BD")
        assert 10 <= bd <= 160

    def test_rejects_wrong_chain_length(self):
        schema = StreamSchema(("A", "B"))
        with pytest.raises(WorkloadError):
            make_group_universe(schema, (5, 10, 20))

    def test_rejects_decreasing_chain(self):
        schema = StreamSchema(("A", "B"))
        with pytest.raises(WorkloadError):
            make_group_universe(schema, (10, 5))

    def test_rejects_overflow_chain(self):
        schema = StreamSchema(("A", "B"))
        with pytest.raises(WorkloadError):
            make_group_universe(schema, (2, 100), value_pool=3)

    def test_deterministic_per_seed(self):
        schema = StreamSchema(("A", "B"))
        u1 = make_group_universe(schema, (4, 12), seed=5)
        u2 = make_group_universe(schema, (4, 12), seed=5)
        assert np.array_equal(u1.tuples, u2.tuples)
        u3 = make_group_universe(schema, (4, 12), seed=6)
        assert not np.array_equal(u1.tuples, u3.tuples)


class TestGroupUniverse:
    def test_columns_for(self):
        schema = StreamSchema(("A", "B"))
        universe = make_group_universe(schema, (3, 6), seed=0)
        cols = universe.columns_for(np.array([0, 0, 5]))
        assert cols["A"][0] == cols["A"][1] == universe.tuples[0, 0]
        assert cols["B"][2] == universe.tuples[5, 1]

    def test_validation(self):
        schema = StreamSchema(("A", "B"))
        with pytest.raises(WorkloadError):
            GroupUniverse(schema, np.zeros((4, 3), dtype=np.int64))
        with pytest.raises(WorkloadError):
            GroupUniverse(schema, np.zeros(4, dtype=np.int64))


@given(st.lists(st.integers(1, 60), min_size=2, max_size=4), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_chain_counts_always_exact(raw_chain, seed):
    chain = tuple(sorted(raw_chain))
    schema = StreamSchema(tuple("ABCD"[:len(chain)]))
    universe = make_group_universe(schema, chain, value_pool=128, seed=seed)
    for j in range(len(chain)):
        prefix = "".join(schema.attributes[:j + 1])
        assert projection_count(universe, prefix) == chain[j]
