"""Batched / native ES evaluation vs the scalar code.

The fast paths of :mod:`repro.core.allocation.exhaustive` promise
*bit-identical* results to the scalar code beside them. These tests pin
that promise: ``cost_many`` against ``cost`` lane by lane, and (when a
compiler is present) the descent kernel against the allocator's scalar
mutate-and-revert loop — including its lossy ``(a - s) + s`` revert
arithmetic, which the kernel must reproduce exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import CostEvaluator, ExhaustiveAllocator
from repro.core.allocation.exhaustive import _scalar_descend
from repro.core.attributes import AttributeSet
from repro.core.collision.lookup import LinearModel, LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.statistics import RelationStatistics
from repro.native import descend as native_descend
from tests.conftest import needs_kernel, numpy_kernels_off


def A(label):
    return AttributeSet.parse(label)


STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "CD": 2050, "BC": 1730, "BD": 1940,
    "ABC": 2117, "BCD": 2520, "ABCD": 2837,
})
CONFIG = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
PARAMS = CostParameters()


@pytest.fixture(scope="module")
def evaluator():
    return CostEvaluator(CONFIG, STATS, PARAMS, LookupModel(), True)


class TestCostManyMatchesScalar:
    # Tiny positive spaces are excluded: the *scalar* path raises
    # OverflowError there (``int(inf)``) so equivalence is undefined.
    @given(st.lists(
        st.lists(st.one_of(
            st.floats(min_value=-1e4, max_value=0.0),
            st.floats(min_value=1.0, max_value=1e7)),
                 min_size=6, max_size=6),
        min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_scalar_cost(self, rows):
        evaluator = CostEvaluator(CONFIG, STATS, PARAMS, LookupModel(), True)
        batched = evaluator.cost_many(rows)
        for k, row in enumerate(rows):
            scalar = evaluator.cost(row)
            assert abs(batched[k] - scalar) <= 1e-12
            assert batched[k] == scalar  # in fact bit-identical

    def test_linear_model_rows_match(self):
        evaluator = CostEvaluator(CONFIG, STATS, PARAMS, LinearModel(), True)
        rng = np.random.default_rng(5)
        rows = rng.uniform(-100.0, 60000.0, size=(64, 6))
        batched = evaluator.cost_many(rows)
        for k in range(rows.shape[0]):
            assert batched[k] == evaluator.cost(list(rows[k]))

    def test_scalar_model_fallback_rows_match(self, evaluator):
        class OddModel:
            def rate(self, groups, buckets):
                if groups <= 1.0 or buckets <= 0:
                    return 0.0
                return min(1.0, 0.3 * groups / buckets)

        odd = CostEvaluator(CONFIG, STATS, PARAMS, OddModel(), True)
        rows = [[5000.0 + 7 * i] * 6 for i in range(10)]
        batched = odd.cost_many(rows)
        for k, row in enumerate(rows):
            assert batched[k] == odd.cost(row)

    def test_input_not_mutated(self, evaluator):
        rows = np.full((4, 6), 6000.0)
        before = rows.copy()
        evaluator.cost_many(rows)
        assert np.array_equal(rows, before)

    def test_shape_validation(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.cost_many([1.0, 2.0])
        with pytest.raises(ValueError):
            evaluator.cost_many([[1.0, 2.0, 3.0]])


class TestDescentEquivalence:
    @needs_kernel
    @given(st.floats(min_value=20000.0, max_value=200000.0),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_native_matches_reference(self, memory, start_fracs):
        evaluator = CostEvaluator(CONFIG, STATS, PARAMS, LookupModel(), True)
        allocator = ExhaustiveAllocator()
        floors = [float(h) for h in evaluator.entry_units]
        total = sum(start_fracs)
        # Keep every coordinate above its floor so the descent is entered
        # the same way in both implementations.
        start = [max(memory * f / total, floor + 1.0)
                 for f, floor in zip(start_fracs, floors)]
        step = allocator.grid_step * memory
        min_step = allocator.polish_step * memory
        got = native_descend.descend(
            start, floors, evaluator._groups_arr, evaluator._entry_arr,
            evaluator._flow_arr, evaluator._parent_arr, evaluator._leaf_arr,
            evaluator.c1, evaluator.c2, evaluator.model.table_array,
            evaluator.model.table_step, step, min_step)
        assert got == _scalar_descend(evaluator, list(start), floors, step,
                                      min_step)

    def test_allocate_same_without_kernel(self):
        a = ExhaustiveAllocator().allocate(CONFIG, STATS, 40000.0, PARAMS)
        with numpy_kernels_off():
            b = ExhaustiveAllocator().allocate(CONFIG, STATS, 40000.0,
                                               PARAMS)
        assert a.buckets == b.buckets

    def test_grid_path_matches_descent_flavours(self):
        config = Configuration.from_notation("(ABC(AB BC))")
        grid = ExhaustiveAllocator(max_grid_relations=4)
        kernel = grid.allocate(config, STATS, 20000.0, PARAMS).buckets
        with numpy_kernels_off():
            assert grid.allocate(config, STATS, 20000.0,
                                 PARAMS).buckets == kernel


class _ExplodingModel:
    """LookupModel imposter that detonates after a set number of calls."""

    def __init__(self, fuse: int):
        self.calls = 0
        self.fuse = fuse

    def rate(self, groups: float, buckets: float) -> float:
        self.calls += 1
        if self.calls > self.fuse:
            raise RuntimeError("boom")
        if groups <= 1.0 or buckets <= 0:
            return 0.0
        return min(1.0, 0.354 * groups / buckets)


class TestExceptionSafety:
    """The descent works on a copy, so an evaluator raising mid-scan
    leaves the caller's ``spaces`` as they were."""

    def test_spaces_untouched_when_cost_raises(self):
        model = _ExplodingModel(fuse=40)
        evaluator = CostEvaluator(CONFIG, STATS, PARAMS, model, True)
        allocator = ExhaustiveAllocator()
        spaces = [7000.0, 6000.0, 8000.0, 6500.0, 6200.0, 6300.0]
        original = list(spaces)
        with pytest.raises(RuntimeError, match="boom"):
            allocator._descend(evaluator, STATS, 40000.0, spaces)
        assert spaces == original

    def test_cost_many_propagates_and_leaves_input(self):
        model = _ExplodingModel(fuse=3)
        evaluator = CostEvaluator(CONFIG, STATS, PARAMS, model, True)
        rows = np.full((2, 6), 6000.0)
        before = rows.copy()
        with pytest.raises(RuntimeError, match="boom"):
            evaluator.cost_many(rows)
        assert np.array_equal(rows, before)
