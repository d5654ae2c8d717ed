"""ES's pricing and descent against their frozen references.

ES prices a space vector with the planner's scalar Eq. 7 on the
configuration's relations in topological order. These tests pin that
price to the lanes of the batched evaluator it replaced, and the descent
to the frozen mutate-and-revert loop (both kept in
``tests/references.py``), including its lossy ``(a - s) + s`` revert
arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import ExhaustiveAllocator
from repro.core.allocation.exhaustive import (
    POLISH_STEP,
    START_STEP,
    descend,
)
from repro.core.attributes import AttributeSet
from repro.core.collision.lookup import LinearModel, LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, intra_cost, per_record_cost
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError
from tests.conftest import without_library
from tests.references import RefCostEvaluator, ref_scalar_descend


def A(label):
    return AttributeSet.parse(label)


STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "CD": 2050, "BC": 1730, "BD": 1940,
    "ABC": 2117, "BCD": 2520, "ABCD": 2837,
})
CONFIG = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
FOREST = CONFIG.topological(STATS)
PARAMS = CostParameters()


def price(spaces, model):
    """ES's price of a space vector: Eq. 7 on ``spaces[i] / h[i]``."""
    h = FOREST.universe.h
    return intra_cost(FOREST, [s / h[i] for i, s in enumerate(spaces)],
                      model, PARAMS)


class TestCostManyMatchesScalar:
    """The scalar price equals the frozen ``cost_many`` lane by lane."""

    # Tiny positive spaces are excluded: the scalar lookup raises
    # OverflowError there (``int(inf)``) so equivalence is undefined.
    @given(st.lists(
        st.lists(st.one_of(
            st.floats(min_value=-1e4, max_value=0.0),
            st.floats(min_value=1.0, max_value=1e7)),
                 min_size=6, max_size=6),
        min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_scalar_cost(self, rows):
        lanes = RefCostEvaluator(CONFIG, STATS, PARAMS).cost_many(rows)
        for k, row in enumerate(rows):
            assert price(row, LookupModel()) == lanes[k]

    def test_linear_model_rows_match(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-100.0, 60000.0, size=(64, 6))
        lanes = RefCostEvaluator(CONFIG, STATS, PARAMS,
                                 LinearModel()).cost_many(rows)
        for k in range(rows.shape[0]):
            assert price(rows[k].tolist(), LinearModel()) == lanes[k]

    def test_scalar_model_fallback_rows(self):
        class OddModel:
            def rate(self, groups, buckets):
                if groups <= 1.0 or buckets <= 0:
                    return 0.0
                return min(1.0, 0.3 * groups / buckets)

        rows = [[5000.0 + 7 * i] * 6 for i in range(10)]
        lanes = RefCostEvaluator(CONFIG, STATS, PARAMS,
                                 OddModel()).cost_many(rows)
        for k, row in enumerate(rows):
            assert price(row, OddModel()) == lanes[k]

    def test_input_not_mutated(self):
        spaces = [7000.0, 6000.0, 8000.0, 6500.0, 6200.0, 6300.0]
        before = list(spaces)
        descend(FOREST, spaces, 40000.0, LookupModel(), PARAMS)
        assert spaces == before

    def test_shape_validation(self):
        buckets = {rel: 100.0 for rel in CONFIG.relations}
        del buckets[A("BD")]
        with pytest.raises(AllocationError, match="no bucket count"):
            per_record_cost(CONFIG, STATS, buckets, LookupModel(), PARAMS)
        buckets[A("BD")] = 0.0
        with pytest.raises(AllocationError, match="non-positive"):
            per_record_cost(CONFIG, STATS, buckets, LookupModel(), PARAMS)


class TestDescentEquivalence:
    @given(st.floats(min_value=20000.0, max_value=200000.0),
           st.lists(st.floats(min_value=0.05, max_value=1.0),
                    min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_native_matches_reference(self, memory, start_fracs):
        """ES's one descent equals the frozen scalar loop bit for bit."""
        evaluator = RefCostEvaluator(CONFIG, STATS, PARAMS)
        total = sum(start_fracs)
        # Keep every coordinate above its floor so the descent is entered
        # the same way in both implementations.
        start = [max(memory * f / total, h + 1.0)
                 for f, h in zip(start_fracs, FOREST.universe.h)]
        got = descend(FOREST, start, memory, LookupModel(), PARAMS)
        assert got == ref_scalar_descend(
            evaluator, list(start), evaluator.entry_units,
            START_STEP * memory, POLISH_STEP * memory)

    def test_allocate_same_without_kernel(self):
        """ES reaches no C kernel: without the native library it
        allocates the same buckets. It fails if ES comes to need the
        library, or if a kernel path comes back that does not match the
        scalar descent."""
        a = ExhaustiveAllocator().allocate(CONFIG, STATS, 40000.0, PARAMS)
        with without_library():
            b = ExhaustiveAllocator().allocate(CONFIG, STATS, 40000.0,
                                               PARAMS)
        assert a.buckets == b.buckets

    def test_grid_path_matches_descent_flavours(self):
        """The same guard on a small unclustered configuration."""
        config = Configuration.from_notation("(ABC(AB BC))")
        es = ExhaustiveAllocator(clustered=False)
        kernel = es.allocate(config, STATS, 20000.0, PARAMS).buckets
        with without_library():
            assert es.allocate(config, STATS, 20000.0,
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
    """The descent works on a copy, so a model raising mid-scan leaves
    the caller's ``spaces`` as they were."""

    def test_spaces_untouched_when_cost_raises(self):
        model = _ExplodingModel(fuse=40)
        spaces = [7000.0, 6000.0, 8000.0, 6500.0, 6200.0, 6300.0]
        original = list(spaces)
        with pytest.raises(RuntimeError, match="boom"):
            descend(FOREST, spaces, 40000.0, model, PARAMS)
        assert spaces == original

    def test_cost_many_propagates_and_leaves_input(self):
        model = _ExplodingModel(fuse=3)
        buckets = [1000.0] * 6
        with pytest.raises(RuntimeError, match="boom"):
            intra_cost(FOREST, buckets, model, PARAMS)
        assert buckets == [1000.0] * 6
