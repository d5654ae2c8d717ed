"""Stress and failure-injection tests for the vectorized engine.

Beyond the reference-equivalence suite, these push the engine through
degenerate and adversarial inputs: duplicate timestamps, single records,
hot groups, pathological table sizes, value-sum conservation.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.gigascope.engine import simulate
from repro.gigascope.records import Dataset, StreamSchema
from tests.hfta_totals import totals

SCHEMA = StreamSchema(("A", "B"), value_columns=("v",))


def dataset(a, b, times=None, values=None):
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    b = np.asarray(b, dtype=np.int64)
    times = (np.asarray(times, dtype=float) if times is not None
             else np.arange(n, dtype=float))
    vals = {"v": np.asarray(values, dtype=float)} if values is not None \
        else {}
    return Dataset(SCHEMA, {"A": a, "B": b}, times, vals)


class TestDegenerateInputs:
    def test_single_record(self):
        data = dataset([7], [8])
        config = Configuration.from_notation("AB(A B)")
        result = simulate(data, config, {rel: 4 for rel in config.relations},
                          epoch_seconds=10.0)
        for leaf in config.leaves:
            groups = totals(result.hfta, leaf, 0)
            assert sum(agg.count for agg in groups.values()) == 1

    def test_empty_dataset(self):
        data = dataset([], [])
        config = Configuration.from_notation("AB(A B)")
        result = simulate(data, config, {rel: 4 for rel in config.relations},
                          epoch_seconds=10.0)
        assert result.n_epochs == 0
        assert result.hfta.evictions_received == 0

    def test_all_identical_records(self):
        data = dataset([3] * 1000, [4] * 1000)
        config = Configuration.from_notation("AB(A B)")
        result = simulate(data, config, {rel: 1 for rel in config.relations},
                          epoch_seconds=1e6)
        counters = result.counters.counters(AttributeSet.parse("AB"))
        assert counters.evictions_intra == 0  # one group never collides
        groups = totals(result.hfta, AttributeSet.parse("A"), 0)
        assert groups[(3,)].count == 1000

    def test_duplicate_timestamps(self):
        """Equal timestamps are legal; arrival order still disambiguates."""
        data = dataset([1, 2, 1, 2], [1, 1, 1, 1],
                       times=[0.0, 0.0, 0.0, 0.0])
        config = Configuration.flat([AttributeSet.parse("A")])
        result = simulate(data, config, {AttributeSet.parse("A"): 1},
                          epoch_seconds=10.0)
        counters = result.counters.counters(AttributeSet.parse("A"))
        # 1,2,1,2 through one bucket: three collisions + final flush.
        assert counters.evictions_intra == 3
        assert counters.evictions_flush == 1

    def test_zero_buckets_rejected(self):
        data = dataset([1], [1])
        config = Configuration.flat([AttributeSet.parse("A")])
        with pytest.raises(ConfigurationError):
            simulate(data, config, {AttributeSet.parse("A"): 0},
                     epoch_seconds=1.0)


class TestConservation:
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_counts_and_values_conserved(self, seed, n_epochs, buckets):
        """Counts and value sums reach the HFTA exactly once each."""
        rng = np.random.default_rng(seed)
        n = 400
        data = dataset(rng.integers(0, 7, n), rng.integers(0, 5, n),
                       times=np.sort(rng.uniform(0, n_epochs, n)),
                       values=rng.uniform(1, 10, n))
        config = Configuration.from_notation("AB(A B)")
        result = simulate(data, config,
                          {rel: buckets for rel in config.relations},
                          epoch_seconds=1.0, value_column="v")
        for leaf in config.leaves:
            total_count = 0
            total_value = 0.0
            vmin = float("inf")
            vmax = float("-inf")
            for epoch in result.hfta.epochs(leaf):
                for agg in totals(result.hfta, leaf, epoch).values():
                    total_count += agg.count
                    total_value += agg.value_sum
                    vmin = min(vmin, agg.value_min)
                    vmax = max(vmax, agg.value_max)
            assert total_count == n
            assert total_value == pytest.approx(float(np.sum(
                data.values["v"])))
            # Min/max partials survive arbitrary eviction cascades too.
            assert vmin == pytest.approx(float(np.min(data.values["v"])))
            assert vmax == pytest.approx(float(np.max(data.values["v"])))

    def test_exact_group_values_with_hot_skew(self):
        """A 90%-hot group must not perturb other groups' answers."""
        rng = np.random.default_rng(5)
        n = 5000
        hot = rng.random(n) < 0.9
        a = np.where(hot, 0, rng.integers(1, 50, n))
        data = dataset(a, np.zeros(n, dtype=int))
        config = Configuration.from_notation("AB(A B)")
        result = simulate(data, config, {rel: 8 for rel in config.relations},
                          epoch_seconds=1e9)
        exact = defaultdict(int)
        for value in a:
            exact[(int(value),)] += 1
        got = {g: agg.count for g, agg in
               totals(result.hfta, AttributeSet.parse("A"), 0).items()}
        assert got == dict(exact)


class TestEvictionAccounting:
    def test_every_run_evicted_exactly_once(self):
        rng = np.random.default_rng(11)
        n = 3000
        data = dataset(rng.integers(0, 40, n), rng.integers(0, 3, n))
        config = Configuration.flat([AttributeSet.parse("A")])
        result = simulate(data, config, {AttributeSet.parse("A"): 16},
                          epoch_seconds=1e9)
        c = result.counters.counters(AttributeSet.parse("A"))
        # arrivals = n; evictions = collisions + flushed residents; every
        # eviction reaches the HFTA (single-level config).
        assert c.arrivals_intra == n
        assert result.hfta.evictions_received == c.evictions
