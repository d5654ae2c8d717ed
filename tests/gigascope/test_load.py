"""Tests for the LFTA load model."""

import pytest

from repro.core.cost_model import CostParameters
from repro.gigascope.load import LoadModel


class TestLoadModel:
    def test_sustainable_rate(self):
        model = LoadModel(probe_seconds=200e-9)
        # cost 1 per record -> 5M records/s on a dedicated core.
        assert model.sustainable_rate(1.0) == pytest.approx(5e6)
        assert model.sustainable_rate(5.0) == pytest.approx(1e6)

    def test_utilization_scales_rate(self):
        half = LoadModel(probe_seconds=200e-9, utilization=0.5)
        assert half.sustainable_rate(1.0) == pytest.approx(2.5e6)

    def test_phantom_plan_raises_capacity(self):
        """The paper's argument, end to end: lower Eq. 7 cost = higher
        sustainable rate; a 4x cost reduction is a 4x rate increase."""
        model = LoadModel()
        naive_cost, phantom_cost = 4.2, 1.05
        assert model.sustainable_rate(phantom_cost) == pytest.approx(
            4.0 * model.sustainable_rate(naive_cost))

    def test_eviction_pricing_follows_params(self):
        cheap = LoadModel(params=CostParameters(1.0, 10.0))
        # A per-record cost of c2 (one eviction per record) costs 10
        # probe-times under this pricing.
        assert cheap.seconds_per_record(10.0) == pytest.approx(
            10 * cheap.probe_seconds)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadModel(probe_seconds=0)
        with pytest.raises(ValueError):
            LoadModel(utilization=0)
        with pytest.raises(ValueError):
            LoadModel(utilization=1.5)
