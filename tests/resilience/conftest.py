"""Shared fixtures for the resilience suite: one small stream, one plan,
and a sharded run's engine that fails on cue.

Kept deliberately small (3000 records) because several suites run the
same stream.
"""

from __future__ import annotations

import time

import pytest

from repro import (
    AttributeSet,
    Configuration,
    QuerySet,
    StreamSchema,
    StreamSystem,
)
from repro.native.ingest import ShardIds
from repro.parallel import sharded as sharded_module
from repro.workloads import make_group_universe, uniform_dataset

SCHEMA = StreamSchema(("A", "B", "C", "D"))


def A(label: str) -> AttributeSet:
    return AttributeSet.parse(label)


@pytest.fixture(scope="package")
def dataset():
    universe = make_group_universe(SCHEMA, (8, 24, 48, 90), value_pool=64,
                                   seed=7)
    return uniform_dataset(universe, 3000, duration=9.0, seed=11)


@pytest.fixture(scope="package")
def queries():
    return QuerySet.counts(["AB", "BC"], epoch_seconds=3.0)


@pytest.fixture(scope="package")
def config(queries):
    return Configuration.flat([q.group_by for q in queries])


@pytest.fixture(scope="package")
def buckets(config):
    return {rel: 32 for rel in config.relations}


@pytest.fixture(scope="package")
def single_report(dataset, queries, config, buckets):
    """The single-core oracle every sharded run must match."""
    return StreamSystem(dataset, queries, config, buckets).run()


class FailingEngine:
    """Stands in for a sharded run's engine: records the shard ids of
    every call (the array inside the run's checked ``ShardIds``; None
    for an unsharded one), raises ``error`` on the 1-based calls in
    ``failing`` and runs the real engine on the others."""

    def __init__(self, failing=(), error=None):
        self.engine = sharded_module.simulate
        self.failing = set(failing)
        self.error = error
        self.calls = []

    def __call__(self, shard_dataset, *args, **kwargs):
        shards = kwargs.get("shards")
        self.calls.append(shards.ids if isinstance(shards, ShardIds)
                          else shards)
        if len(self.calls) in self.failing:
            raise self.error
        return self.engine(shard_dataset, *args, **kwargs)


@pytest.fixture
def fail_shards(monkeypatch):
    """``fail_shards(failing, error)`` installs a :class:`FailingEngine`
    as the sharded run's engine and returns it."""
    def install(failing=(), error=None):
        engine = FailingEngine(failing, error)
        monkeypatch.setattr(sharded_module, "simulate", engine)
        return engine
    return install


@pytest.fixture
def sleeps(monkeypatch):
    """Every ``time.sleep`` call of the test, recorded instead of slept."""
    recorded = []
    monkeypatch.setattr(time, "sleep", recorded.append)
    return recorded
