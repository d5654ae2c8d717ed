"""Shared fixtures for the resilience suite: one small stream, one plan.

Kept deliberately small (3000 records) because the chaos matrix runs the
same stream many times.
"""

from __future__ import annotations

import pytest

from repro import (
    AttributeSet,
    Configuration,
    QuerySet,
    StreamSchema,
    StreamSystem,
)
from repro.resilience import RetryPolicy
from repro.workloads import make_group_universe, uniform_dataset

SCHEMA = StreamSchema(("A", "B", "C", "D"))


def A(label: str) -> AttributeSet:
    return AttributeSet.parse(label)


def fast_retry(**overrides) -> RetryPolicy:
    """A policy that never actually sleeps — chaos tests stay quick."""
    overrides.setdefault("backoff_base", 0.0)
    return RetryPolicy(**overrides)


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
    """The fault-free single-core oracle every chaos run must match."""
    return StreamSystem(dataset, queries, config, buckets).run()
