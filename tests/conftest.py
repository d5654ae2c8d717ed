"""Shared fixtures: paper-calibrated statistics and small datasets.

Also registers the hypothesis profiles the property-based tests run
under: ``dev`` (default — few examples, fast local iteration) and
``ci`` (derandomized with a fixed seed and bounded examples, selected
in CI with ``--hypothesis-profile=ci`` so property tests are
deterministic there).
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=list(HealthCheck))
settings.register_profile(
    "dev", max_examples=10, deadline=None,
    suppress_health_check=list(HealthCheck))
settings.load_profile("dev")

from repro import (
    AttributeSet,
    CostParameters,
    QuerySet,
    RelationStatistics,
    StreamSchema,
)
import repro.native
from repro.gigascope import engine
from repro.native import build as native_build
from repro.workloads import make_group_universe, uniform_dataset


#: Group counts in the spirit of the paper's trace (Section 6.1): nested
#: chain 552/1846/2117/2837, other projections interpolated plausibly.
PAPER_GROUPS = {
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "AD": 1610, "BC": 1730, "BD": 1940, "CD": 2050,
    "ABC": 2117, "ABD": 2260, "ACD": 2390, "BCD": 2520,
    "ABCD": 2837,
}


@contextmanager
def without_library():
    """Inside the block the native library cannot be built: no C
    compiler is found and the load memo is fresh, as a process on a host
    without one sees it. Every product use of the library raises
    :class:`~repro.errors.NativeLibraryError`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native_build, "compiler_path", lambda: None)
        patch.setattr(native_build, "_statuses", {})
        yield


@contextmanager
def walk_lanes_of(on: bool):
    """Inside the block a one-epoch kernel call after a binding's first
    walks on two lanes whenever the binding's schedule puts a relation
    on the second and two cores are usable (``on``: the hand-off is
    priced at nothing), or always on one (``on`` false:
    :func:`on_cores` of 1, which also walks every epoch pool on one
    thread and hashes every partition in one call)."""
    if on:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "LANE_HANDOFF", 0)
            yield
    else:
        with on_cores(1):
            yield


@contextmanager
def on_cores(n: int):
    """Inside the block the process reads ``n`` usable cores
    (``repro.native.cores`` patched): the one count the epoch pool, the
    lanes and the partition hash's split are sized by. A call over
    several epochs walks on ``min(n, epochs)`` kept walks, the caller's
    and ``n - 1`` helpers of the library's pool at most, which starts
    as many helpers as the count asks for (on any number of CPUs)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.native, "cores", lambda: n)
        yield


def split_ran() -> bool:
    """Whether a call under ``walk_lanes_of(True)`` can split here: two
    usable cores (one under ``taskset -c 0``, where lanes collapse)."""
    return repro.native.cores() >= 2


@pytest.fixture(scope="session")
def paper_stats() -> RelationStatistics:
    return RelationStatistics.from_counts(PAPER_GROUPS)


@pytest.fixture(scope="session")
def abcd_queries() -> QuerySet:
    return QuerySet.counts(["A", "B", "C", "D"])


@pytest.fixture(scope="session")
def pair_queries() -> QuerySet:
    """The paper's real-data query set {AB, BC, BD, CD} (Section 6.3.3)."""
    return QuerySet.counts(["AB", "BC", "BD", "CD"])


@pytest.fixture(scope="session")
def params() -> CostParameters:
    return CostParameters()  # c1 = 1, c2 = 50, the paper's ratio


@pytest.fixture(scope="session")
def schema() -> StreamSchema:
    return StreamSchema(("A", "B", "C", "D"))


@pytest.fixture(scope="session")
def small_universe(schema):
    return make_group_universe(schema, (8, 24, 48, 90), value_pool=64,
                               seed=7)


@pytest.fixture(scope="session")
def small_dataset(small_universe):
    return uniform_dataset(small_universe, 4000, duration=9.0, seed=11)


def attrs(label: str) -> AttributeSet:
    return AttributeSet.parse(label)
