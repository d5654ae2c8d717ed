"""Property-based tests of the planning facade over random statistics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import QuerySet, plan
from repro.core.feeding_graph import FeedingGraph
from repro.core.statistics import RelationStatistics
from tests.references import space_used


def _random_stats(rng: np.random.Generator,
                  queries: QuerySet) -> RelationStatistics:
    """Random per-relation group counts respecting monotonicity.

    Group counts must be monotone under projection (a superset of
    attributes can only have at least as many groups); we draw a base
    count per query and inflate unions by random factors.
    """
    graph = FeedingGraph(queries)
    groups: dict = {}
    for rel in graph.nodes:
        subsets = [groups[s] for s in graph.nodes if s < rel and s in groups]
        floor = max(subsets, default=0.0)
        base = float(rng.integers(50, 4000))
        groups[rel] = max(base, floor * float(rng.uniform(1.0, 2.0)))
    return RelationStatistics(groups)


QUERY_SETS = st.sampled_from([
    ("A", "B", "C"),
    ("A", "B", "C", "D"),
    ("AB", "BC", "CD"),
    ("AB", "BC", "BD", "CD"),
    ("A", "AB", "ABC"),  # nested queries feed each other
])


@given(QUERY_SETS, st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_monotone_group_counts(labels, seed):
    """Random instances respect projection monotonicity."""
    stats = _random_stats(np.random.default_rng(seed),
                          QuerySet.counts(list(labels)))
    for small, g_small in stats.groups.items():
        for big, g_big in stats.groups.items():
            if small < big:
                assert g_small <= g_big


@given(QUERY_SETS, st.integers(0, 10_000),
       st.sampled_from([5_000.0, 20_000.0, 80_000.0]),
       st.sampled_from(["gcsl", "gcpl", "gs", "none"]))
@settings(max_examples=40, deadline=None)
def test_plans_are_always_well_formed(labels, seed, memory, algorithm):
    """For any statistics: queries instantiated, memory respected,
    positive integer buckets, and never worse than the queries-only
    starting point (under the planner's own model)."""
    queries = QuerySet.counts(list(labels))
    rng = np.random.default_rng(seed)
    stats = _random_stats(rng, queries)
    result = plan(queries, stats, memory, algorithm=algorithm)
    config = result.configuration
    for q in queries.group_bys:
        assert q in config
    for rel in config.relations:
        buckets = result.allocation[rel]
        assert buckets >= 1 and float(buckets).is_integer()
    assert space_used(result.allocation, stats) <= memory * (1 + 1e-9)
    assert result.predicted_cost > 0
    if algorithm == "gcsl":
        # Greedy only adds phantoms while they reduce the model cost, and
        # its SL allocation on the flat start matches the baseline's.
        # (GCPL is excluded: its PL allocation can lose to the baseline's
        # optimal flat split even with an identical configuration.)
        baseline = plan(queries, stats, memory, algorithm="none")
        assert result.predicted_cost <= baseline.predicted_cost * 1.01


@given(st.integers(0, 5_000))
@settings(max_examples=20, deadline=None)
def test_epes_bounds_greedy(seed):
    """The strict EPES oracle lower-bounds GCSL, up to descent tolerance.

    The *strict* oracle (no single-child prune, all tie-break structures)
    explores a superset of the greedy's reachable configurations; the
    remaining slack covers ES coordinate-descent stalls on the cost
    plateaus that saturated random instances create (the paper's own ES
    has an analogous 1%-grid tolerance).
    """
    from repro.core.choosing import ExhaustiveChoice, gcsl
    from repro.core.cost_model import CostParameters
    queries = QuerySet.counts(["A", "B", "C"])
    rng = np.random.default_rng(seed)
    stats = _random_stats(rng, queries)
    params = CostParameters()
    greedy = gcsl().choose(queries, stats, 20_000.0, params)
    strict = ExhaustiveChoice(prune_single_child=False).choose(
        queries, stats, 20_000.0, params)
    assert strict.cost <= greedy.cost * 1.05
