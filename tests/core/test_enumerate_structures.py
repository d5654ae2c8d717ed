"""EPES's structure generator against the product walk it replaced.

``tests/references.py`` keeps ``ref_enumerate_structures``, which walks
the full cartesian product of parent choices over ``AttributeSet``s and
counts every assignment. The production generator walks the same
product order depth first over universe indices and cuts a branch once
some phantom can no longer receive a child. It must yield the same
forests, in the same order, under the same ``limit``, with
``prune_single_child`` on and off.
"""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.choosing.base import plan_universe
from repro.core.choosing.exhaustive import enumerate_structures
from repro.core.feeding_graph import enumerate_phantoms
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from tests.references import ref_enumerate_structures


def edges(config):
    return ({rel: config.parent(rel) for rel in config.relations},
            config.to_notation())


def both(universe, members, limit, prune):
    rels = [universe.rels[i] for i in members]
    got = [edges(c) for c in enumerate_structures(
        universe, members, limit=limit, prune_single_child=prune)]
    want = [edges(c) for c in ref_enumerate_structures(
        rels, universe.queries, limit=limit, prune_single_child=prune)]
    return got, want


def universe_of(labels):
    queries = QuerySet.counts(labels)
    relations = [*queries.group_bys, *enumerate_phantoms(queries.group_bys)]
    stats = RelationStatistics({rel: 10.0 for rel in relations})
    return plan_universe(queries, stats)


@pytest.mark.parametrize("labels", [
    ["A", "B", "C", "D"], ["AB", "BC", "BD", "CD"],
    ["AB", "AD", "AE", "CDE"], ["AC", "BDE", "BE", "CE"]])
def test_every_subset_matches(labels):
    """Every candidate subset, pruning on and off."""
    universe = universe_of(labels)
    queries = [i for i, rel in enumerate(universe.rels)
               if rel in universe.queries]
    candidates = [i for i, rel in enumerate(universe.rels)
                  if rel not in universe.queries]
    for k in range(len(candidates) + 1):
        for subset in combinations(candidates, k):
            for prune in (False, True):
                got, want = both(universe, queries + list(subset), 64, prune)
                assert got == want, (subset, prune)


@given(data=st.data())
def test_random_instances_match(data):
    names = "ABCDE"[:data.draw(st.integers(2, 5))]
    group_bys = data.draw(st.lists(
        st.frozensets(st.sampled_from(names), min_size=1, max_size=3),
        min_size=1, max_size=5, unique=True))
    universe = universe_of(["".join(sorted(q)) for q in group_bys])
    candidates = [i for i, rel in enumerate(universe.rels)
                  if rel not in universe.queries]
    subset = data.draw(st.lists(st.sampled_from(candidates), max_size=5,
                                unique=True)) if candidates else []
    members = [i for i, rel in enumerate(universe.rels)
               if rel in universe.queries] + subset
    limit = data.draw(st.sampled_from([0, 1, 2, 5, 64]))
    got, want = both(universe, members, limit,
                     data.draw(st.booleans()))
    assert got == want


def test_missing_query_yields_nothing():
    universe = universe_of(["AB", "CD"])
    ab = universe.index[AttributeSet("AB")]
    assert list(enumerate_structures(universe, [ab])) == []
