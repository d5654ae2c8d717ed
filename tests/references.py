"""Reference implementations for the differential suites.

The straightforward versions of three things the service control plane
runs optimized: the phantom closure on ``AttributeSet`` objects (the
production one runs on bitmasks), the KMV update without the k-th
minimum filter, and a collector ``observe`` that hashes every relation
from scratch. ``tests/core/test_feeding_graph.py`` and
``tests/core/test_sketches.py`` compare the production code against
them input by input; ``tests/service/test_service.py`` swaps them in
for a whole churn run and requires the same sequence of plans.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.attributes import AttributeSet
from repro.gigascope.hashing import combine_columns, splitmix64


def reference_phantoms(query_attrs) -> list[AttributeSet]:
    """Close the query set under pairwise ``AttributeSet`` union."""
    queries = list(dict.fromkeys(query_attrs))
    query_set = set(queries)
    candidates: set[AttributeSet] = set()
    frontier: set[AttributeSet] = set(queries)
    while frontier:
        new: set[AttributeSet] = set()
        for a, b in combinations(sorted(frontier | candidates | query_set,
                                        key=AttributeSet.sort_key), 2):
            union = a | b
            if union in query_set or union in candidates or union in frontier:
                continue
            new.add(union)
        candidates |= frontier - query_set
        frontier = new
    candidates -= query_set
    return sorted(candidates, key=AttributeSet.sort_key)


def reference_kmv_update(counter, keys: np.ndarray) -> None:
    """``KMVDistinctCounter.update`` merging the whole batch, unfiltered."""
    if len(keys) == 0:
        return
    hashes = splitmix64(np.asarray(keys, dtype=np.uint64) ^ counter.salt)
    merged = np.unique(np.concatenate([counter._minima, hashes]))
    if merged.size > counter.k:
        merged = merged[:counter.k]
        counter._saturated = True
    counter._minima = merged


def reference_observe(collector, columns) -> None:
    """``StreamStatisticsCollector.observe``, one hash chain per relation."""
    n = None
    for rel in collector.relations:
        codes = combine_columns([np.asarray(columns[a]) for a in rel])
        if n is None:
            n = codes.size
        collector._distinct[rel].update(codes)
        if collector._runs is not None:
            collector._runs[rel].update(codes)
    collector.records_seen += int(n or 0)
