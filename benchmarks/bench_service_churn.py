"""Service churn: re-plan latency vs registry size, as JSON.

Registry churn (tenants registering/retiring) is the service's planning
workload, so this suite times the exact calls the
:class:`~repro.service.replan.IncrementalReplanner` makes, as the
distinct group-by set grows::

    PYTHONPATH=src python benchmarks/bench_service_churn.py
    PYTHONPATH=src python benchmarks/bench_service_churn.py --quick

Per registry size it measures GS planning with the benefit cache on
(``GreedySpace(cache_benefits=True)``, the replanner default) and off
(the pre-cache scan), plus the replanner's cache-hit path (a tenant
joining an already-instantiated group-by — the common churn event, which
must cost microseconds, not a plan). Results land in a ``service``
section of ``benchmarks/results/service_churn.json``; identical-plan
equivalence between the cached and uncached GS runs is asserted, so a
cache bug fails the run rather than skewing it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import time
from pathlib import Path

from repro.core.choosing.greedy_space import GreedySpace
from repro.core.cost_model import CostParameters
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.service.replan import IncrementalReplanner

OUT = Path(__file__).resolve().parent / "results" / "service_churn.json"
ATTRIBUTES = "ABCDEFGH"
CARDINALITIES = {name: 6 + 7 * i for i, name in enumerate(ATTRIBUTES)}
MEMORY = 40_000.0
EPOCH = 5.0


def registry_group_bys(size: int) -> list[str]:
    """The first ``size`` two/three-attribute group-bys, deterministic."""
    combos = itertools.chain(
        itertools.combinations(ATTRIBUTES, 2),
        itertools.combinations(ATTRIBUTES, 3))
    return ["".join(c) for c in itertools.islice(combos, size)]


def synthetic_statistics(queries: QuerySet) -> RelationStatistics:
    """Deterministic group counts: damped attribute-product cardinality."""
    from repro.core.feeding_graph import FeedingGraph
    groups = {}
    for rel in FeedingGraph(queries).nodes:
        product = 1.0
        for name in rel:
            product *= CARDINALITIES[name]
        groups[rel] = product ** 0.85  # correlation damping
    return RelationStatistics(groups)


def time_choose(chooser: GreedySpace, queries: QuerySet,
                stats: RelationStatistics, reps: int) -> tuple[float, str]:
    params = CostParameters()
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = chooser.choose(queries, stats, MEMORY, params)
        best = min(best, time.perf_counter() - start)
    return best, str(result.configuration)


def bench(sizes: list[int], reps: int) -> dict:
    section: dict = {"memory": MEMORY, "reps": reps, "sizes": {}}
    for size in sizes:
        queries = QuerySet.counts(registry_group_bys(size),
                                  epoch_seconds=EPOCH)
        stats = synthetic_statistics(queries)
        cached_s, cached_cfg = time_choose(
            GreedySpace(cache_benefits=True), queries, stats, reps)
        uncached_s, uncached_cfg = time_choose(
            GreedySpace(cache_benefits=False), queries, stats, reps)
        if cached_cfg != uncached_cfg:
            raise SystemExit(
                f"GS benefit cache changed the plan at size {size}: "
                f"{cached_cfg} != {uncached_cfg}")

        # The replanner's no-op path: same group-by set, same token.
        replanner = IncrementalReplanner(MEMORY)
        replanner.replan(queries, stats, token=0)
        start = time.perf_counter()
        _, hit = replanner.replan(queries, stats, token=0)
        hit_s = time.perf_counter() - start
        assert hit, "replanner cache must hit on identical input"

        section["sizes"][str(size)] = {
            "gs_cached_ms": cached_s * 1e3,
            "gs_uncached_ms": uncached_s * 1e3,
            "cache_speedup": uncached_s / cached_s,
            "replan_cache_hit_us": hit_s * 1e6,
        }
        print(f"registry={size:3d}  gs cached {cached_s * 1e3:8.2f} ms  "
              f"uncached {uncached_s * 1e3:8.2f} ms  "
              f"(x{uncached_s / cached_s:.2f})  "
              f"cache hit {hit_s * 1e6:6.1f} us")
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark service re-plan latency vs registry size "
                    "and write a 'service' section to "
                    "benchmarks/results/service_churn.json.")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one rep (CI smoke)")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)

    sizes = [4, 8] if args.quick else [4, 8, 16, 24]
    reps = 1 if args.quick else 3
    section = bench(sizes, reps)

    document = {"schema": "bench-perf/1", "service": section}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote service section -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
