"""Ablation: the ES oracle's multi-start (DESIGN.md Section 4, item 5).

The ES reference replaces the paper's 1%-of-M grid with multi-start
coordinate descent (the tier-1 suite checks the descent against the
literal grid). This ablation quantifies what the extra starts buy on a
deep configuration: multi-start vs a single descent from the SL split
(the clamped model creates plateaus where one start can stall).
"""

from conftest import run_once

from repro.core.allocation import ExhaustiveAllocator
from repro.core.allocation.exhaustive import descend
from repro.core.allocation.supernode import SupernodeLinear
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import intra_cost, per_record_cost
from repro.core.statistics import RelationStatistics
from repro.experiments.common import paper_params
from repro.experiments.timing import PAPER_LIKE_GROUPS


def _ablation() -> dict[str, float]:
    stats = RelationStatistics.from_counts(PAPER_LIKE_GROUPS)
    params = paper_params()
    model = LookupModel()
    deep = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
    forest = deep.topological(stats)
    h = forest.universe.h
    es = ExhaustiveAllocator().allocate(deep, stats, 40_000, params)
    start = [b * h[i] for i, b in enumerate(
        SupernodeLinear().split(forest, 40_000, params))]
    single = descend(forest, start, 40_000, model, params)
    return {
        "multi-start (deep)": per_record_cost(deep, stats, es.buckets,
                                              model, params),
        "single-start (deep)": intra_cost(
            forest, [s / h[i] for i, s in enumerate(single)], model,
            params),
    }


def bench_ablation_es_oracle(benchmark):
    results = run_once(benchmark, _ablation)
    print()
    print("Eq. 7 cost reached by each ES variant:")
    for name, cost in results.items():
        print(f"  {name:20s} {cost:10.5f}")
    # Multi-start must never lose to single-start.
    assert results["multi-start (deep)"] <= \
        results["single-start (deep)"] * 1.0001
