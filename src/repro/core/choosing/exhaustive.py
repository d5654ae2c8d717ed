"""EPES — exhaustive phantom choice with exhaustive space allocation.

The paper's optimal reference (Section 6.3): enumerate every combination of
candidate phantoms, derive the configuration each induces, allocate space
with ES, and keep the cheapest. Exponential in the number of candidate
phantoms — usable for the paper's 4-attribute workloads (up to 11
candidates) but only as an oracle.

By default, subsets whose induced configuration gives some phantom fewer
than two children are skipped, following the paper's claim that "a
phantom that feeds less than two relations is never beneficial" — a
16x speedup (76 instead of 702 evaluated configurations on the {A,B,C,D}
workload) that leaves the optimum unchanged on the paper's statistics
(tested).

**Caveat**: the claim is not a theorem under the paper's own cost model
when ``c2 >> c1``. A single-child phantom chain acts as an *eviction
filter*: probing ``AB`` instead of ``B`` costs the same one probe per
record, but ``B``'s expensive HFTA evictions gain an attenuation factor
``x_AB < 1`` at the price of one cheap ``c1`` update per ``AB``
collision — a net win whenever ``(1 - x_AB) x_B c2 > x_AB c1``. GCSL
exploits such chains (its surgery allows them); pass
``prune_single_child=False`` for the strict oracle. See
``tests/core/test_single_child_phantoms.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product

from repro.core.allocation.exhaustive import ExhaustiveAllocator
from repro.core.choosing.base import ChoiceResult, ChoiceStep
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError, ConfigurationError

__all__ = ["ExhaustiveChoice", "enumerate_structures"]


def enumerate_structures(relations, queries, limit: int = 64,
                         prune_single_child: bool = False):
    """Every feed forest over a fixed relation set.

    ``Configuration.from_relations`` resolves a relation with several
    incomparable minimal supersets by a fixed tie-break; the choice can
    matter (e.g. with relations {A, B, C, AB, AC}, attaching A under AB
    versus under AC yields different costs), so the oracle enumerates the
    cartesian product of parent choices. ``limit`` caps the product
    (ambiguity is rare; 2-4 options per ambiguous relation in practice).
    With ``prune_single_child`` a forest that gives some phantom fewer
    than two children counts against ``limit`` but is not yielded.

    Almost every assignment leaves some phantom childless (103 820 of
    103 920 over one {A,B,C,D} choice), so feasibility is read off the
    parent assignment and only forests that will be yielded are built.
    """
    rels = sorted(set(relations), key=lambda r: r.sort_key())
    choices: list[list] = []
    for rel in rels:
        supersets = [other for other in rels if rel < other]
        minimal = [s for s in supersets
                   if not any(t < s for t in supersets)]
        choices.append(minimal if minimal else [None])
    queries = frozenset(queries)
    phantoms = [rel for rel in rels if rel not in queries]
    count = 0
    for assignment in product(*choices):
        if count >= limit:
            return
        fed = Counter(assignment)
        fewest = min((fed[p] for p in phantoms), default=2)
        if fewest == 0:
            continue  # a childless phantom: not a configuration
        if prune_single_child and fewest < 2:
            count += 1
            continue
        try:
            config = Configuration(dict(zip(rels, assignment)), queries)
        except ConfigurationError:
            continue
        count += 1
        yield config


@dataclass(frozen=True)
class ExhaustiveChoice:
    """Try every phantom subset; allocate each with ES.

    ES optimises Eq. 7 under this chooser's own ``model`` and
    ``clustered``, the objective the result is priced and compared by.
    """

    model: CollisionModel = field(default_factory=LookupModel)
    clustered: bool = True
    prune_single_child: bool = True

    name = "EPES"

    def choose(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters) -> ChoiceResult:
        graph = FeedingGraph(queries)
        candidates = [p for p in graph.phantoms if stats.has(p)]
        allocator = ExhaustiveAllocator(self.model, self.clustered)
        best: ChoiceResult | None = None
        for k in range(0, len(candidates) + 1):
            for subset in combinations(candidates, k):
                relations = list(queries.group_bys) + list(subset)
                # prune_single_child: the paper's heuristic (docstring).
                for config in enumerate_structures(
                        relations, queries.group_bys,
                        prune_single_child=self.prune_single_child):
                    try:
                        allocation = allocator.allocate(
                            config, stats, memory, params)
                    except AllocationError:
                        continue
                    cost = per_record_cost(config, stats,
                                           allocation.buckets,
                                           self.model, params,
                                           self.clustered)
                    if best is None or cost < best.cost:
                        best = ChoiceResult(
                            config, allocation, cost,
                            (ChoiceStep(None, config, cost),))
        if best is None:
            raise AllocationError(
                "no feasible configuration fits in the memory budget")
        return best
