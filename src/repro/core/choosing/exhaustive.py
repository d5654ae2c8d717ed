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

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from repro.core.allocation.exhaustive import ExhaustiveAllocator
from repro.core.choosing.base import ChoiceResult, ChoiceStep, plan_universe
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import ABSENT, RAW, Configuration, Universe
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError

__all__ = ["ExhaustiveChoice", "enumerate_structures"]


def enumerate_structures(universe: Universe, members: Iterable[int],
                         limit: int = 64, prune_single_child: bool = False
                         ) -> Iterator[Configuration]:
    """Every feed forest over the universe relations ``members``.

    :meth:`Configuration.nested` resolves a relation with several
    incomparable minimal supersets by a fixed tie-break; the choice can
    matter (e.g. with relations {A, B, C, AB, AC}, attaching A under AB
    versus under AC yields different costs), so the oracle enumerates the
    cartesian product of parent choices, read off the universe's masks.
    ``limit`` caps the product (ambiguity is rare; 2-4 options per
    ambiguous relation in practice). With ``prune_single_child`` a forest
    that gives some phantom fewer than two children counts against
    ``limit`` but is not yielded.

    Almost every assignment leaves some phantom childless (103 820 of
    103 920 over one {A,B,C,D} choice) and is no configuration, so the
    product is walked depth first, in its own order, and a branch is cut
    on reaching a childless phantom: its strict subsets, the only
    relations that can feed it, all come before it.
    """
    members = sorted(members)
    rels = universe.rels
    if not universe.queries <= {rels[i] for i in members}:
        return
    member_set = set(members)
    choices: list[list[int]] = []
    for i in members:
        sups = [j for j in universe.supersets(i) if j in member_set]
        choices.append([s for s in sups if not any(
            s in universe.supersets(t) for t in sups)] or [RAW])
    phantoms = {i for i in members if rels[i] not in universe.queries}
    parent_of = [ABSENT] * len(rels)
    fed = [0] * (len(rels) + 1)  # the last slot, fed[RAW], counts roots
    count = 0

    def walk(k: int) -> Iterator[Configuration]:
        nonlocal count
        if k == len(members):
            if count < limit:
                count += 1
                if not prune_single_child or all(fed[p] >= 2
                                                 for p in phantoms):
                    yield Configuration.from_arrays(universe, parent_of[:])
            return
        if members[k] in phantoms and not fed[members[k]]:
            return  # childless: its strict subsets all come before it
        for choice in choices[k]:
            parent_of[members[k]] = choice
            fed[choice] += 1
            yield from walk(k + 1)
            fed[choice] -= 1
            if count >= limit:
                return

    yield from walk(0)


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
        universe = plan_universe(queries, stats)
        targets = [universe.index[q] for q in universe.queries]
        candidates = [i for i, rel in enumerate(universe.rels)
                      if rel not in universe.queries]
        allocator = ExhaustiveAllocator(self.model, self.clustered)
        best: ChoiceResult | None = None
        for k in range(0, len(candidates) + 1):
            for subset in combinations(candidates, k):
                # prune_single_child: the paper's heuristic (docstring).
                for config in enumerate_structures(
                        universe, targets + list(subset),
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
