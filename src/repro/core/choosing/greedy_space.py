"""GS — greedy by increasing space (paper Section 3.4.1).

GS adapts the view-materialization greedy algorithm: every instantiated
relation's hash table is sized at ``phi * g`` buckets (so all tables share
the collision rate implied by ``g/b = 1/phi``). Phantoms are ranked by
benefit per unit of space, ``benefit_R / (phi g_R h_R)``, and added while
beneficial and while the budget allows; any leftover space at the end is
distributed to the instantiated relations proportionally to their group
counts (Section 6.3).

The paper's drawbacks of GS are visible in the experiments: ``phi`` must be
tuned (Figure 11's knee), and equalizing collision rates across tables is
suboptimal compared with SL's analysis-driven split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.allocation.base import allocation_of, split_to_buckets
from repro.core.choosing.base import (
    MIN_BENEFIT,
    ChoiceResult,
    ChoiceStep,
    start_configuration,
)
from repro.core.collision.base import CollisionModel
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import RAW, Configuration
from repro.core.cost_model import (
    CostParameters,
    eq7_sums,
    intra_cost,
    relation_rate,
)
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics

__all__ = ["GreedySpace"]

#: Relative slack of a round's one-pass benefit scores: every candidate
#: scoring within it of the best is re-scored with the exact Eq. 7
#: difference. Rounding in either sum is ~1e-15 of the cost.
_SCORE_SLACK = 1e-9


@dataclass(frozen=True)
class GreedySpace:
    """The GS algorithm with table sizes fixed at ``phi * g`` buckets.

    Under phi-sizing every relation's collision rate depends only on
    itself (and, on clustered streams, on whether it is raw), so Eq. 7 is
    additive: a candidate changes the cost only below the point it would
    attach at. Each round scores every candidate from per-relation reach
    and subtree costs in one pass, then re-scores those the pass cannot
    tell from the best with the exact Eq. 7 difference, so the pick is
    the full rescan's, ties included (first in candidate order).
    """

    phi: float = 1.0
    model: CollisionModel = field(default_factory=LookupModel)
    clustered: bool = True

    def __post_init__(self) -> None:
        if self.phi <= 0:
            raise ValueError("phi must be positive")

    @property
    def name(self) -> str:
        return f"GS(phi={self.phi:g})"

    def choose(self, queries: QuerySet, stats: RelationStatistics,
               memory: float, params: CostParameters) -> ChoiceResult:
        config = start_configuration(queries, stats)
        u = config.universe
        c1, c2 = params.probe_cost, params.evict_cost
        size = [max(self.phi * g, 1.0) for g in u.g]
        price = [b * h for b, h in zip(size, u.h)]
        # A relation's rate when fed by another relation and when fed by
        # the stream; they differ only on clustered streams.
        fed = [relation_rate(self.model, g, b) for g, b in zip(u.g, size)]
        raw = fed
        if self.clustered:
            raw = [relation_rate(self.model, g, b, l)
                   for g, l, b in zip(u.g, u.l, size)]

        def phi_rates(f: Configuration) -> list[float]:
            return [raw[i] if p == RAW else fed[i]
                    for i, p in enumerate(f.parent_of)]

        def phi_cost(f: Configuration) -> float:
            probe, evict = eq7_sums(f.order, f.parent_of, f.emits,
                                    phi_rates(f))
            return probe * c1 + evict * c2

        def step(phantom, f: Configuration
                 ) -> tuple[list[float], ChoiceStep]:
            # Trajectory costs include the leftover-space distribution, so
            # they reflect what the configuration would actually cost if
            # the greedy stopped here (the paper's Figure 12 view); the
            # *selection* itself compares phi-sized costs.
            buckets = _final_buckets(f, size, price, memory)
            cost = intra_cost(f, buckets, self.model, params, self.clustered)
            return buckets, ChoiceStep(phantom, f, cost)

        cost = phi_cost(config)
        buckets, first = step(None, config)
        trajectory = [first]
        remaining = [i for i, rel in enumerate(u.rels)
                     if rel not in u.queries]
        used = sum(price[i] for i in config.order)
        while remaining:
            best = None
            for p in _leaders(config, remaining, used, memory, price, fed,
                              raw, phi_rates(config), cost, c1, c2):
                trial = config.with_phantom_at(p)
                trial_cost = phi_cost(trial)
                benefit_per_unit = (cost - trial_cost) / price[p]
                if best is None or benefit_per_unit > best[0]:
                    best = (benefit_per_unit, p, trial, trial_cost)
            if best is None or best[0] <= MIN_BENEFIT:
                break
            _, chosen, config, cost = best
            used += price[chosen]
            remaining.remove(chosen)
            buckets, last = step(u.rels[chosen], config)
            trajectory.append(last)
        return ChoiceResult(config, allocation_of(config, buckets),
                            trajectory[-1].cost, tuple(trajectory))


def _below(c1: float, c2: float, x: float, emits: bool, below: list[float],
           children: list[int]) -> float:
    """A relation's subtree cost per unit of reach, at collision rate
    ``x``: its probe, ``c2 x`` if it emits (a query), and ``x`` times its
    children's ``below`` if it feeds any — an emitting inner query pays
    both."""
    cost = c1 + c2 * x if emits else c1
    if children:
        cost += x * sum([below[k] for k in children])
    return cost


def _leaders(config: Configuration, remaining: list[int], used: float,
             memory: float, price: list[float], fed: list[float],
             raw: list[float], x: list[float], cost: float, c1: float,
             c2: float) -> list[int]:
    """The affordable candidates that may carry the round's best benefit.

    Phantom ``p`` attaching under ``par`` and capturing ``C`` changes
    Eq. 7 only there. With ``reach`` Eq. 7's coefficient and ``below(R)``
    the cost of ``R``'s subtree per unit of reach::

        cost - cost' = reach(p) (sum_C below(c) - c1 - x_p sum_C below'(c))

    where ``below'`` differs from ``below`` only for captured roots, which
    stop being raw. Returned in candidate order.
    """
    order, parent = config.order, config.parent_of
    children, emits = config.children_of, config.emits
    reach = [0.0] * len(parent)
    eq7_sums(order, parent, emits, x, reach=reach)
    below = [0.0] * len(parent)
    for i in reversed(order):
        below[i] = _below(c1, c2, x[i], emits[i], below, children[i])
    scored = []
    for p in remaining:
        if used + price[p] > memory:
            continue
        par, captured = config.attach_point(p)
        if not captured:
            continue
        stay = sum([below[c] for c in captured])
        if par == RAW:
            kp, xp = 1.0, raw[p]
            moved = sum([_below(c1, c2, fed[c], emits[c], below,
                                children[c]) for c in captured])
        else:
            kp, xp = reach[par] * x[par], fed[p]
            moved = stay
        scored.append((kp * (stay - c1 - xp * moved) / price[p], p))
    if not scored:
        return []
    slack = _SCORE_SLACK * (abs(cost) + c1 + c2)
    floor = max(score - slack / price[p] for score, p in scored)
    return [p for score, p in scored if score + slack / price[p] >= floor]


def _final_buckets(config: Configuration, size: list[float],
                   price: list[float], memory: float) -> list[float]:
    """Distribute leftover space proportional to group counts.

    If even the base ``phi * g`` sizing does not fit (possible when the
    query tables alone exceed ``M``), all tables are scaled down
    proportionally instead; tables that would fall below one bucket are
    pinned at one and the rest share what is left, as
    :func:`~repro.core.allocation.split_to_buckets` does (and, like it,
    a budget below one bucket per table raises ``AllocationError``).
    """
    order = config.order
    u = config.universe
    used = sum(price[i] for i in order)
    buckets = [0.0] * len(size)
    if used > memory:
        factor = memory / used
        if any(size[i] * factor < 1.0 for i in order):
            return split_to_buckets(config, price, memory)
        for i in order:
            buckets[i] = size[i] * factor
        return buckets
    leftover = memory - used
    total_groups = sum(u.g[i] for i in order)
    for i in order:
        share = leftover * u.g[i] / total_groups
        buckets[i] = size[i] + share / u.h[i]
    return buckets
