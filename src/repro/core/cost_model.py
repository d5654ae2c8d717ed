"""The MA cost model (paper Section 3.2).

Two cost components are modeled for a configuration ``I`` with a given space
allocation:

* **Intra-epoch (maintenance) cost**, Eq. 7 — the expected per-record cost of
  keeping every hash table up to date. Each raw relation is probed once per
  record (cost ``c1``); a relation's children are updated (cost ``c1`` each)
  only when it suffers a collision; collisions at *leaf* relations evict to
  the HFTA (cost ``c2``)::

      e_m = sum_{R in I} (prod_{R' in A_R} x_{R'}) c1
          + sum_{R in L} (prod_{R' in A_R} x_{R'}) x_R c2

* **End-of-epoch (update) cost**, Eq. 8 — the cost of the top-down flush at
  an epoch boundary. Every resident entry of every table is propagated to
  its children and ultimately to the HFTA. With ``occ(R)`` the expected
  number of occupied buckets of ``R`` and ``arrivals(R)`` the entries
  reaching ``R`` during the flush::

      arrivals(R) = occ(parent) + x(parent) * arrivals(parent)
      E_u = sum_{R not raw} arrivals(R) c1
          + sum_{R in L} (occ(R) + arrivals(R)) c2

  (See DESIGN.md for the derivation from the paper's garbled Eq. 8; the
  ``c2`` term is exact in aggregate — everything arriving at a leaf during
  the flush, plus the leaf's residents, reaches the HFTA.)

Collision rates come from a pluggable :class:`CollisionModel`; clusteredness
divides the per-record rate by the relation's mean flow length (Eq. 15).
Flush-time propagation uses *unclustered* rates, because flush arrivals are
per-group entries rather than packets.

Both equations are written once, over a configuration's index arrays:
:func:`eq7_sums` and :func:`eq8_sums` walk a topological order with
parent indices, summing left to right. The functions below that take
statistics attach them (``config.with_stats(stats)``) and call them; the
choosers, ES and admission price with :func:`intra_cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.attributes import AttributeSet
from repro.core.collision.base import CollisionModel, clamp_rate
from repro.core.configuration import RAW, Configuration
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError

__all__ = [
    "CostParameters",
    "CostBreakdown",
    "eq7_sums",
    "eq8_sums",
    "relation_rate",
    "config_rates",
    "intra_cost",
    "collision_rates",
    "intra_epoch_cost",
    "per_record_cost",
    "expected_occupancy",
    "flush_cost",
]


@dataclass(frozen=True)
class CostParameters:
    """The two architecture constants of the LFTA/HFTA cost model.

    ``probe_cost`` is ``c1`` (an LFTA hash-table probe/update);
    ``evict_cost`` is ``c2`` (a transfer from the LFTA to the HFTA). The
    paper models ``c2/c1 = 50`` as measured in operational systems.
    """

    probe_cost: float = 1.0
    evict_cost: float = 50.0

    def __post_init__(self) -> None:
        if self.probe_cost <= 0 or self.evict_cost <= 0:
            raise ValueError("cost parameters must be positive")

    @property
    def ratio(self) -> float:
        """``c2 / c1``."""
        return self.evict_cost / self.probe_cost


@dataclass(frozen=True)
class CostBreakdown:
    """A cost split into its probe (``c1``) and eviction (``c2``) parts."""

    probe: float
    evict: float

    @property
    def total(self) -> float:
        return self.probe + self.evict


def eq7_sums(order: Sequence[int], parent: Sequence[int],
             leaf: Sequence[bool], x: Sequence[float],
             reach: list | None = None) -> tuple[float, float]:
    """Eq. 7's probe and eviction sums, before the ``c1``/``c2`` weights.

    ``order`` is topological (parents first) and ``parent[i] < 0`` marks a
    raw relation. ``reach``, if given, receives each relation's
    coefficient ``prod_{R' in A_R} x_{R'}``.
    """
    if reach is None:
        reach = [0.0] * len(parent)
    probe = evict = 0.0
    for i in order:
        p = parent[i]
        r = 1.0 if p < 0 else reach[p] * x[p]
        reach[i] = r
        probe += r
        if leaf[i]:
            evict += r * x[i]
    return probe, evict


def eq8_sums(order: Sequence[int], parent: Sequence[int],
             leaf: Sequence[bool], x: Sequence[float],
             occ: Sequence[float]) -> tuple[float, float]:
    """Eq. 8's probe and eviction sums, before the ``c1``/``c2`` weights."""
    arrivals = [0.0] * len(parent)
    probe = 0.0
    evict = 0.0
    for i in order:
        p = parent[i]
        if p < 0:
            a = 0.0
        else:
            a = occ[p] + x[p] * arrivals[p]
            arrivals[i] = a
            probe += a
        if leaf[i]:
            evict += occ[i] + a
    return probe, evict


def relation_rate(model: CollisionModel, groups: float, buckets: float,
                  flow_length: float = 1.0) -> float:
    """One relation's collision rate, divided by the mean flow length of
    the clustered stream feeding it (Eq. 15; ``1`` when it is fed by
    another relation, or the stream is not clustered)."""
    return clamp_rate(model.rate(groups, buckets) / flow_length)


def config_rates(config: Configuration, buckets: Sequence[float],
                 model: CollisionModel, clustered: bool) -> list[float]:
    """Per-relation collision rates, indexed like ``buckets``.

    With ``clustered`` a raw relation's rate is divided by its mean flow
    length (Eq. 15); fed relations see eviction streams, whose
    clusteredness is already consumed upstream.
    """
    u = config.universe
    g, l, parent = u.g, u.l, config.parent_of
    x = [0.0] * len(g)
    for i in config.order:
        x[i] = relation_rate(model, g[i], buckets[i],
                             l[i] if clustered and parent[i] == RAW else 1.0)
    return x


def intra_cost(config: Configuration, buckets: Sequence[float],
               model: CollisionModel, params: CostParameters,
               clustered: bool = True) -> float:
    """Eq. 7's total for a configuration and its bucket counts."""
    x = config_rates(config, buckets, model, clustered)
    probe, evict = eq7_sums(config.order, config.parent_of, config.leaf, x)
    return probe * params.probe_cost + evict * params.evict_cost


def bucket_list(config: Configuration,
                buckets: Mapping[AttributeSet, float]) -> list[float]:
    """An allocation's bucket counts indexed like ``config``'s universe
    (zero for relations it does not instantiate)."""
    out = [0.0] * len(config.universe.rels)
    for i, rel in zip(config.order, config.relations):
        try:
            b = buckets[rel]
        except KeyError:
            raise AllocationError(
                f"no bucket count allocated for {rel}") from None
        if b <= 0:
            raise AllocationError(f"non-positive bucket count for {rel}: {b}")
        out[i] = b
    return out


def collision_rates(config: Configuration, stats: RelationStatistics,
                    buckets: Mapping[AttributeSet, float],
                    model: CollisionModel,
                    clustered: bool = True) -> dict[AttributeSet, float]:
    """Per-relation collision rates for a configuration and allocation.

    With ``clustered=True`` (the default) each rate is divided by the
    relation's mean flow length (Eq. 15); raw relations see the packet
    stream, while fed relations see eviction streams whose clusteredness is
    already consumed upstream, so flow lengths for non-raw relations should
    normally be 1 in ``stats`` unless measured otherwise.
    """
    config = config.with_stats(stats)
    x = config_rates(config, bucket_list(config, buckets), model, clustered)
    rels = config.universe.rels
    return {rels[i]: x[i] for i in config.order}


def intra_epoch_cost(config: Configuration,
                     rates: Mapping[AttributeSet, float],
                     params: CostParameters) -> CostBreakdown:
    """Eq. 7: expected per-record maintenance cost given collision rates."""
    x = [rates[rel] if rel in config else 0.0 for rel in config.universe.rels]
    probe, evict = eq7_sums(config.order, config.parent_of, config.leaf, x)
    return CostBreakdown(probe * params.probe_cost,
                         evict * params.evict_cost)


def per_record_cost(config: Configuration, stats: RelationStatistics,
                    buckets: Mapping[AttributeSet, float],
                    model: CollisionModel, params: CostParameters,
                    clustered: bool = True) -> float:
    """Convenience: Eq. 7 total from statistics and an allocation."""
    config = config.with_stats(stats)
    return intra_cost(config, bucket_list(config, buckets), model, params,
                      clustered)


def expected_occupancy(groups: float, buckets: float) -> float:
    """Expected number of occupied buckets: ``b (1 - (1 - 1/b)^g)``.

    This is the number of entries resident in a table once ``g`` groups have
    hashed into ``b`` buckets — the table's contribution to the end-of-epoch
    flush. It approaches ``g`` when ``b >> g`` and ``b`` when ``g >> b``.
    """
    if groups <= 0 or buckets <= 0:
        return 0.0
    if buckets <= 1.0:
        return 1.0
    p_empty = math.exp(groups * math.log1p(-1.0 / buckets))
    return buckets * (1.0 - p_empty)


def flush_cost(config: Configuration, stats: RelationStatistics,
               buckets: Mapping[AttributeSet, float],
               model: CollisionModel, params: CostParameters
               ) -> CostBreakdown:
    """Eq. 8: the end-of-epoch update cost ``E_u`` of a configuration.

    Uses unclustered collision rates for the in-flush propagation (flush
    arrivals are group entries, not packets) and expected occupancy for the
    number of resident entries per table.

    Like the paper's Eq. 8, this is a *conservative* bound: it assumes no
    flush arrival merges with a same-group resident, while in practice a
    parent's groups project onto far fewer child groups and mostly merge.
    Measured behaviour (see tests): exact on flat configurations, ~2-3x
    above the measured flush cost on phantom trees — safe for the
    peak-load constraint it exists to enforce.
    """
    config = config.with_stats(stats)
    b = bucket_list(config, buckets)
    x = config_rates(config, b, model, clustered=False)
    occ = [expected_occupancy(g, bi) for g, bi in zip(config.universe.g, b)]
    probe, evict = eq8_sums(config.order, config.parent_of, config.leaf, x,
                            occ)
    return CostBreakdown(probe * params.probe_cost,
                         evict * params.evict_cost)
