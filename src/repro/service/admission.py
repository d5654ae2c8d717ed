"""Admission control: price a registration before it can hurt anyone.

Three constraints, checked in order of severity, each raising
:class:`~repro.errors.AdmissionError` naming itself as the binding one:

* **global-memory** — with the candidate query admitted, the flat
  configuration (every distinct group-by gets a table, no phantoms yet —
  the planner can only improve on this) must still give every table at
  least one bucket within the global LFTA budget. This is the hard
  floor: past it the engine cannot run at all.
* **tenant-quota** — a tenant's *reservation price* must fit its quota.
  The price of a table is its ``phi``-sized space ``max(phi g, 1) h``
  (the GS sizing rule: all tables at collision rate ``x(1/phi)``), split
  evenly among the tenants sharing that group-by — sharing a table is
  cheaper for everyone, which is the economy the service exists to
  exploit. Quotas are optional and per-tenant.
* **cost-slo** — predicted per-record cost with the candidate admitted
  must stay under ``max_cost_per_record``. Three candidate space splits
  of the flat configuration (the paper's sqrt demand rule, proportional,
  uniform) are each priced with the planner's scalar Eq. 7
  (:func:`~repro.core.cost_model.intra_cost`) and the cheapest is
  compared against the SLO, so admission stays O(microseconds) and never
  runs the full planner.

A rejection leaves the registry, the live plan, and every admitted
tenant untouched; the same tenant may retry later (e.g. after another
tenant retires, or with a narrower query).

Admission uses whatever statistics the service can offer — sketch
estimates once data flows, caller-supplied ``expected_groups`` hints
before that — so the checks are estimates, not guarantees. The SLO
machinery in :class:`~repro.service.service.StreamService` is the
backstop once measured costs exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, intra_cost
from repro.core.statistics import RelationStatistics
from repro.errors import AdmissionError
from repro.service.registry import QueryRegistry

__all__ = ["AdmissionPolicy", "check_admission"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """The limits a registration is priced against.

    Parameters
    ----------
    memory:
        Global LFTA budget in allocation units (shared by all tenants).
    tenant_quota:
        Default per-tenant reservation limit in units; None = unlimited.
    tenant_quotas:
        Per-tenant overrides of ``tenant_quota``.
    max_cost_per_record:
        Predicted Eq. 7 cost ceiling; None = no cost SLO at admission.
    phi:
        Table sizing used to price reservations (``max(phi g, 1) h``
        units per table), the GS sizing rule.
    """

    memory: float
    tenant_quota: float | None = None
    tenant_quotas: Mapping[str, float] = field(default_factory=dict)
    max_cost_per_record: float | None = None
    phi: float = 1.0

    def __post_init__(self) -> None:
        if self.memory <= 0:
            raise ValueError("admission memory budget must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")

    def quota_for(self, tenant: str) -> float | None:
        return self.tenant_quotas.get(tenant, self.tenant_quota)

    def to_dict(self) -> dict:
        return {
            "memory": self.memory,
            "tenant_quota": self.tenant_quota,
            "tenant_quotas": dict(self.tenant_quotas),
            "max_cost_per_record": self.max_cost_per_record,
            "phi": self.phi,
        }


def _table_price(policy: AdmissionPolicy, stats: RelationStatistics,
                 rel: AttributeSet) -> float:
    """Reservation price of one table: ``max(phi g, 1) h`` units."""
    return (max(policy.phi * stats.group_count(rel), 1.0)
            * stats.entry_units(rel))


def _candidate_costs(config: Configuration, memory: float,
                     params: CostParameters) -> list[float]:
    """Eq. 7 of a few plausible space splits of ``memory`` over ``config``
    (indexed in topological order, :meth:`Configuration.topological`).

    Shapes tried: the paper's Section 5.3 sqrt demand rule, straight
    proportional-to-demand, and uniform, each floored at one bucket per
    table. Admission compares the SLO against the cheapest.
    """
    h = config.universe.h
    entry = np.asarray(h, dtype=np.float64)
    demand = np.asarray([config.demand_score(i) for i in config.order],
                        dtype=np.float64)
    shapes = [
        np.sqrt(demand) * entry,
        demand * entry,
        np.ones_like(entry),
    ]
    model = LookupModel()
    costs = []
    for shape in shapes:
        total = float(shape.sum())
        if total <= 0 or not math.isfinite(total):
            continue
        spaces = shape * (memory / total)
        # Every table needs >= 1 bucket; take the top-up from the rest.
        deficit = float(np.clip(entry - spaces, 0.0, None).sum())
        spaces = np.maximum(spaces, entry)
        surplus = spaces > entry
        if deficit > 0 and surplus.any():
            excess = float((spaces[surplus] - entry[surplus]).sum())
            if excess > 0:
                scale = max(0.0, 1.0 - deficit / excess)
                spaces[surplus] = (entry[surplus]
                                   + (spaces[surplus] - entry[surplus])
                                   * scale)
        buckets = [s / h[i] for i, s in enumerate(spaces.tolist())]
        costs.append(intra_cost(config, buckets, model, params))
    return costs


def check_admission(policy: AdmissionPolicy, registry: QueryRegistry,
                    tenant: str, query, stats: RelationStatistics,
                    params: CostParameters | None = None) -> None:
    """Raise :class:`AdmissionError` if admitting ``query`` would bind.

    ``stats`` must cover every distinct group-by of the candidate set
    (the service guarantees this with sketches, product bounds and
    caller hints). The registry itself is never mutated here.
    """
    params = params or CostParameters()
    candidate = registry.physical_query_set(extra=query)
    config = Configuration.flat(candidate.group_bys).topological(stats)
    floor = config.minimum_space()
    if floor > policy.memory:
        raise AdmissionError(
            f"cannot admit tenant {tenant!r}: binding constraint is "
            f"global-memory — {len(config)} tables need {floor:.0f} units "
            f"just for one bucket each, budget is {policy.memory:.0f}",
            constraint="global-memory", tenant=tenant,
            required=floor, limit=policy.memory)

    quota = policy.quota_for(tenant)
    if quota is not None:
        held = [r.group_by for r in registry.queries_for(tenant)]
        if query.group_by not in held:
            held.append(query.group_by)
        price = 0.0
        for attrs in held:
            sharing = set(registry.sharers(attrs)) | {tenant}
            price += _table_price(policy, stats, attrs) / len(sharing)
        if price > quota:
            raise AdmissionError(
                f"cannot admit tenant {tenant!r}: binding constraint is "
                f"tenant-quota — reservation price {price:.0f} units "
                f"(phi={policy.phi:g} sizing, shared tables split) "
                f"exceeds the tenant's quota of {quota:.0f}",
                constraint="tenant-quota", tenant=tenant,
                required=price, limit=quota)

    if policy.max_cost_per_record is not None:
        costs = _candidate_costs(config, policy.memory, params)
        if costs:
            best = min(costs)
            if best > policy.max_cost_per_record:
                raise AdmissionError(
                    f"cannot admit tenant {tenant!r}: binding constraint "
                    f"is cost-slo — best predicted cost {best:.3f}/record "
                    f"over {len(costs)} candidate allocations exceeds the "
                    f"SLO of {policy.max_cost_per_record:.3f}",
                    constraint="cost-slo", tenant=tenant,
                    required=best, limit=policy.max_cost_per_record)
