"""The tenant query registry: who is asking for what, right now.

A :class:`QueryRegistry` maps tenants to their registered aggregation
queries. Two tenants may register the same grouping attributes — they
then share one physical LFTA table and one set of HFTA partials, which
is exactly the paper's shared-evaluation economy applied across tenants.
The *physical* query set handed to the planner therefore contains one
representative query per distinct group-by; per-tenant answers are
rendered from the shared partials with each tenant's own aggregate and
HAVING threshold.

The registry is pure bookkeeping: admission control
(:mod:`repro.service.admission`) decides whether a registration is
*allowed*, the :class:`~repro.service.service.StreamService` decides
when changes take *effect* (at epoch boundaries, via staged
reconfiguration). ``version`` increments on every successful mutation.

The registry hands out one :class:`~repro.core.queries.QuerySet` per
physical set: asked again for the set it last handed out, or for its
own, it returns the same object, so an admitted candidate *is* the next
physical set, and the feeding graph the set keeps is built once for
admission, statistics and the plan together.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import AttributeSet
from repro.core.queries import AggregationQuery, QuerySet
from repro.errors import SchemaError

__all__ = ["QueryRegistry", "Registration"]


@dataclass(frozen=True)
class Registration:
    """One tenant's claim on one group-by."""

    tenant: str
    query: AggregationQuery
    seq: int

    @property
    def group_by(self) -> AttributeSet:
        return self.query.group_by


class QueryRegistry:
    """Tenant -> queries bookkeeping with runtime register/retire."""

    def __init__(self, epoch_seconds: float | None = None):
        #: tenant -> group_by -> Registration (insertion-ordered).
        self._tenants: dict[str, dict[AttributeSet, Registration]] = {}
        #: Epoch length shared by every registered query; locked by the
        #: first registration when not pinned at construction.
        self.epoch_seconds = epoch_seconds
        #: Bumped on every successful mutation (register or retire).
        self.version = 0
        self._seq = 0
        #: Query sets :meth:`physical_query_set` handed out, by group-by
        #: set: the last one and the registry's own.
        self._handed: dict[frozenset[AttributeSet], QuerySet] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(self, tenant: str, query: AggregationQuery) -> Registration:
        """Record a tenant's query; no admission logic lives here."""
        if not tenant:
            raise SchemaError("tenant name must be non-empty")
        if self.epoch_seconds is None:
            self.epoch_seconds = query.epoch_seconds
        elif query.epoch_seconds != self.epoch_seconds:
            raise SchemaError(
                f"query epoch {query.epoch_seconds}s does not match the "
                f"registry epoch {self.epoch_seconds}s (all LFTA tables "
                "flush on one shared epoch clock)")
        held = self._tenants.get(tenant)
        if held is not None and query.group_by in held:
            raise SchemaError(
                f"tenant {tenant!r} already registered a query grouping "
                f"by {query.group_by}")
        self._seq += 1
        registration = Registration(tenant, query, self._seq)
        self._tenants.setdefault(tenant, {})[query.group_by] = registration
        self.version += 1
        return registration

    def retire(self, tenant: str,
               group_by: AttributeSet | str | None = None
               ) -> list[Registration]:
        """Drop one query (or, with ``group_by=None``, the whole tenant).

        Returns the retired registrations. Unknown tenants or group-bys
        raise :class:`~repro.errors.SchemaError` — a retire that silently
        does nothing would mask client bookkeeping bugs.
        """
        held = self._tenants.get(tenant)
        if not held:
            raise SchemaError(f"unknown tenant {tenant!r}")
        if group_by is None:
            retired = list(held.values())
            del self._tenants[tenant]
        else:
            attrs = (group_by if isinstance(group_by, AttributeSet)
                     else AttributeSet.parse(group_by))
            if attrs not in held:
                raise SchemaError(
                    f"tenant {tenant!r} has no query grouping by {attrs}")
            retired = [held.pop(attrs)]
            if not held:
                del self._tenants[tenant]
        self.version += 1
        return retired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> list[str]:
        return list(self._tenants)

    def __len__(self) -> int:
        """Number of registrations (tenant-query pairs)."""
        return sum(len(held) for held in self._tenants.values())

    @property
    def is_empty(self) -> bool:
        return not self._tenants

    def queries_for(self, tenant: str) -> list[Registration]:
        return list(self._tenants.get(tenant, {}).values())

    def group_bys(self) -> list[AttributeSet]:
        """Distinct group-bys, in first-registration order."""
        seen: dict[AttributeSet, None] = {}
        for held in self._tenants.values():
            for attrs in held:
                seen.setdefault(attrs, None)
        return list(seen)

    def sharers(self, group_by: AttributeSet) -> list[str]:
        """Tenants currently holding a query on this group-by."""
        return [tenant for tenant, held in self._tenants.items()
                if group_by in held]

    def physical_query_set(
            self, extra: AggregationQuery | None = None) -> QuerySet:
        """The planner-facing query set: one count query per distinct
        group-by (``extra`` previews a candidate registration).

        Physical tables are aggregate-agnostic — entries always carry a
        count plus (when a value column flows) value sum/min/max — so the
        representative's aggregate kind does not matter; per-tenant
        answers apply each tenant's own aggregate to the shared partials.
        A set handed out before keeps the query order it was built in;
        a plan does not depend on it.
        """
        group_bys = self.group_bys()
        own = frozenset(group_bys)
        if extra is not None and extra.group_by not in own:
            group_bys.append(extra.group_by)
        epoch = self.epoch_seconds if self.epoch_seconds is not None else \
            (extra.epoch_seconds if extra is not None else None)
        if not group_bys or epoch is None:
            raise SchemaError("the registry holds no queries")
        key = frozenset(group_bys)
        queries = self._handed.get(key)
        if queries is None or queries.epoch_seconds != epoch:
            queries = QuerySet.counts(group_bys, epoch_seconds=epoch)
        # Kept: this set, which an admitted candidate becomes, and the
        # registry's own, which a candidate that adds no table is.
        kept = {key: queries}
        if own != key and own in self._handed:
            kept[own] = self._handed[own]
        self._handed = kept
        return queries

    # ------------------------------------------------------------------
    # Serialization (rides in the service checkpoint payload)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        return {
            "epoch_seconds": self.epoch_seconds,
            "version": self.version,
            "seq": self._seq,
            "registrations": [
                registration
                for held in self._tenants.values()
                for registration in held.values()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "QueryRegistry":
        registry = cls(epoch_seconds=state["epoch_seconds"])
        for registration in state["registrations"]:
            held = registry._tenants.setdefault(registration.tenant, {})
            held[registration.group_by] = registration
        registry.version = state["version"]
        registry._seq = state["seq"]
        return registry
