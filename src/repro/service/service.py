"""The session layer: a long-running multi-tenant stream service.

:class:`StreamService` wraps one
:class:`~repro.gigascope.online.LiveStreamSystem` and turns it into a
service tenants talk to:

* **register/retire** — admission-checked (:mod:`.admission`) and
  recorded in the :class:`~repro.service.registry.QueryRegistry`; the
  physical query set they leave is planned once, by the
  :class:`~repro.service.replan.IncrementalReplanner`, at the next
  :meth:`~StreamService.push`, :meth:`~StreamService.finish` or
  :meth:`~StreamService.checkpoint`, so a burst of changes costs one
  plan and a burst that returns to the running set costs none. The swap
  lands at the first epoch not yet processed; the open epoch is never
  touched, so registry churn never blocks ingest.
* **activation windows** — each registration owns a *lease* recording
  the epoch range in which it was live. A tenant registering mid-stream
  only sees epochs from its activation on; a retired tenant keeps read
  access to the window it paid for. Windows align exactly with plan
  swaps: every lease edge is that first unprocessed epoch at call time
  (:meth:`StreamService._boundary_epoch`). No epoch closes between the
  call and the plan, so that is where the swap lands, and "active from"
  always equals "first epoch computed under a plan that includes me".
* **answers** — per-tenant, rendered from the shared HFTA partials with
  each tenant's own aggregate and HAVING threshold, filtered to the
  lease window. Tenants sharing a group-by share physical state but
  never see each other's epochs outside their own windows.
* **metrics** — one service-level
  :class:`~repro.observability.MetricsRegistry` plus one per tenant,
  mergeable into a single namespaced snapshot.
* **drift re-planning** — the live system's one re-plan rule, which
  re-plans with the service's own algorithm, ``phi`` and budget.
* **durability** — :meth:`checkpoint` rides the registry, leases,
  sketches and hints in the live checkpoint's ``extra`` payload;
  :meth:`restore` brings the whole service back mid-epoch.

Statistics for admission and planning come from a
:class:`~repro.core.sketches.StreamStatisticsCollector` that grows with
the feeding graph (``ensure``). Relations no sketch has seen yet are
bounded by the product of their single-attribute estimates (capped by
records seen) and by caller-supplied ``expected_groups`` hints, so
cold-start admission errs toward caution rather than crashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

from repro.core.attributes import AttributeSet
from repro.core.cost_model import CostParameters
from repro.core.feeding_graph import FeedingGraph
from repro.core.optimizer import Plan
from repro.core.queries import AggregationQuery, QuerySet
from repro.core.sketches import StreamStatisticsCollector
from repro.core.statistics import RelationStatistics
from repro.errors import (AdmissionError, CheckpointError, SchemaError,
                          StatisticsError)
from repro.gigascope.hfta import QueryAnswer
from repro.gigascope.online import EpochReport, LiveStreamSystem
from repro.gigascope.records import StreamSchema
from repro.gigascope.runtime import check_run
from repro.observability import MetricsRegistry, RunManifest
from repro.service.admission import AdmissionPolicy, check_admission
from repro.service.registry import QueryRegistry, Registration
from repro.service.replan import IncrementalReplanner

__all__ = ["StreamService"]

#: KMV size per sketched relation: ~6 % relative error on group counts,
#: ample for planning, whose inputs enter through square roots and ratios.
SKETCH_K = 256

#: The largest ``expected_groups`` hint :meth:`StreamService.register`
#: takes: no relation holds more groups than records, and no stream of
#: records counted in int64 has more than this. Up to it the planner's
#: arithmetic stays finite; a hint near float64's largest value (1e308)
#: overflows it to a NaN collision rate, and every later plan fails.
MAX_EXPECTED_GROUPS = 2.0 ** 63


@dataclass
class _Lease:
    """One registration's activation window, in epoch ids.

    ``start`` is the first epoch of the window and ``end`` the first
    after it; ``None`` means unbounded.
    """

    tenant: str
    query: AggregationQuery
    start: int | None = None
    end: int | None = None
    retired: bool = False

    def covers(self, epoch: int) -> bool:
        return (self.start is None or epoch >= self.start) and \
            (self.end is None or epoch < self.end)

    def window(self) -> dict:
        return {"tenant": self.tenant,
                "group_by": self.query.group_by.label(),
                "start": self.start, "end": self.end,
                "retired": self.retired}


class StreamService:
    """Multi-tenant session layer over a live two-level stream system."""

    def __init__(self, schema: StreamSchema, memory: float,
                 policy: AdmissionPolicy | None = None,
                 params: CostParameters | None = None,
                 algorithm: str = "gs", phi: float = 1.0,
                 value_column: str | None = None, salt_seed: int = 0,
                 metrics: MetricsRegistry | None = None):
        self.schema = schema
        self.memory = memory
        self.policy = policy or AdmissionPolicy(memory=memory)
        self.params = params or CostParameters()
        self.algorithm = algorithm
        self.phi = phi
        self.value_column = value_column
        self.salt_seed = salt_seed
        self.metrics = metrics or MetricsRegistry()
        self.registry = QueryRegistry()
        self.replanner = IncrementalReplanner(
            memory, self.params, algorithm=algorithm, phi=phi,
            clustered=False, metrics=self.metrics)
        self.live: LiveStreamSystem | None = None
        self.collector: StreamStatisticsCollector | None = None
        self._hints: dict[AttributeSet, float] = {}
        self._leases: dict[tuple[str, str], _Lease] = {}
        self._tenant_metrics: dict[str, MetricsRegistry] = {}
        #: Each attribute alone: the relations the cold bound multiplies.
        self._singles = {name: AttributeSet.of(name)
                         for name in schema.attributes}

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def _counters(self) -> int:
        return 2 if self.value_column else 1

    def tenant_metrics(self, tenant: str) -> MetricsRegistry:
        """The tenant's own metrics registry (created on first use)."""
        registry = self._tenant_metrics.get(tenant)
        if registry is None:
            registry = self._tenant_metrics[tenant] = MetricsRegistry()
        return registry

    def _ensure_collector(self, graph: FeedingGraph) -> None:
        relations = graph.nodes + list(self._singles.values())
        if self.collector is None:
            self.collector = StreamStatisticsCollector(
                relations, k=SKETCH_K, counters=self._counters)
        else:
            self.collector.ensure(relations, counters=self._counters)
        # The collector only ever grows; the live graph shrinks on retire.
        self.metrics.gauge("sketches.relations").set(
            len(self.collector.relations))
        self.metrics.gauge("service.graph_nodes").set(len(graph))

    def planning_statistics(self, queries: QuerySet) -> RelationStatistics:
        """Sketch statistics for ``queries``' full feeding graph.

        Cold relations (registered before any data at their granularity)
        get the most conservative defensible estimate: the product of
        their single-attribute estimates, capped by the number of
        records seen, further raised by the ``expected_groups`` hint of
        a registration. Only the graph's nodes are estimated, and the
        single attributes the bound multiplies.
        """
        graph = queries.graph
        self._ensure_collector(graph)
        collector = self.collector
        assert collector is not None
        groups: dict[AttributeSet, float] = {}
        seen = max(collector.records_seen, 1)
        # Nodes come by size, so a single-attribute node is settled
        # before any bound reads it.
        for rel in graph.nodes:
            est = collector.group_count(rel)
            if est <= 1.0:
                # Cold sketch: bound by the attribute-wise product, which
                # can never undercount, capped by the records seen, which
                # can never be exceeded.
                bound = 1.0
                for name in rel:
                    single = self._singles[name]
                    bound *= groups[single] if single in groups else \
                        collector.group_count(single)
                est = max(min(bound, float(seen)), 1.0)
            groups[rel] = max(est, self._hints.get(rel, 1.0))
        return RelationStatistics(groups, {}, counters=self._counters)

    # ------------------------------------------------------------------
    # Registration lifecycle
    # ------------------------------------------------------------------
    def register(self, tenant: str, query: AggregationQuery,
                 expected_groups: float | None = None) -> Registration:
        """Admission-check and register one tenant query.

        ``expected_groups`` hints the group count of the query's
        grouping attributes for admission before data has flowed; it is
        kept for later plans only once the registration lands. A hint
        that is not a real number from 1 to :data:`MAX_EXPECTED_GROUPS`
        raises :class:`~repro.errors.StatisticsError`, a query
        :func:`~repro.gigascope.runtime.check_run` refuses raises its
        error, a rejection :class:`~repro.errors.AdmissionError`; each
        way the registry, the hints, the live plan and every other
        tenant are untouched.

        An admitted registration lands in the registry and its lease at
        once; the plan that carries it is made at the next boundary
        call (:meth:`push`, :meth:`finish`, :meth:`checkpoint`).
        """
        if expected_groups is not None and not (
                isinstance(expected_groups, Real)
                and not isinstance(expected_groups, bool)
                and 1 <= expected_groups <= MAX_EXPECTED_GROUPS):
            raise StatisticsError(
                f"expected_groups must be a finite number in [1, "
                f"{MAX_EXPECTED_GROUPS:.0f}], got {expected_groups!r}")
        check_run(self.schema, [query], value_column=self.value_column)
        if self.registry.epoch_seconds is not None and \
                query.epoch_seconds != self.registry.epoch_seconds:
            raise SchemaError(
                f"query epoch {query.epoch_seconds}s does not match the "
                f"service epoch {self.registry.epoch_seconds}s")
        candidate = self.registry.physical_query_set(extra=query)
        stats = self.planning_statistics(candidate)
        gb = query.group_by
        if expected_groups is not None:
            # This call's statistics only; kept once the registration lands.
            stats = RelationStatistics(
                {**stats.groups, gb: max(stats.groups[gb],
                                         float(expected_groups))},
                stats.flow_lengths, counters=stats.counters)
        try:
            check_admission(self.policy, self.registry, tenant, query,
                            stats, self.params)
        except AdmissionError:
            self.metrics.counter("service.rejections").inc()
            self.tenant_metrics(tenant).counter("rejections").inc()
            raise
        registration = self.registry.register(tenant, query)
        self._leases[(tenant, gb.label())] = _Lease(
            tenant, query, start=self._boundary_epoch())
        if expected_groups is not None:
            self._hints[gb] = max(self._hints.get(gb, 1.0),
                                  float(expected_groups))
        self.metrics.counter("service.registrations").inc()
        tm = self.tenant_metrics(tenant)
        tm.counter("registrations").inc()
        tm.gauge("active_queries").set(len(self.registry.queries_for(tenant)))
        return registration

    def retire(self, tenant: str,
               group_by: AttributeSet | str | None = None
               ) -> list[Registration]:
        """Retire one query (or all of a tenant's); returns them.

        The tenant keeps read access to the epochs its lease covered;
        before any data a retirement drops a lease that never was. The
        plan without the query is made at the next boundary call.
        """
        retired = self.registry.retire(tenant, group_by)
        boundary = self._boundary_epoch()
        for registration in retired:
            key = (tenant, registration.group_by.label())
            lease = self._leases.get(key)
            if lease is None:
                continue
            lease.retired = True
            if boundary is None:
                del self._leases[key]
            else:
                lease.end = boundary
        self.metrics.counter("service.retirements").inc(len(retired))
        tm = self.tenant_metrics(tenant)
        tm.counter("retirements").inc(len(retired))
        tm.gauge("active_queries").set(len(self.registry.queries_for(tenant)))
        return retired

    # ------------------------------------------------------------------
    def _boundary_epoch(self) -> int | None:
        """The first epoch a change made *now* affects, if known.

        With an epoch open it is the next one; with data but nothing
        open it is the epoch after the last completed (records that
        reopen that epoch still run the old plan). Either way it is
        where :meth:`LiveStreamSystem.reconfigure` lands a plan. Before
        any data the window is unbounded (``None``).
        """
        live = self.live
        if live is None:
            return None
        if live.open_epoch is not None:
            return live.open_epoch + 1
        if live.epoch_reports:
            return live.epoch_reports[-1].epoch + 1
        return None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _plan(self, queries: QuerySet) -> Plan:
        stats = self.planning_statistics(queries)
        assert self.collector is not None
        new_plan, _ = self.replanner.replan(
            queries, stats, token=self.collector.records_seen)
        return new_plan

    def _live_system(self) -> LiveStreamSystem:
        """The live system with the registry's physical set planned: a
        new one before the first batch, else the running one with the
        plan of every change since the last boundary staged.

        This is the boundary every change waits for, so a burst of
        register/retire calls costs one plan, from the statistics the
        last change saw (no batch was observed in between), and a burst
        that returns to the set the system runs next costs none. A plan
        that fails raises here, before the caller moves anything; the
        change stays pending for the next boundary.
        """
        live = self.live
        if live is None:
            if self.registry.is_empty:
                raise SchemaError("cannot ingest: no tenant has "
                                  "registered a query yet")
            queries = self.registry.physical_query_set()
            return LiveStreamSystem(
                self.schema, queries, self._plan(queries), self.params,
                value_column=self.value_column, salt_seed=self.salt_seed,
                registry=self.metrics)
        if self.registry.is_empty:
            # Nothing left to plan for; the old tables idle until the
            # next registration re-plans.
            self.replanner.invalidate()
            return live
        staged = live._staged_queries
        upcoming = live.queries if staged is None else staged
        if set(self.registry.group_bys()) != set(upcoming.group_bys):
            target = self.registry.physical_query_set()
            live.reconfigure(self._plan(target), target)
        return live

    def push(self, columns, timestamps, values=None) -> list[EpochReport]:
        """Feed one in-order batch; returns completed-epoch reports.

        The registry changes since the last boundary are planned first,
        before any record of the batch is seen; a plan that fails raises
        with the batch, registry, leases, sketches and live plan as they
        were. A first batch the live system refuses does not start the
        stream: registrations after it still take effect from epoch 0.
        """
        live = self._live_system()
        reports = live.push(columns, timestamps, values)
        self.live = live
        # Sketches only absorb batches the system accepted, so a
        # rejected batch leaves statistics untouched too.
        assert self.collector is not None
        self.collector.observe(
            {name: columns[name] for name in self.schema.attributes})
        self.metrics.counter("service.pushes").inc()
        self._after_epochs(reports)
        return reports

    def finish(self) -> list[EpochReport]:
        """Flush the open epoch (end of stream), with the registry
        changes since the last boundary planned first, as :meth:`push`
        plans them."""
        if self.live is None:
            return []
        reports = self._live_system().finish()
        self._after_epochs(reports)
        return reports

    def _after_epochs(self, reports: list[EpochReport]) -> None:
        if reports:
            self.metrics.counter("service.epochs").inc(len(reports))

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def answers(self, tenant: str) -> dict[str, dict[int, QueryAnswer]]:
        """Per-epoch answers for each of the tenant's leases.

        Keyed by group-by label, then epoch id; epochs outside a
        lease's activation window are filtered out, so a tenant only
        ever sees epochs computed while its registration was live. Each
        answer is a lazy :class:`QueryAnswer`: nothing is rendered to
        Python objects until the caller reads it.
        """
        mine = [lease for lease in self._leases.values()
                if lease.tenant == tenant]
        if not mine:
            raise SchemaError(f"unknown tenant {tenant!r}")
        hfta = self.live.hfta if self.live is not None else None
        out: dict[str, dict[int, QueryAnswer]] = {}
        for lease in mine:
            query = lease.query
            epochs = hfta.epochs(query.group_by) if hfta is not None else []
            # Lease first: only epochs the tenant may read are rendered.
            out[query.group_by.label()] = {
                epoch: hfta.query_answer(query, epoch)
                for epoch in epochs if lease.covers(epoch)}
        self.tenant_metrics(tenant).counter("answer_requests").inc()
        return out

    def leases(self, tenant: str | None = None) -> list[dict]:
        """Activation windows (all tenants, or one)."""
        return [lease.window() for lease in self._leases.values()
                if tenant is None or lease.tenant == tenant]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> MetricsRegistry:
        """Service metrics with each tenant's merged in under
        ``tenant.<name>.``."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for tenant, registry in sorted(self._tenant_metrics.items()):
            merged.merge(registry, prefix=f"tenant.{tenant}.")
        return merged

    def manifest(self) -> RunManifest:
        """A run document for the epochs completed so far."""
        live = self.live
        return RunManifest.collect(
            registry=self.metrics_snapshot(),
            epoch_reports=live.epoch_reports if live else None,
            reconfigurations=live.reconfigurations if live else None,
            extra={"service": {
                "tenants": self.registry.tenants,
                "registrations": len(self.registry),
                "registry_version": self.registry.version,
                "group_bys": [gb.label()
                              for gb in self.registry.group_bys()],
                "leases": self.leases(),
                "policy": self.policy.to_dict(),
            }})

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> "object":
        """Snapshot the live system *and* the service state to ``path``.

        The registry, leases, sketches, hints and construction
        parameters ride in the checkpoint's ``extra`` payload, so
        :meth:`restore` resumes mid-epoch with every tenant's window
        and every admission input intact. The registry changes since
        the last boundary are planned first, as :meth:`push` plans
        them, and their plan rides staged in the live checkpoint.
        """
        if self.live is None:
            raise CheckpointError(
                "nothing to checkpoint: the service has not ingested "
                "any data yet")
        live = self._live_system()
        payload = {"service": {
            "registry": self.registry.to_state(),
            "leases": list(self._leases.values()),
            "collector": self.collector,
            "hints": dict(self._hints),
            "policy": self.policy,
            "config": {
                "memory": self.memory,
                "algorithm": self.algorithm,
                "phi": self.phi,
                "value_column": self.value_column,
                "salt_seed": self.salt_seed,
            },
        }}
        return live.checkpoint(path, extra=payload)

    @classmethod
    def restore(cls, path,
                metrics: MetricsRegistry | None = None) -> "StreamService":
        """Rebuild a service (and its live system) from a checkpoint.

        The restored sketches keep their own size; a ``sketch_k`` key in
        the payload's config is ignored."""
        from repro.resilience.checkpoint import (
            _system_from_state,
            read_checkpoint_document,
        )
        document = read_checkpoint_document(path)
        payload = document["extra"].get("service")
        if payload is None:
            raise CheckpointError(
                f"{path} is a live-system checkpoint without service "
                "state; use LiveStreamSystem.restore for it")
        config = payload["config"]
        state = document["state"]
        service = cls(
            state["schema"], config["memory"], policy=payload["policy"],
            params=state["params"],
            algorithm=config["algorithm"], phi=config["phi"],
            value_column=config["value_column"],
            salt_seed=config["salt_seed"], metrics=metrics)
        service.registry = QueryRegistry.from_state(payload["registry"])
        service.collector = payload["collector"]
        service._hints = dict(payload["hints"])
        service.live = _system_from_state(state, registry=service.metrics)
        boundary = service._boundary_epoch()
        for lease in payload["leases"]:
            # A lease pickled while its change was staged still names the
            # reconfiguration entry; that change lands at the boundary.
            if lease.__dict__.pop("pending_start", None) is not None:
                lease.start = boundary
            if lease.__dict__.pop("pending_end", None) is not None:
                lease.end = boundary
        service._leases = {
            (lease.tenant, lease.query.group_by.label()): lease
            for lease in payload["leases"]}
        return service
