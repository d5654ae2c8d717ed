"""Incremental re-planning for the multi-tenant service.

The paper's adaptivity claim rests on planning being cheap (milliseconds)
so plans can chase drifting statistics. A multi-tenant service adds a
second source of change — the registry itself — and with it a cheap win:
most registry events do not change the *physical* problem at all. A
second tenant joining an already-instantiated group-by, or one of two
sharers leaving it, alters who reads which answers but not the distinct
group-by set the planner optimizes. :class:`IncrementalReplanner`
recognizes those no-ops with a plan cache keyed on the physical problem
``(distinct group-bys, statistics token, counter width)`` and skips
planning entirely.

When planning *is* needed it runs GS
(:class:`~repro.core.choosing.greedy_space.GreedySpace`), which scores a
round's candidates in one pass over the planner's index arrays and
re-scores only the leaders exactly.

Plans produced here never touch the open epoch: the service hands them
to :meth:`~repro.gigascope.online.LiveStreamSystem.reconfigure`, and the
swap lands at the first epoch not yet processed, where the tables are
empty and reconfiguration is free. Re-planning therefore never blocks
ingest of the open epoch.
"""

from __future__ import annotations

import time

from repro.core.cost_model import CostParameters
from repro.core.optimizer import Plan, plan
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.observability import MetricsRegistry

__all__ = ["IncrementalReplanner"]


class IncrementalReplanner:
    """Plan cache + planner front-end for registry/statistics churn.

    Parameters
    ----------
    memory:
        Global LFTA budget in allocation units.
    params:
        Cost model parameters shared with admission control.
    algorithm:
        Planning algorithm (default ``"gs"``, see module docstring).
    phi:
        GS sizing parameter.
    clustered:
        Whether the cost model assumes clustered (flow-based) streams.
    metrics:
        Optional registry receiving ``service.replans``,
        ``service.replan_cache_hits`` counters and the
        ``service.replan_seconds`` histogram.
    """

    def __init__(self, memory: float, params: CostParameters | None = None,
                 algorithm: str = "gs", phi: float = 1.0,
                 clustered: bool = True,
                 metrics: MetricsRegistry | None = None):
        self.memory = memory
        self.params = params or CostParameters()
        self.algorithm = algorithm
        self.phi = phi
        self.clustered = clustered
        self.metrics = metrics
        self._cache_key: tuple | None = None
        self._cached_plan: Plan | None = None

    # ------------------------------------------------------------------
    def _key(self, queries: QuerySet, token: object,
             counters: int) -> tuple:
        return (frozenset(queries.group_bys), queries.epoch_seconds,
                token, counters)

    def replan(self, queries: QuerySet, stats: RelationStatistics,
               token: object = None) -> tuple[Plan, bool]:
        """Return ``(plan, cached)`` for the physical query set.

        ``token`` identifies the statistics snapshot (the service passes
        ``collector.records_seen``): two calls with equal group-by sets,
        epoch, token and counter width return the cached plan without
        planning. Pass ``token=None`` to force a fresh plan. Drift
        re-plans do not come through here: the live system's re-plan
        rule plans from the running plan's recorded inputs.
        """
        key = None
        if token is not None:
            key = self._key(queries, token, stats.counters)
            if key == self._cache_key and self._cached_plan is not None:
                if self.metrics is not None:
                    self.metrics.counter("service.replan_cache_hits").inc()
                return self._cached_plan, True
        start = time.perf_counter()
        new_plan = plan(queries, stats, self.memory, self.params,
                        algorithm=self.algorithm, phi=self.phi,
                        clustered=self.clustered)
        elapsed = time.perf_counter() - start
        self._cache_key = key
        self._cached_plan = new_plan
        if self.metrics is not None:
            self.metrics.counter("service.replans").inc()
            self.metrics.histogram("service.replan_seconds").observe(elapsed)
        return new_plan, False

    def invalidate(self) -> None:
        """Drop the cached plan (statistics or budget changed)."""
        self._cache_key = None
        self._cached_plan = None
