"""Observability: metrics registry, phase tracing, run manifests.

The measurement substrate the quantitative claims rest on. Three layers,
each usable alone:

* :class:`MetricsRegistry` (:mod:`~repro.observability.registry`) —
  counters / gauges / histograms with an injected clock, mergeable
  across processes;
* :class:`Span` / :func:`trace` (:mod:`~repro.observability.tracing`) —
  phase timing (partition / engine / flush) that no-ops when no
  registry is attached;
* :class:`RunManifest` (:mod:`~repro.observability.manifest`) — one JSON
  document per run: plan, allocation, per-relation counters, epoch
  reports, git SHA, and whatever the caller adds (a sharded run's
  partition).

Every runtime entry point (`simulate`, `StreamSystem.run`,
`ShardedStreamSystem`, `LiveStreamSystem`, ``repro-plan
--metrics-json``) accepts an optional registry; see
``docs/observability.md`` for the wiring and a runnable example.
"""

from repro.observability.manifest import RunManifest, current_git_sha
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import NULL_SPAN, Span, trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunManifest",
    "Span",
    "current_git_sha",
    "trace",
]
