"""A lightweight in-process metrics registry.

Three instrument kinds, mirroring the usual monitoring vocabulary:

* :class:`Counter` — monotone event counts (records ingested, epochs
  closed, reconfigurations applied);
* :class:`Gauge` — last-written values (current shard count, last epoch
  id);
* :class:`Histogram` — running count/total/min/max of an observed
  distribution (epoch sizes, per-epoch costs).

Plus :class:`~repro.observability.tracing.Span` records for phase timing.
The clock is injected at construction (default
:func:`time.perf_counter`) — instruments never call ``time.time()``
behind the caller's back, so hot paths stay measurable and tests stay
deterministic.

Registries are plain objects: a sub-task can build one, run
instrumented code, and hand the registry back to be
:meth:`merged <MetricsRegistry.merge>` (optionally under a name prefix,
which is how :class:`~repro.service.StreamService` folds each tenant's
registry into its metrics).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.observability.tracing import Span

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing event count."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase (got {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Running summary of an observed distribution."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {"count": self.count, "total": self.total, "mean": self.mean,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None}


@dataclass
class _Event:
    """A point-in-time occurrence with free-form fields."""

    name: str
    time: float
    fields: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "time": self.time, **self.fields}


@dataclass
class MetricsRegistry:
    """Named instruments + spans + events for one run (or one tenant)."""

    clock: Callable[[], float] = time.perf_counter
    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    events: list[_Event] = field(default_factory=list)

    # -- instrument accessors (get-or-create) --------------------------
    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter()
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge()
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram()
        return self.histograms[name]

    # -- spans and events ----------------------------------------------
    def span(self, name: str) -> Span:
        """A context-manager span recorded into :attr:`spans` on close."""
        return Span(name, _clock=self.clock, _on_close=self.spans.append)

    def span_seconds(self, name: str) -> float:
        """Summed duration of every closed span with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def last_span(self, name: str) -> Span | None:
        """The most recently closed span with this name, if any."""
        for span in reversed(self.spans):
            if span.name == name:
                return span
        return None

    def event(self, name: str, **fields) -> None:
        """Record a point-in-time occurrence (e.g. a reconfiguration)."""
        self.events.append(_Event(name, self.clock(), dict(fields)))

    # -- composition ---------------------------------------------------
    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold another registry in, optionally under a name prefix.

        Counters and histograms accumulate; gauges take the other
        registry's value (last write wins); spans and events are appended
        with the prefixed name. Used to surface per-tenant sub-registries
        in the run-level registry without name collisions.
        """
        for name, counter in other.counters.items():
            self.counter(prefix + name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(prefix + name).set(gauge.value)
        for name, histogram in other.histograms.items():
            self.histogram(prefix + name).merge(histogram)
        for span in other.spans:
            self.spans.append(Span(prefix + span.name, span.start, span.end))
        for event in other.events:
            self.events.append(
                _Event(prefix + event.name, event.time, dict(event.fields)))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of everything recorded."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self.histograms.items())},
            "spans": [s.to_dict() for s in self.spans],
            "events": [e.to_dict() for e in self.events],
        }
