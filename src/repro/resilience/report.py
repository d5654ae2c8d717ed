"""Resilience accounting: what failed, what it cost, how it recovered.

A :class:`ResilienceReport` is assembled by
:class:`~repro.parallel.sharded.ShardedStreamSystem` during a run and
travels three ways: on the returned
:class:`~repro.gigascope.runtime.RunReport` (``report.resilience``), as
``resilience.*`` counters/histograms in the run's
:class:`~repro.observability.MetricsRegistry`, and as the ``resilience``
section of the :class:`~repro.observability.RunManifest` — which also
embeds the fault plan, so ``repro-plan --fault-plan manifest.json``
replays the exact failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ResilienceReport", "ShardOutcome"]


@dataclass
class ShardOutcome:
    """One shard's journey through the retry layer."""

    shard: int
    records: int
    attempts: int = 0
    faults: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # Never set: shards have one way to run, so there is nothing to fall
    # back to. Kept, with ``total_fallbacks``, because ``benchmarks/e2e``
    # reads it as ``sharded.fallbacks``.
    fallback: bool = False
    succeeded: bool = False

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "records": self.records,
            "attempts": self.attempts,
            "retries": self.retries,
            "faults": list(self.faults),
            "errors": list(self.errors),
            "fallback": self.fallback,
            "succeeded": self.succeeded,
        }


@dataclass
class ResilienceReport:
    """Run-level summary of faults seen and recovery work done."""

    policy: dict = field(default_factory=dict)
    fault_plan: dict | None = None
    shards: list[ShardOutcome] = field(default_factory=list)
    backoff_seconds: float = 0.0
    failed_attempt_seconds: float = 0.0

    def outcome(self, shard: int, records: int) -> ShardOutcome:
        """Get-or-create the outcome row for one shard."""
        for existing in self.shards:
            if existing.shard == shard:
                return existing
        created = ShardOutcome(shard, records)
        self.shards.append(created)
        return created

    # -- aggregates ----------------------------------------------------
    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.shards)

    @property
    def total_retries(self) -> int:
        return sum(o.retries for o in self.shards)

    @property
    def total_fallbacks(self) -> int:
        return sum(1 for o in self.shards if o.fallback)

    @property
    def fault_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.shards:
            for kind in outcome.faults:
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    @property
    def overhead_seconds(self) -> float:
        """Wall time the run spent on recovery instead of progress."""
        return self.backoff_seconds + self.failed_attempt_seconds

    def record(self, registry) -> None:
        """Publish the summary into a :class:`MetricsRegistry`."""
        if registry is None:
            return
        registry.counter("resilience.attempts").inc(self.total_attempts)
        registry.counter("resilience.retries").inc(self.total_retries)
        registry.counter("resilience.fallbacks").inc(self.total_fallbacks)
        for kind, count in sorted(self.fault_counts.items()):
            registry.counter(f"resilience.faults.{kind}").inc(count)
        registry.histogram("resilience.backoff_seconds").observe(
            self.backoff_seconds)
        registry.histogram("resilience.failed_attempt_seconds").observe(
            self.failed_attempt_seconds)

    def to_dict(self) -> dict:
        return {
            "policy": dict(self.policy),
            "fault_plan": self.fault_plan,
            "shards": [o.to_dict() for o in self.shards],
            "total_attempts": self.total_attempts,
            "total_retries": self.total_retries,
            "total_fallbacks": self.total_fallbacks,
            "fault_counts": self.fault_counts,
            "backoff_seconds": self.backoff_seconds,
            "failed_attempt_seconds": self.failed_attempt_seconds,
            "overhead_seconds": self.overhead_seconds,
        }
