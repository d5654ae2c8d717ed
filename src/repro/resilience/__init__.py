"""Resilience: fault injection, retries, live checkpoints.

The failure-handling spine of the runtime, in four pieces that compose
with the existing sharded and live systems rather than wrapping them:

* :mod:`~repro.resilience.faults` — :class:`FaultPlan`, a seedable,
  JSON-serializable description of crash/delay/corrupt faults keyed by
  shard and attempt, injected inside the production shard entry point;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff with deterministic jitter and per-attempt timeouts;
* :mod:`~repro.resilience.report` — :class:`ResilienceReport`, the
  attempts/faults/overhead story of one run, published to the
  metrics registry and the run manifest;
* :mod:`~repro.resilience.checkpoint` — versioned snapshot/restore for
  :class:`~repro.gigascope.online.LiveStreamSystem`.

See ``docs/resilience.md`` for the fault model, the retry state
machine, and the checkpoint format.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    load_live_checkpoint,
    read_checkpoint_document,
    save_live_checkpoint,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    CorruptResultError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.resilience.report import ResilienceReport, ShardOutcome
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CHECKPOINT_VERSION",
    "CorruptResultError",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceReport",
    "RetryPolicy",
    "ShardOutcome",
    "load_live_checkpoint",
    "read_checkpoint_document",
    "save_live_checkpoint",
]
