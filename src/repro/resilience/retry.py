"""Retry policy: exponential backoff with deterministic jitter.

The policy is pure data plus pure arithmetic — the backoff sequence for
a given ``seed`` is fully deterministic, so a failed run replayed with
the same fault plan and policy sleeps the same amounts and takes the
same recovery path. The actual ``sleep`` callable is injected (tests
pass a recorder; production uses :func:`time.sleep`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["RetryPolicy"]


@dataclass
class RetryPolicy:
    """How hard :class:`~repro.parallel.sharded.ShardedStreamSystem`
    fights for a failing shard.

    max_attempts:
        Total attempts per shard (1 = no retries).
    backoff_base / backoff_multiplier / backoff_cap:
        Sleep before retry *k* (k >= 2) is
        ``min(cap, base * multiplier**(k-2))``, scaled by jitter.
    jitter:
        Uniform multiplicative jitter in ``[1, 1+jitter)``, drawn from a
        seeded RNG so runs are reproducible.
    timeout_seconds:
        Per-attempt wall-clock cap; ``None`` means no cap. Shards run
        in-process, where an attempt cannot be interrupted, so an
        overlong attempt is failed *after* it returns (post-hoc) and
        retried.
    seed:
        Seed for the jitter RNG.
    sleep:
        Injected sleep callable (excluded from serialization and
        equality).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25
    timeout_seconds: float | None = None
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.jitter < 0:
            raise ValueError("backoff_base and jitter must be >= 0")

    def rng(self) -> random.Random:
        """A fresh jitter RNG; one per run keeps runs independent."""
        return random.Random(self.seed)

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Sleep length before attempt ``attempt`` (2-based; attempt 1
        never waits). Deterministic given the RNG state."""
        if attempt <= 1 or self.backoff_base <= 0:
            return 0.0
        raw = self.backoff_base * self.backoff_multiplier ** (attempt - 2)
        return min(self.backoff_cap, raw) * (1.0 + self.jitter * rng.random())

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_multiplier": self.backoff_multiplier,
            "backoff_cap": self.backoff_cap,
            "jitter": self.jitter,
            "timeout_seconds": self.timeout_seconds,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        known = {f for f in cls.__dataclass_fields__ if f != "sleep"}
        return cls(**{k: v for k, v in data.items() if k in known})
