"""Deterministic fault injection for shard runs.

A :class:`FaultPlan` is a declarative, seedable description of *what goes
wrong where*: each :class:`FaultSpec` targets one shard index (or all
shards) on one attempt number (or every attempt) and names a failure
mode. The plan is consulted from inside the production shard entry
point (:func:`repro.parallel.sharded._run_shard`, which runs in the
caller's process), so an injected fault exercises exactly the code path
a real failure would — the crash propagates into the retry loop and a
corrupted result into outcome validation, nothing is mocked out.

Three fault kinds:

``crash``
    The shard run raises :class:`InjectedFault` before touching the
    engine.
``delay``
    The shard run sleeps ``delay_seconds`` before running — long enough,
    and the retry layer's post-hoc timeout fails the attempt.
``corrupt``
    The shard run executes the engine normally, then falsifies the
    returned record count and drops its sub-registry — garbage the
    outcome validation must catch (see
    :func:`repro.parallel.sharded.ShardedStreamSystem`).

Plans serialize to plain JSON (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`), travel inside the run's
:class:`~repro.observability.RunManifest`, and can be replayed later
with ``repro-plan --fault-plan`` to reproduce a failure exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "CorruptResultError", "FaultPlan", "FaultSpec",
           "InjectedFault"]

FAULT_KINDS = ("crash", "delay", "corrupt")


class InjectedFault(ReproError):
    """The failure a ``crash`` fault raises inside the shard run."""


class CorruptResultError(ReproError):
    """A shard outcome failed the validation checks."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: which shard, which attempt, what goes wrong.

    shard:
        Target shard index; ``None`` targets every shard.
    attempt:
        1-based attempt number the fault fires on; ``None`` fires on
        every attempt, so no retry budget can save the shard.
    kind:
        ``"crash"``, ``"delay"`` or ``"corrupt"``.
    delay_seconds:
        Sleep length for ``delay`` faults.
    """

    kind: str
    shard: int | None = None
    attempt: int | None = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(choose from {FAULT_KINDS})")

    def matches(self, shard: int, attempt: int) -> bool:
        return ((self.shard is None or self.shard == shard)
                and (self.attempt is None or self.attempt == attempt))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "shard": self.shard,
                "attempt": self.attempt,
                "delay_seconds": self.delay_seconds}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(kind=data["kind"], shard=data.get("shard"),
                   attempt=data.get("attempt"),
                   delay_seconds=float(data.get("delay_seconds", 0.0)))


class FaultPlan:
    """An ordered list of :class:`FaultSpec`; first match wins.

    Plain data end to end: JSON-round-trippable, because it ships
    inside the run manifest.
    """

    def __init__(self, faults: tuple[FaultSpec, ...] | list[FaultSpec] = (),
                 seed: int | None = None):
        self.faults = tuple(faults)
        self.seed = seed

    # -- constructors --------------------------------------------------
    @classmethod
    def crash_once(cls, shards: int, attempt: int = 1) -> "FaultPlan":
        """Crash every shard's ``attempt``-th try exactly once."""
        return cls(tuple(FaultSpec("crash", shard=s, attempt=attempt)
                         for s in range(shards)))

    @classmethod
    def crash_always(cls, shard: int) -> "FaultPlan":
        """Crash one shard on every attempt — retries cannot save it."""
        return cls((FaultSpec("crash", shard=shard, attempt=None),))

    @classmethod
    def random(cls, shards: int, seed: int, fault_probability: float = 0.5,
               kinds: tuple[str, ...] = ("crash", "corrupt"),
               delay_seconds: float = 0.0) -> "FaultPlan":
        """A seed-deterministic plan: each shard independently draws
        whether its *first* attempt fails and with which kind.

        Only first attempts fault, so a random plan is always
        survivable by one retry — the shape property-based tests need.
        """
        rng = random.Random(seed)
        faults = []
        for shard in range(shards):
            if rng.random() < fault_probability:
                kind = rng.choice(list(kinds))
                faults.append(FaultSpec(kind, shard=shard, attempt=1,
                                        delay_seconds=delay_seconds))
        return cls(tuple(faults), seed=seed)

    # -- lookup --------------------------------------------------------
    def fault_for(self, shard: int, attempt: int) -> FaultSpec | None:
        """The first spec matching this (shard, attempt), if any."""
        for spec in self.faults:
            if spec.matches(shard, attempt):
                return spec
        return None

    def __len__(self) -> int:
        return len(self.faults)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FaultPlan)
                and self.faults == other.faults and self.seed == other.seed)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r}, seed={self.seed!r})"

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(tuple(FaultSpec.from_dict(entry)
                         for entry in data.get("faults", [])),
                   seed=data.get("seed"))
