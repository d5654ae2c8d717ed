"""Sharded ingestion: N LFTA shard tables, one walk, one HFTA.

:class:`ShardedStreamSystem` is a :class:`~repro.gigascope.runtime.
StreamSystem` whose run assigns every record to one of ``shards``
shards — by :class:`~repro.parallel.partition.HashPartitioner` unless the
caller passes another object with ``shard_ids(dataset, n_shards)`` — and
walks the stream once: ``simulate(..., shards=ids)`` gives every
relation one table of ``shards`` slices side by side, each shard's
records land in their shard's slice, and every emitting relation's runs
of all shards fold into one HFTA state per key, shard 0's first (see
:mod:`repro.gigascope.engine`). The answers, counters and float sums
are those of the shards walked one after the other into one HFTA, bit
for bit, and each key is folded once. ``RunReport``, ``summary()`` and
every cost/answer accessor work unchanged on the report.

The LFTA memory budget is divided across shards: each shard's slice of
relation ``R``'s table gets ``buckets_R // shards`` buckets, so a sharded
run occupies at most the same total LFTA memory as the single-core run
it replaces. A relation with fewer planned buckets than shards cannot
be split without exceeding that budget (every slice needs at least one
bucket), so the constructor raises
:class:`~repro.errors.ConfigurationError` rather than silently
overshooting — use fewer shards or a larger budget. Exactness does not
depend on the split — only the measured collision/eviction counts do.

The built-in partitioner hashes on every usable core
(:func:`repro.native.partition.hash_shards`), and the checked ids go to
the walk as the contiguous int64 it takes, with no copy, and as
:class:`~repro.native.ingest.ShardIds` with the slice count the check's
counts give: neither ``simulate`` nor the walk reads them again.

Every run records a ``partition`` span — split into ``partition.assign``
(the partitioner, then one pass that checks the ids and counts each
shard's records; :func:`~repro.parallel.partition.check_shard_ids`) and
``partition.rows`` (the balance, from those counts) — and the walk's
``engine`` span into a
:class:`~repro.observability.MetricsRegistry` (pass your own or read the
system's). The per-shard view is :attr:`ShardedStreamSystem.
partition_summary`: how many records each shard took. A run fails as
one, as :meth:`StreamSystem.run` does: the engine's error propagates,
and a failed run publishes no timings.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gigascope.engine import simulate
from repro.gigascope.runtime import RunReport, StreamSystem
from repro.native.ingest import ShardIds
from repro.observability import MetricsRegistry
from repro.observability.tracing import Span
from repro.parallel.partition import (HashPartitioner, balance_summary,
                                      check_shard_count, check_shard_ids)

__all__ = ["ShardedStreamSystem"]


class ShardedStreamSystem(StreamSystem):
    """A partitioned LFTA tier, walked once, with one HFTA.

    A :class:`StreamSystem` (same arguments, same checks; ``buckets``
    stays the undivided plan) whose :meth:`run` partitions, plus:

    shards:
        Number of LFTA shards, an integer >= 1. ``shards=1`` bypasses
        partitioning entirely and runs as a plain :class:`StreamSystem`.
        Must not exceed any relation's planned bucket count (the
        per-shard split would exceed the LFTA memory budget);
        :class:`~repro.errors.ConfigurationError` otherwise.
    partitioner:
        Record-to-shard assignment (default
        :class:`~repro.parallel.partition.HashPartitioner` on the full
        grouping key): any object with a callable
        ``shard_ids(dataset, n_shards)``, else
        :class:`~repro.errors.ConfigurationError`. Any partition yields
        exact answers.
    registry:
        A :class:`~repro.observability.MetricsRegistry` to record phase
        spans and counters into; one is created (and exposed as
        ``self.registry``) when omitted.
    """

    def __init__(self, *args, shards: int = 2, partitioner=None,
                 registry: MetricsRegistry | None = None, **kwargs):
        shards = check_shard_count(shards)
        super().__init__(*args, **kwargs)
        self.shards = shards
        unsplittable = [rel for rel, b in self.buckets.items()
                        if b < self.shards]
        if unsplittable:
            labels = [rel.label() for rel in sorted(
                unsplittable, key=lambda rel: rel.label())]
            raise ConfigurationError(
                f"cannot split relations {labels} across {self.shards} "
                "shards: each shard table needs >= 1 bucket, which would "
                "exceed the planned LFTA memory budget; use fewer shards "
                "or a larger budget")
        if partitioner is None:
            partitioner = HashPartitioner()
        elif not callable(getattr(partitioner, "shard_ids", None)):
            raise ConfigurationError(
                f"partitioner {type(partitioner).__name__} has no callable "
                "shard_ids(dataset, n_shards)")
        self.partitioner = partitioner
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shard_buckets = {rel: b // self.shards
                              for rel, b in self.buckets.items()}
        # ``benchmarks/e2e`` reads ``last_timings``, ``partition_summary``
        # and the ``partition``/``engine`` spans of ``registry``: all
        # stay public.
        #: How the last run's records actually landed across shards
        #: (strategy, per-shard counts, empty shards, imbalance); set by
        #: :meth:`run` for ``shards > 1`` and surfaced in the manifest.
        self.partition_summary: dict | None = None
        #: Always None; ``benchmarks/e2e`` still reads both.
        self.resilience_report = self.shard_results = None
        # The last run's (partition, engine) spans, once it completed;
        # partition is None for ``shards=1``.
        self._phases: tuple[Span | None, Span] | None = None

    @property
    def last_timings(self) -> dict[str, float] | None:
        """Phase wall seconds of the last :meth:`run`, from the spans.

        Read by the end-to-end benchmark (``benchmarks/e2e``); the
        same numbers are the :attr:`registry` spans. None until a
        :meth:`run` has completed, and after a run that failed.
        """
        if self._phases is None:
            return None
        partition, engine = self._phases
        return {
            "partition_seconds": partition.seconds if partition else 0.0,
            "engine_seconds": engine.seconds,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunReport:
        """Partition, then walk every shard in one pass; one report,
        exact answers."""
        registry = self.registry
        # Nothing of an earlier run stays published past this point.
        self.partition_summary = None
        self._phases = None
        if self.shards == 1:
            report = super().run(registry=registry)
            self._phases = (None, registry.last_span("engine"))
            return report
        dataset = self.dataset
        with registry.span("partition") as partition:
            with registry.span("partition.assign"):
                strategy = type(self.partitioner).__name__
                # Validated before anything is published: a bad
                # partitioner fails here, typed, with no partition_summary.
                # The check's one pass counts each shard's records too.
                ids, counts = check_shard_ids(
                    self.partitioner.shard_ids(dataset, self.shards),
                    self.shards, len(dataset), source=strategy)
            with registry.span("partition.rows"):
                summary = balance_summary(counts.tolist(), strategy)
            self.partition_summary = summary
            registry.gauge("partition.empty_shards").set(
                summary["empty_shards"])
            registry.gauge("partition.imbalance").set(summary["imbalance"])
        # The check's counts give the slices the walk needs, so no
        # pass reads the ids again before the walk; ids past the record
        # count (more shards than records) go in plain, to be ranked.
        used = np.flatnonzero(counts)
        slices = int(used[-1]) + 1 if used.size else 0
        if 0 < slices <= len(dataset):
            ids = ShardIds(ids, slices)
        result = simulate(dataset, self.configuration, self.shard_buckets,
                          self.queries.epoch_seconds, self.value_column,
                          self.salt_seed, registry=registry, shards=ids)
        registry.gauge("shards").set(self.shards)
        self._phases = (partition, registry.last_span("engine"))
        return RunReport(result, self.params, self.queries)
