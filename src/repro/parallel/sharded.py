"""Sharded parallel ingestion: N LFTA shard engines, one exact HFTA merge.

:class:`ShardedStreamSystem` is a :class:`~repro.gigascope.runtime.
StreamSystem` whose run splits the stream into ``shards`` sub-streams —
by :class:`~repro.parallel.partition.HashPartitioner` unless the caller
passes another object with ``shard_ids(dataset, n_shards)`` — runs the exact
vectorized engine on every shard — in this process, one shard after the
other in shard order — and merges the per-shard HFTAs and cost
counters into one :class:`~repro.gigascope.metrics.SimulationResult`.
``RunReport``, ``summary()`` and every cost/answer accessor therefore work
unchanged on the merged report.

The LFTA memory budget is divided across shards: each shard's table for
relation ``R`` gets ``buckets_R // shards`` buckets, so a sharded run
occupies at most the same total LFTA memory as the single-core run it
replaces. A relation with fewer planned buckets than shards cannot be
split without exceeding that budget (every shard table needs at least one
bucket), so the constructor raises
:class:`~repro.errors.ConfigurationError` rather than silently
overshooting — use fewer shards or a larger budget. Exactness does not
depend on the split — only the measured collision/eviction counts do.

Every run records ``partition`` / ``engine`` / ``merge`` phase spans into
a :class:`~repro.observability.MetricsRegistry` (pass your own or read
the system's), and each shard run returns its own sub-registry, merged
under a ``shard<i>.`` prefix alongside the counter merge.

A shard runs once. A shard whose engine call raises ends the run with a
:class:`~repro.errors.ShardExecutionError` naming the shard, its record
count and the underlying error, which is chained as ``__cause__``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError, ShardExecutionError
from repro.gigascope.engine import simulate
from repro.gigascope.metrics import SimulationResult
from repro.gigascope.records import Dataset
from repro.gigascope.runtime import RunReport, StreamSystem
from repro.native.partition import kernel_available
from repro.observability import MetricsRegistry
from repro.parallel.merge import merge_results
from repro.parallel.partition import (HashPartitioner, check_shard_count,
                                      check_shard_ids, shard_balance,
                                      split_dataset)

__all__ = ["ShardedStreamSystem"]


class _ShardJob(NamedTuple):
    """One shard's work order: everything `simulate` needs plus the shard
    index."""

    index: int
    dataset: Dataset
    configuration: Configuration
    buckets: dict[AttributeSet, int]
    epoch_seconds: float
    value_column: str | None
    salt_seed: int


_ShardRun = tuple[int, SimulationResult, MetricsRegistry]


def _run_shard(job: _ShardJob) -> _ShardRun:
    """One vectorized engine pass over one shard.

    Builds a fresh per-shard registry so the engine span and counters of
    this shard come back with the result."""
    registry = MetricsRegistry()
    result = simulate(job.dataset, job.configuration, job.buckets,
                      job.epoch_seconds, job.value_column, job.salt_seed,
                      registry=registry)
    return job.index, result, registry


class ShardedStreamSystem(StreamSystem):
    """A partitioned, multi-engine LFTA tier with one merging HFTA.

    A :class:`StreamSystem` (same arguments, same checks; ``buckets``
    stays the undivided plan) whose :meth:`run` partitions, plus:

    shards:
        Number of LFTA shards, an integer >= 1. ``shards=1`` bypasses
        partitioning entirely and runs as a plain :class:`StreamSystem`.
        Must not exceed any
        relation's planned bucket count (the per-shard split would
        exceed the LFTA memory budget);
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
        # and the ``shard<i>.engine`` spans of ``registry``: all stay public.
        #: How the last run's records actually landed across shards
        #: (strategy, per-shard counts, empty shards, imbalance); set by
        #: :meth:`run` for ``shards > 1`` and surfaced in the manifest.
        self.partition_summary: dict | None = None
        #: Always None; ``benchmarks/e2e`` still reads it.
        self.resilience_report = None
        #: Per-shard ``SimulationResult`` list, populated by :meth:`run`.
        self.shard_results: list[SimulationResult] | None = None
        #: Per-shard ``MetricsRegistry`` list (engine spans and counters
        #: as measured inside each shard run), populated by :meth:`run` and
        #: also merged into :attr:`registry` under ``shard<i>.`` prefixes.
        self.shard_registries: list[MetricsRegistry] | None = None

    @property
    def last_timings(self) -> dict[str, float] | None:
        """Phase wall seconds of the last :meth:`run`, from the spans.

        Read by the end-to-end benchmark (``benchmarks/e2e``); the
        same numbers are the :attr:`registry` spans. None until
        :meth:`run` has completed.
        """
        engine = self.registry.last_span("engine")
        if engine is None:
            return None
        partition = self.registry.last_span("partition")
        merge = self.registry.last_span("merge")
        return {
            "partition_seconds": partition.seconds if partition else 0.0,
            "engine_seconds": engine.seconds,
            "merge_seconds": merge.seconds if merge else 0.0,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunReport:
        """Partition, stream every shard, merge; one report, exact answers."""
        registry = self.registry
        if self.shards == 1:
            report = super().run(registry=registry)
            self.shard_results = [report.result]
            self.shard_registries = None
            return report
        dataset = self.dataset
        epoch_seconds = self.queries.epoch_seconds
        with registry.span("partition"):
            strategy = type(self.partitioner).__name__
            # Validated before anything is published or copied: a bad
            # partitioner fails here, typed, with no partition_summary.
            shard_ids = check_shard_ids(
                self.partitioner.shard_ids(dataset, self.shards),
                self.shards, len(dataset), source=strategy)
            summary = shard_balance(shard_ids, self.shards,
                                    strategy=strategy)
            self.partition_summary = summary
            registry.gauge("partition.empty_shards").set(
                summary["empty_shards"])
            registry.gauge("partition.imbalance").set(summary["imbalance"])
            registry.gauge("partition.kernel").set(int(kernel_available()))
            jobs = self._materialize_jobs(dataset, shard_ids)
            # The stream's own non-empty epochs: one epoch's records
            # usually land on several shards, so shard counts do not add.
            n_epochs = sum(1 for _ in dataset.epoch_slices(epoch_seconds))
        outcomes: list[_ShardRun] = []
        with registry.span("engine"):
            for job in jobs:
                try:
                    outcomes.append(_run_shard(job))
                except Exception as exc:
                    raise ShardExecutionError(
                        f"shard {job.index} ({len(job.dataset)} records, "
                        f"{len(self.shard_buckets)} relations) failed: "
                        f"{type(exc).__name__}: {exc}",
                        shard=job.index, records=len(job.dataset)) from exc
        results = [result for _, result, _ in outcomes]
        self.shard_results = results
        self.shard_registries = [reg for _, _, reg in outcomes]
        for index, _, shard_registry in outcomes:
            registry.merge(shard_registry, prefix=f"shard{index}.")
        registry.gauge("shards").set(self.shards)
        with registry.span("merge"):
            merged = merge_results(
                results, self.configuration,
                n_records=len(dataset), n_epochs=n_epochs)
        return RunReport(merged, self.params, self.queries)

    def _materialize_jobs(self, dataset: Dataset,
                          shard_ids: np.ndarray) -> list[_ShardJob]:
        """Split the stream into per-shard work orders (empty shards are
        skipped; an empty stream yields one job for the empty result)."""
        epoch_seconds = self.queries.epoch_seconds
        jobs: list[_ShardJob] = [
            _ShardJob(index, shard, self.configuration,
                      self.shard_buckets, epoch_seconds,
                      self.value_column, self.salt_seed)
            for index, shard in enumerate(
                split_dataset(dataset, shard_ids, self.shards))
            if len(shard)
        ]
        if not jobs:
            jobs = [_ShardJob(0, dataset, self.configuration,
                              self.shard_buckets, epoch_seconds,
                              self.value_column, self.salt_seed)]
        return jobs
