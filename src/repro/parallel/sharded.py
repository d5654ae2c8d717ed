"""Sharded parallel ingestion: N LFTA shard engines, one exact HFTA merge.

:class:`ShardedStreamSystem` is a :class:`~repro.gigascope.runtime.
StreamSystem` whose run assigns every record to one of ``shards``
shards — by :class:`~repro.parallel.partition.HashPartitioner` unless the
caller passes another object with ``shard_ids(dataset, n_shards)`` —,
runs the exact vectorized engine on every shard — in this process, one
shard after the other in shard order, each shard's epochs on the
engine's thread pool — and merges the per-shard results and cost
counters into one :class:`~repro.gigascope.metrics.SimulationResult`.
Each shard walks into the partials the shard before it handed over
(:meth:`~repro.gigascope.hfta.HFTA.hand_over`), so its folds extend the
earlier shards' states and its own HFTA keeps only its counters; the
merged HFTA sums those counters and adopts the last hand-over: a group's
float sum adds every shard's partials in shard order, one left-to-right
chain.
``RunReport``, ``summary()`` and every cost/answer accessor therefore work
unchanged on the merged report.

A shard is not a copy of the stream: it is the ascending index of its
rows (:func:`~repro.parallel.partition.shard_rows`), and its engine call
``simulate(dataset, ..., rows=index)`` reads the parent's columns
through it — 8 bytes per record instead of a copy of every lane, with
the answers, counters and HFTA states of a copied shard, bit for bit.

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
the system's) — ``partition`` split into ``partition.assign`` (the
partitioner and the id check) and ``partition.rows`` (the row indices
and the balance summary) — and each shard run returns its own
sub-registry, merged under a ``shard<i>.`` prefix alongside the counter
merge.

A shard runs once. A shard whose engine call raises ends the run with a
:class:`~repro.errors.ShardExecutionError` naming the shard, its record
count and the underlying error, which is chained as ``__cause__``; the
failed run publishes no shard results and no timings.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError, ShardExecutionError
from repro.gigascope.engine import simulate
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import SimulationResult
from repro.gigascope.records import Dataset
from repro.gigascope.runtime import RunReport, StreamSystem
from repro.native.partition import kernel_available
from repro.observability import MetricsRegistry
from repro.observability.tracing import Span
from repro.parallel.merge import merge_results
from repro.parallel.partition import (HashPartitioner, balance_summary,
                                      check_shard_count, check_shard_ids,
                                      shard_rows)

__all__ = ["ShardedStreamSystem"]


class _ShardJob(NamedTuple):
    """One shard's work order: everything `simulate` needs plus the shard
    index; the shard is ``rows`` of ``dataset``."""

    index: int
    dataset: Dataset
    rows: np.ndarray
    configuration: Configuration
    buckets: dict[AttributeSet, int]
    epoch_seconds: float
    value_column: str | None
    salt_seed: int


_ShardRun = tuple[int, SimulationResult, MetricsRegistry]


def _run_shard(job: _ShardJob, hfta: HFTA) -> _ShardRun:
    """One vectorized engine pass over one shard, into ``hfta``.

    Builds a fresh per-shard registry so the engine span and counters of
    this shard come back with the result."""
    registry = MetricsRegistry()
    result = simulate(job.dataset, job.configuration, job.buckets,
                      job.epoch_seconds, job.value_column, job.salt_seed,
                      hfta=hfta, registry=registry, rows=job.rows)
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
        #: Per-shard ``SimulationResult`` list, populated by :meth:`run`;
        #: a shard's HFTA holds its counters, not its partials (the next
        #: shard took them over).
        self.shard_results: list[SimulationResult] | None = None
        #: Per-shard ``MetricsRegistry`` list (engine spans and counters
        #: as measured inside each shard run), populated by :meth:`run` and
        #: also merged into :attr:`registry` under ``shard<i>.`` prefixes.
        self.shard_registries: list[MetricsRegistry] | None = None
        # The last run's (partition, engine, merge) spans, once it
        # completed; partition and merge are None for ``shards=1``.
        self._phases: tuple[Span | None, Span, Span | None] | None = None

    @property
    def last_timings(self) -> dict[str, float] | None:
        """Phase wall seconds of the last :meth:`run`, from the spans.

        Read by the end-to-end benchmark (``benchmarks/e2e``); the
        same numbers are the :attr:`registry` spans. None until a
        :meth:`run` has completed, and after a run that failed.
        """
        if self._phases is None:
            return None
        partition, engine, merge = self._phases
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
        # Nothing of an earlier run stays published past this point.
        self.partition_summary = None
        self.shard_results = self.shard_registries = None
        self._phases = None
        if self.shards == 1:
            report = super().run(registry=registry)
            self.shard_results = [report.result]
            self._phases = (None, registry.last_span("engine"), None)
            return report
        dataset = self.dataset
        epoch_seconds = self.queries.epoch_seconds
        with registry.span("partition") as partition:
            with registry.span("partition.assign"):
                strategy = type(self.partitioner).__name__
                # Validated before anything is published: a bad
                # partitioner fails here, typed, with no partition_summary.
                shard_ids = check_shard_ids(
                    self.partitioner.shard_ids(dataset, self.shards),
                    self.shards, len(dataset), source=strategy)
            with registry.span("partition.rows"):
                rows = shard_rows(shard_ids, self.shards)
                summary = balance_summary([len(r) for r in rows], strategy)
            self.partition_summary = summary
            registry.gauge("partition.empty_shards").set(
                summary["empty_shards"])
            registry.gauge("partition.imbalance").set(summary["imbalance"])
            registry.gauge("partition.kernel").set(int(kernel_available()))
            jobs = self._jobs(dataset, rows)
            # The stream's own non-empty epochs: one epoch's records
            # usually land on several shards, so shard counts do not add.
            n_epochs = sum(1 for _ in dataset.epoch_slices(epoch_seconds))
        outcomes: list[_ShardRun] = []
        # Each shard walks into the partials the shard before it handed
        # over: its folds extend the earlier shards' states, adding each
        # group's partials in shard order, as one HFTA fed every shard's
        # evictions would.
        hfta = HFTA()
        with registry.span("engine") as engine:
            for job in jobs:
                try:
                    outcomes.append(_run_shard(job, hfta))
                except Exception as exc:
                    raise ShardExecutionError(
                        f"shard {job.index} ({len(job.rows)} records, "
                        f"{len(self.shard_buckets)} relations) failed: "
                        f"{type(exc).__name__}: {exc}",
                        shard=job.index, records=len(job.rows)) from exc
                hfta = hfta.hand_over()
        results = [result for _, result, _ in outcomes]
        self.shard_results = results
        self.shard_registries = [reg for _, _, reg in outcomes]
        for index, _, shard_registry in outcomes:
            registry.merge(shard_registry, prefix=f"shard{index}.")
        registry.gauge("shards").set(self.shards)
        with registry.span("merge") as merge:
            merged = merge_results(
                results, self.configuration,
                n_records=len(dataset), n_epochs=n_epochs)
            merged.hfta.merge_from(hfta)
        self._phases = (partition, engine, merge)
        return RunReport(merged, self.params, self.queries)

    def _jobs(self, dataset: Dataset,
              rows: list[np.ndarray]) -> list[_ShardJob]:
        """One work order per non-empty shard (an empty stream yields one
        job, shard 0's, for the empty result)."""
        indices = [index for index, r in enumerate(rows) if len(r)] or [0]
        return [_ShardJob(index, dataset, rows[index], self.configuration,
                          self.shard_buckets, self.queries.epoch_seconds,
                          self.value_column, self.salt_seed)
                for index in indices]
