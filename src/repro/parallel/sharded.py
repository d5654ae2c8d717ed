"""Sharded parallel ingestion: N LFTA shard engines, one exact HFTA merge.

:class:`ShardedStreamSystem` mirrors the :class:`~repro.gigascope.runtime.
StreamSystem` API but splits the stream into ``shards`` sub-streams with a
pluggable :mod:`partitioner <repro.parallel.partition>`, runs the exact
vectorized engine on every shard — in worker processes via
:class:`concurrent.futures.ProcessPoolExecutor`, inline with the
deterministic serial executor, or through the pipelined shared-memory
executor of :mod:`repro.parallel.pipeline` — and merges the per-shard
HFTAs and cost
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
the system's), and each shard worker returns its own sub-registry, merged
under a ``shard<i>.`` prefix alongside the counter merge.

Shard workers are allowed to fail. Each shard gets up to
``retry.max_attempts`` tries with exponential backoff and deterministic
jitter; a shard that exhausts its attempts on the process executor is
re-run once on the in-process serial path (graceful degradation) before
the run gives up with a :class:`~repro.errors.ShardExecutionError` that
names the shard and its job — never a raw ``BrokenProcessPool`` or
pickling traceback. Every returned outcome is validated (shard index,
result type, record count, sub-registry type), so a worker that returns
garbage is retried exactly like one that crashed. A seedable
:class:`~repro.resilience.FaultPlan` can be injected to exercise all of
this deterministically on the production code path; the whole recovery
story is summarized in a :class:`~repro.resilience.ResilienceReport`
(``system.resilience_report``, ``report.resilience``, and
``resilience.*`` registry counters). See ``docs/resilience.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import NamedTuple

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.optimizer import Plan
from repro.core.queries import QuerySet
from repro.errors import ConfigurationError, ShardExecutionError
from repro.gigascope.engine import simulate
from repro.gigascope.metrics import SimulationResult
from repro.gigascope.records import Dataset
from repro.gigascope.runtime import RunReport, StreamSystem
from repro.observability import MetricsRegistry
from repro.parallel.merge import merge_results
from repro.parallel.partition import (HashPartitioner, shard_balance,
                                      split_dataset)
from repro.resilience.faults import CorruptResultError, FaultPlan, InjectedFault
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy

__all__ = ["ShardedStreamSystem"]

_EXECUTORS = ("process", "serial", "pipeline")

# Distinct from the builtin on 3.10 (an alias from 3.11 on); a pool wait
# can raise either, so timeouts are always caught as this pair.
_TIMEOUTS = (TimeoutError, _FuturesTimeout)


class _ShardJob(NamedTuple):
    """One shard's work order: everything `simulate` needs plus the shard
    index, picklable as a unit so the executor can ship it to a worker in
    one hop."""

    index: int
    dataset: Dataset
    configuration: Configuration
    buckets: dict[AttributeSet, int]
    epoch_seconds: float
    value_column: str | None
    salt_seed: int
    native: bool = True


_ShardOutcome = tuple[int, SimulationResult, MetricsRegistry]


def _run_shard(job: _ShardJob, attempt: int = 1,
               fault_plan: FaultPlan | None = None) -> _ShardOutcome:
    """Worker entry point: one vectorized engine pass over one shard.

    Builds a fresh per-shard registry so the engine span and counters of
    this shard travel back to the parent with the result. ``attempt``
    and ``fault_plan`` are the fault-injection hook: when a plan names
    this (shard, attempt), the planned fault fires *here*, inside the
    production path, so crashes cross the real executor boundary and
    corrupted results flow through the real validation."""
    fault = (fault_plan.fault_for(job.index, attempt)
             if fault_plan is not None else None)
    if fault is not None:
        if fault.kind == "crash":
            raise InjectedFault(
                f"injected crash: shard {job.index}, attempt {attempt}")
        if fault.kind == "delay":
            time.sleep(fault.delay_seconds)
    registry = MetricsRegistry()
    result = simulate(job.dataset, job.configuration, job.buckets,
                      job.epoch_seconds, job.value_column, job.salt_seed,
                      registry=registry, native=job.native)
    if fault is not None and fault.kind == "corrupt":
        # Falsified record count, missing sub-registry: garbage the
        # parent's outcome validation must reject.
        result = SimulationResult(result.counters, result.hfta,
                                  result.n_records + 1, result.n_epochs)
        return job.index, result, None
    return job.index, result, registry


def _validate_outcome(outcome, *, index: int, records: int) -> _ShardOutcome:
    """Reject malformed worker results so they retry like crashes."""
    if not isinstance(outcome, tuple) or len(outcome) != 3:
        raise CorruptResultError(
            f"shard {index} returned a malformed outcome "
            f"({type(outcome).__name__})")
    got_index, result, registry = outcome
    if got_index != index:
        raise CorruptResultError(
            f"shard {index} returned an outcome labelled {got_index}")
    if not isinstance(result, SimulationResult):
        raise CorruptResultError(
            f"shard {index} returned {type(result).__name__} "
            "instead of a SimulationResult")
    if not isinstance(registry, MetricsRegistry):
        raise CorruptResultError(
            f"shard {index} returned an invalid sub-registry "
            f"({type(registry).__name__})")
    if result.n_records != records:
        raise CorruptResultError(
            f"shard {index} reported {result.n_records} records "
            f"for a {records}-record shard")
    return outcome


class _Flight:
    """One shard's in-flight attempt on the process pool: the live future
    plus the submission timestamp its timeout is measured from."""

    __slots__ = ("job", "future", "attempt", "submitted")

    def __init__(self, job: _ShardJob):
        self.job = job
        self.future = None
        self.attempt = 0
        self.submitted = 0.0


def _count_epochs(dataset: Dataset, epoch_seconds: float) -> int:
    """Distinct non-empty epochs of the unsharded stream."""
    if len(dataset) == 0:
        return 0
    ids = np.floor(dataset.timestamps / epoch_seconds).astype(np.int64)
    return int(np.unique(ids).size)


class ShardedStreamSystem:
    """A partitioned, multi-engine LFTA tier with one merging HFTA.

    Accepts the same arguments as :class:`StreamSystem` (minus the engine
    choice — shards always run the vectorized engine) plus:

    shards:
        Number of parallel LFTA shards. ``shards=1`` bypasses
        partitioning and the executor entirely and behaves exactly like a
        single :class:`StreamSystem`. Must not exceed any relation's
        planned bucket count (the per-shard split would exceed the LFTA
        memory budget); :class:`~repro.errors.ConfigurationError`
        otherwise.
    partitioner:
        Record-to-shard assignment strategy (default
        :class:`~repro.parallel.partition.HashPartitioner` on the full
        grouping key). Any partition yields exact answers.
    executor:
        ``"process"`` (one worker process per shard, true multi-core),
        ``"serial"`` (shards run inline, in shard order — deterministic
        and debugger-friendly; used by the test suite), or ``"pipeline"``
        (long-lived per-shard workers fed epoch chunks through
        shared-memory ring buffers, with the HFTA merge overlapped with
        ingest — see :mod:`repro.parallel.pipeline`).
    pipeline_chunk_records / pipeline_ring_slots:
        Pipeline-executor tuning: records per columnar chunk and ring
        slots per shard. The ring bounds each worker's backlog to
        ``slots * chunk_records`` records, which is the backpressure
        window.
    max_workers:
        Process-pool size cap; defaults to ``min(shards, cpu count)``.
        Whatever the value, the pool never opens more workers than there
        are non-empty shard jobs.
    registry:
        A :class:`~repro.observability.MetricsRegistry` to record phase
        spans and counters into; one is created (and exposed as
        ``self.registry``) when omitted.
    retry:
        A :class:`~repro.resilience.RetryPolicy` governing per-shard
        attempts, backoff, timeouts, and the serial fallback; the
        default policy allows 3 attempts per shard.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` to inject deterministic
        crash/delay/corrupt faults into shard workers (testing and
        failure reproduction; None in production).
    """

    def __init__(self, dataset: Dataset, queries: QuerySet,
                 configuration: Configuration,
                 buckets: dict[AttributeSet, int] | None = None,
                 plan: Plan | None = None,
                 params: CostParameters | None = None,
                 value_column: str | None = None,
                 salt_seed: int = 0,
                 where=None,
                 shards: int = 2,
                 partitioner=None,
                 executor: str = "process",
                 max_workers: int | None = None,
                 registry: MetricsRegistry | None = None,
                 retry: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 pipeline_chunk_records: int = 32768,
                 pipeline_ring_slots: int = 4,
                 native: bool = True):
        if int(shards) < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if executor not in _EXECUTORS:
            raise ValueError(f"unknown executor {executor!r} "
                             f"(choose from {_EXECUTORS})")
        if executor == "pipeline":
            # Fail here, with the platform named, rather than deep in
            # worker setup after rings and workers are half-built.
            from repro.parallel.pipeline import require_fork
            require_fork()
        # A hidden single-core system performs all validation (plan
        # resolution, bucket completeness, value column, WHERE filter) and
        # serves as the shards=1 fast path.
        self._single = StreamSystem(
            dataset, queries, configuration, buckets, plan=plan,
            params=params, value_column=value_column, salt_seed=salt_seed,
            where=where, native=native)
        self.shards = int(shards)
        unsplittable = [rel for rel, b in self._single.buckets.items()
                        if b < self.shards]
        if unsplittable:
            labels = [rel.label() for rel in sorted(
                unsplittable, key=lambda rel: rel.label())]
            raise ConfigurationError(
                f"cannot split relations {labels} across {self.shards} "
                "shards: each shard table needs >= 1 bucket, which would "
                "exceed the planned LFTA memory budget; use fewer shards "
                "or a larger budget")
        self.partitioner = (partitioner if partitioner is not None
                            else HashPartitioner())
        self.executor = executor
        self.max_workers = max_workers
        self.registry = registry if registry is not None else MetricsRegistry()
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        if int(pipeline_chunk_records) < 1 or int(pipeline_ring_slots) < 1:
            raise ConfigurationError(
                "pipeline_chunk_records and pipeline_ring_slots must be "
                f">= 1, got {pipeline_chunk_records}/{pipeline_ring_slots}")
        self.pipeline_chunk_records = int(pipeline_chunk_records)
        self.pipeline_ring_slots = int(pipeline_ring_slots)
        self.shard_buckets = {rel: b // self.shards
                              for rel, b in self._single.buckets.items()}
        #: How the last run's records actually landed across shards
        #: (strategy, per-shard counts, empty shards, imbalance); set by
        #: :meth:`run` for ``shards > 1`` and surfaced in the manifest.
        self.partition_summary: dict | None = None
        #: The last run's :class:`~repro.resilience.ResilienceReport`
        #: (attempts, faults, fallbacks, overhead); None before
        #: :meth:`run` and on the shards=1 fast path.
        self.resilience_report: ResilienceReport | None = None
        #: Per-shard ``SimulationResult`` list, populated by :meth:`run`.
        self.shard_results: list[SimulationResult] | None = None
        #: Per-shard ``MetricsRegistry`` list (engine spans and counters
        #: as measured inside each worker), populated by :meth:`run` and
        #: also merged into :attr:`registry` under ``shard<i>.`` prefixes.
        self.shard_registries: list[MetricsRegistry] | None = None

    @classmethod
    def from_plan(cls, dataset: Dataset, queries: QuerySet, plan: Plan,
                  **kwargs) -> "ShardedStreamSystem":
        return cls(dataset, queries, plan.configuration, plan=plan, **kwargs)

    # ------------------------------------------------------------------
    # StreamSystem-compatible accessors
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._single.dataset

    @property
    def queries(self) -> QuerySet:
        return self._single.queries

    @property
    def configuration(self) -> Configuration:
        return self._single.configuration

    @property
    def buckets(self) -> dict[AttributeSet, int]:
        """The undivided (single-core) bucket counts of the plan."""
        return self._single.buckets

    @property
    def params(self) -> CostParameters:
        return self._single.params

    @property
    def value_column(self) -> str | None:
        return self._single.value_column

    @property
    def last_timings(self) -> dict[str, float] | None:
        """Phase wall seconds of the last :meth:`run`, from the spans.

        Legacy accessor kept for the scaling benchmark's JSON schema;
        new code should read :attr:`registry` spans directly. None until
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

    def _effective_workers(self, n_jobs: int) -> int:
        """Pool size for ``n_jobs`` non-empty shards.

        A user-supplied ``max_workers`` is honoured but capped at the job
        count; the default is ``min(shards, cpu count)`` (and shard jobs
        never outnumber shards).
        """
        if self.max_workers is not None:
            return max(1, min(self.max_workers, n_jobs))
        return max(1, min(self.shards, n_jobs, os.cpu_count() or 1))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunReport:
        """Partition, stream every shard, merge; one report, exact answers."""
        registry = self.registry
        if self.shards == 1:
            report = self._single.run(registry=registry)
            self.shard_results = [report.result]
            self.shard_registries = None
            self.resilience_report = None
            return report
        dataset = self._single.dataset
        epoch_seconds = self.queries.epoch_seconds
        with registry.span("partition"):
            shard_ids = self.partitioner.shard_ids(dataset, self.shards)
            summary = shard_balance(
                shard_ids, self.shards,
                strategy=type(self.partitioner).__name__)
            self.partition_summary = summary
            registry.gauge("partition.empty_shards").set(
                summary["empty_shards"])
            registry.gauge("partition.imbalance").set(summary["imbalance"])
            jobs = (None if self.executor == "pipeline"
                    else self._materialize_jobs(dataset, shard_ids))
        with registry.span("engine"):
            if self.executor == "pipeline":
                outcomes, resilience = self._execute_pipeline(
                    dataset, shard_ids, summary)
            else:
                outcomes, resilience = self._execute_jobs(jobs)
        resilience.record(registry)
        self.resilience_report = resilience
        results = [result for _, result, _ in outcomes]
        self.shard_results = results
        self.shard_registries = [reg for _, _, reg in outcomes]
        for index, _, shard_registry in outcomes:
            registry.merge(shard_registry, prefix=f"shard{index}.")
        registry.gauge("shards").set(self.shards)
        with registry.span("merge"):
            merged = merge_results(
                results, self._single.configuration,
                n_records=len(dataset),
                n_epochs=_count_epochs(dataset, epoch_seconds))
        return RunReport(merged, self.params, self.queries,
                         resilience=resilience)

    def _materialize_jobs(self, dataset: Dataset,
                          shard_ids: np.ndarray) -> list[_ShardJob]:
        """Split the stream into per-shard work orders (empty shards are
        skipped; an empty stream yields one job for the empty result)."""
        epoch_seconds = self.queries.epoch_seconds
        jobs: list[_ShardJob] = [
            _ShardJob(index, shard, self._single.configuration,
                      self.shard_buckets, epoch_seconds,
                      self.value_column, self._single.salt_seed,
                      self._single.native)
            for index, shard in enumerate(
                split_dataset(dataset, shard_ids, self.shards))
            if len(shard)
        ]
        if not jobs:
            jobs = [_ShardJob(0, dataset, self._single.configuration,
                              self.shard_buckets, epoch_seconds,
                              self.value_column, self._single.salt_seed,
                              self._single.native)]
        return jobs

    def _new_resilience(self) -> ResilienceReport:
        resilience = ResilienceReport(
            policy=self.retry_policy.to_dict(),
            fault_plan=(self.fault_plan.to_dict()
                        if self.fault_plan is not None else None))
        # Published before execution so a raising run still leaves its
        # partial attempt history inspectable post-mortem.
        self.resilience_report = resilience
        return resilience

    # ------------------------------------------------------------------
    # Fault-tolerant job execution
    # ------------------------------------------------------------------
    def _execute_pipeline(self, dataset: Dataset, shard_ids: np.ndarray,
                          summary: dict
                          ) -> tuple[list[_ShardOutcome], ResilienceReport]:
        """Run the pipelined shared-memory executor (see
        :mod:`repro.parallel.pipeline`).

        Degenerate shapes — fewer than two non-empty shards, or an empty
        stream — fall back to the in-process serial loop, which is both
        exact and cheaper than spinning up workers for no parallelism.
        """
        from repro.parallel.pipeline import PipelineCoordinator

        resilience = self._new_resilience()
        rng = self.retry_policy.rng()
        live = [s for s, n in enumerate(summary["records"]) if n > 0]
        if len(live) <= 1:
            outcomes = [self._run_job_serial(job, resilience, rng)
                        for job in self._materialize_jobs(dataset, shard_ids)]
            return outcomes, resilience
        coordinator = PipelineCoordinator(self, dataset, shard_ids, live,
                                          resilience, rng)
        return coordinator.run(), resilience

    def _execute_jobs(self, jobs: list[_ShardJob]
                      ) -> tuple[list[_ShardOutcome], ResilienceReport]:
        """Run every job to a validated outcome, retrying per policy.

        Raises :class:`~repro.errors.ShardExecutionError` (naming the
        shard, its size, and the last underlying error) only after the
        policy's attempts — and, on the process executor, the serial
        fallback — are exhausted.
        """
        resilience = self._new_resilience()
        rng = self.retry_policy.rng()
        if self.executor == "serial" or len(jobs) == 1:
            outcomes = [self._run_job_serial(job, resilience, rng)
                        for job in jobs]
        else:
            outcomes = self._run_jobs_process(jobs, resilience, rng)
        return outcomes, resilience

    def _note_attempt(self, resilience: ResilienceReport, index: int,
                      records: int, attempt: int, rng) -> None:
        """Book-keep one attempt: count it, log its planned fault, and
        sleep the backoff (attempt 1 never waits)."""
        row = resilience.outcome(index, records)
        row.attempts = attempt
        fault = (self.fault_plan.fault_for(index, attempt)
                 if self.fault_plan is not None else None)
        if fault is not None:
            row.faults.append(fault.kind)
        wait = self.retry_policy.backoff_seconds(attempt, rng)
        if wait > 0:
            resilience.backoff_seconds += wait
            self.retry_policy.sleep(wait)

    def _note_failure(self, resilience: ResilienceReport, index: int,
                      records: int, exc: Exception, started: float) -> None:
        """Record a failed attempt; ``started`` is the attempt's
        *submission* time, so failure seconds cover its full lifetime."""
        row = resilience.outcome(index, records)
        row.errors.append(f"{type(exc).__name__}: {exc}")
        resilience.failed_attempt_seconds += time.perf_counter() - started

    def _exhausted(self, index: int, records: int,
                   resilience: ResilienceReport,
                   last_exc: Exception) -> ShardExecutionError:
        row = resilience.outcome(index, records)
        detail = row.errors[-1] if row.errors else str(last_exc)
        return ShardExecutionError(
            f"shard {index} ({records} records, "
            f"{len(self.shard_buckets)} relations) failed after "
            f"{row.attempts} attempts"
            + (" including a serial fallback" if row.fallback else "")
            + f"; last error: {detail}",
            shard=index, attempts=row.attempts, records=records)

    def _check_serial_timeout(self, started: float) -> None:
        """Post-hoc timeout for in-process attempts (which cannot be
        interrupted, unlike a worker-pool wait)."""
        timeout = self.retry_policy.timeout_seconds
        elapsed = time.perf_counter() - started
        if timeout is not None and elapsed > timeout:
            raise TimeoutError(
                f"attempt took {elapsed:.3f}s, exceeding the "
                f"{timeout:.3f}s per-attempt timeout")

    def _run_job_serial(self, job: _ShardJob, resilience: ResilienceReport,
                        rng) -> _ShardOutcome:
        """In-process attempts; the retry loop of the serial executor."""
        row = resilience.outcome(job.index, len(job.dataset))
        last_exc: Exception | None = None
        for attempt in range(1, self.retry_policy.max_attempts + 1):
            self._note_attempt(resilience, job.index, len(job.dataset),
                               attempt, rng)
            started = time.perf_counter()
            try:
                outcome = _validate_outcome(
                    _run_shard(job, attempt, self.fault_plan),
                    index=job.index, records=len(job.dataset))
                self._check_serial_timeout(started)
                row.succeeded = True
                return outcome
            except Exception as exc:
                self._note_failure(resilience, job.index, len(job.dataset),
                                   exc, started)
                last_exc = exc
        raise self._exhausted(job.index, len(job.dataset), resilience,
                              last_exc) from last_exc

    def _run_jobs_process(self, jobs: list[_ShardJob],
                          resilience: ResilienceReport,
                          rng) -> list[_ShardOutcome]:
        """Submit-based process-pool execution with per-shard retries.

        All first attempts are submitted up front (full parallelism);
        failures are retried as they surface. Each attempt's timeout is
        measured from its *submission* timestamp, so shards awaited later
        do not get unbounded timeouts. A broken pool (worker killed hard)
        or a timed-out attempt that is already running is torn down and
        rebuilt, so neither a dying worker nor a zombie attempt can doom
        or delay the surviving shards.
        """
        workers = self._effective_workers(len(jobs))
        pool = [ProcessPoolExecutor(max_workers=workers)]
        flights = {job.index: _Flight(job) for job in jobs}

        def submit(job: _ShardJob, attempt: int) -> None:
            flight = flights[job.index]
            flight.attempt = attempt
            flight.submitted = time.perf_counter()
            flight.future = pool[0].submit(_run_shard, job, attempt,
                                           self.fault_plan)

        try:
            for job in jobs:
                self._note_attempt(resilience, job.index, len(job.dataset),
                                   1, rng)
                submit(job, 1)
            return [self._await_job(job, flights, pool, workers, submit,
                                    resilience, rng)
                    for job in jobs]
        finally:
            pool[0].shutdown(wait=False, cancel_futures=True)

    def _await_job(self, job: _ShardJob, flights, pool, workers: int,
                   submit, resilience: ResilienceReport,
                   rng) -> _ShardOutcome:
        row = resilience.outcome(job.index, len(job.dataset))
        flight = flights[job.index]
        timeout = self.retry_policy.timeout_seconds
        while True:
            try:
                if timeout is None:
                    raw = flight.future.result()
                else:
                    remaining = timeout - (time.perf_counter()
                                           - flight.submitted)
                    raw = flight.future.result(timeout=max(0.0, remaining))
                outcome = _validate_outcome(raw, index=job.index,
                                            records=len(job.dataset))
                row.succeeded = True
                return outcome
            except Exception as exc:
                if isinstance(exc, _TIMEOUTS):
                    exc = TimeoutError(
                        f"attempt exceeded the {timeout:.3f}s per-attempt "
                        "timeout (measured from submission)")
                    self._cancel_attempt(flight, flights, pool, workers,
                                         submit, resilience)
                self._note_failure(resilience, job.index, len(job.dataset),
                                   exc, flight.submitted)
                if isinstance(exc, BrokenExecutor):
                    self._rebuild_pool(flights, pool, workers, submit,
                                       exclude=job.index)
                attempt = flight.attempt + 1
                if attempt > self.retry_policy.max_attempts:
                    return self._fallback_or_raise(job, resilience, rng, exc)
                self._note_attempt(resilience, job.index, len(job.dataset),
                                   attempt, rng)
                submit(job, attempt)

    def _cancel_attempt(self, flight: _Flight, flights, pool, workers: int,
                        submit, resilience: ResilienceReport) -> None:
        """Stop a timed-out attempt before its retry is submitted.

        A pending future cancels cleanly. A *running* one cannot be
        cancelled through the executor API — the zombie would keep
        occupying a pool worker while its retry runs, serializing behind
        it — so the pool is torn down (terminating the worker) and
        rebuilt, and every other shard's unfinished attempt is resubmitted
        on the fresh pool at its same attempt number with a fresh clock.
        """
        resilience.cancelled_attempts += 1
        if flight.future.cancel():
            return
        self._rebuild_pool(flights, pool, workers, submit,
                           exclude=flight.job.index)

    def _rebuild_pool(self, flights, pool, workers: int, submit,
                      exclude: int) -> None:
        """Replace the pool; resubmit innocents' unfinished attempts."""
        victims = [flight for flight in flights.values()
                   if flight.job.index != exclude
                   and flight.future is not None
                   and not flight.future.done()]
        old = pool[0]
        old.shutdown(wait=False, cancel_futures=True)
        for proc in list((getattr(old, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        pool[0] = ProcessPoolExecutor(max_workers=workers)
        for flight in victims:
            submit(flight.job, flight.attempt)

    def _fallback_or_raise(self, job: _ShardJob,
                           resilience: ResilienceReport, rng,
                           last_exc: Exception) -> _ShardOutcome:
        """Graceful degradation: one in-process try before giving up."""
        row = resilience.outcome(job.index, len(job.dataset))
        if self.retry_policy.serial_fallback:
            row.fallback = True
            attempt = row.attempts + 1
            self._note_attempt(resilience, job.index, len(job.dataset),
                               attempt, rng)
            started = time.perf_counter()
            try:
                outcome = _validate_outcome(
                    _run_shard(job, attempt, self.fault_plan),
                    index=job.index, records=len(job.dataset))
                self._check_serial_timeout(started)
                row.succeeded = True
                return outcome
            except Exception as exc:
                self._note_failure(resilience, job.index, len(job.dataset),
                                   exc, started)
                last_exc = exc
        raise self._exhausted(job.index, len(job.dataset), resilience,
                              last_exc) from last_exc
