"""Incremental, push-based execution with mid-stream reconfiguration.

:class:`LiveStreamSystem` accepts record batches as they arrive (batches
may split epochs arbitrarily), processes every *completed* epoch through
the vectorized engine, and swaps in a new plan at an epoch boundary —
when the caller stages one, or when the re-plan rule below fires.
Because the LFTA flushes every table at epoch boundaries anyway,
reconfiguration there is free: no state migrates.

This is the paper's deployment story (Sec. 8: "studying issues related to
adaptivity and frequency of execution") built out. A plan is only as
good as its Eq. 7 prediction, so the rule watches each closed epoch's
measured ÷ predicted cost per record. The first epoch of an *era* (the
epochs under one plan) sets the baseline, which absorbs any standing
model bias; an epoch whose ratio leaves ``REPLAN_FACTOR`` of it re-plans
from that epoch's exact statistics, landing at the next boundary.

The system keeps one bound walk (:class:`~repro.gigascope.engine.Tables`)
for the whole run: the first close of an era binds it to the era's
relations, table sizes, salts, emit flags and column order (a re-plan to
the same configuration and allocation keeps the binding, its walks and
its lane schedule), and every later close reuses them. A close hands
``simulate`` the records :meth:`push` checked, joined into one array per
column — no second check and no
:class:`~repro.gigascope.records.Dataset`, which only a re-plan builds
for its statistics — and reports the epoch's intra and flush costs from
the walk's counters of that one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.feeding_graph import FeedingGraph
from repro.core.optimizer import Plan, plan
from repro.core.queries import AggregationQuery, QuerySet
from repro.errors import AllocationError, ConfigurationError, SchemaError
from repro.gigascope.engine import Tables, simulate
from repro.gigascope.filters import filter_dataset
from repro.gigascope.hfta import HFTA, QueryAnswer
from repro.gigascope.metrics import CostCounters
from repro.gigascope.records import Dataset, StreamSchema
from repro.gigascope.runtime import check_run
from repro.observability.tracing import trace
from repro.workloads.datasets import measure_statistics

__all__ = ["EpochReport", "LiveStreamSystem", "REPLAN_FACTOR"]

#: How far (either way) an epoch's measured/predicted Eq. 7 ratio may
#: move from its era's baseline before the plan is re-made. Stationary
#: traffic stays within ~10 % of the baseline even where the model is
#: 2-4.5x off; a drift in group structure moves it 50x or more.
REPLAN_FACTOR = 2.0


@dataclass(frozen=True)
class EpochReport:
    """Per-epoch accounting emitted as epochs complete.

    ``predicted_cost`` is the plan's Eq. 7 cost per record (None for an
    era restored from a checkpoint written before eras kept their plan).
    """

    epoch: int
    records: int
    configuration: Configuration
    intra_cost: float
    flush_cost: float
    predicted_cost: float | None = None

    @property
    def per_record_cost(self) -> float:
        return self.intra_cost / self.records if self.records else 0.0


@dataclass
class _Era:
    """A maximal span of epochs sharing one plan; ``baseline`` is the
    cost ratio of its first epoch, which held ``baseline_records``."""

    configuration: Configuration
    buckets: dict[AttributeSet, int]
    plan: Plan | None = None
    baseline: float | None = None
    baseline_records: int = 0
    counters: CostCounters = field(init=False)

    def __post_init__(self) -> None:
        self.counters = CostCounters(self.configuration)


class _EpochRecords:
    """The open epoch's records as :meth:`LiveStreamSystem.push` checked
    them, read by ``simulate`` as it reads a :class:`Dataset`: the
    columns, the values, the length and the one epoch they fill."""

    __slots__ = ("epoch", "columns", "values")

    def __init__(self, epoch: int, columns: dict[str, np.ndarray],
                 values: dict[str, np.ndarray]) -> None:
        self.epoch, self.columns, self.values = epoch, columns, values

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def epoch_slices(self, epoch_seconds: float):
        return [(self.epoch, 0, len(self))]


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """One array of a column's buffered chunks (the chunk itself when
    there is one)."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class LiveStreamSystem:
    """A two-level stream system fed incrementally.

    Construction and :meth:`reconfigure` run
    :func:`~repro.gigascope.runtime.check_run`.
    """

    def __init__(self, schema: StreamSchema, queries: QuerySet,
                 plan: Plan, params: CostParameters | None = None,
                 value_column: str | None = None, salt_seed: int = 0,
                 where=None, registry=None):
        check_run(schema, queries, plan.configuration,
                  plan.allocation.buckets, value_column, where)
        self.schema = schema
        self.queries = queries
        self.params = params or CostParameters()
        self.value_column = value_column
        self.salt_seed = salt_seed
        self.where = where
        self.registry = registry
        self.epoch_seconds = queries.epoch_seconds
        self.hfta = HFTA()
        #: The one bound walk every close walks through; a checkpoint
        #: leaves it out and a restored system starts a new one.
        self.tables = Tables()
        self.eras: list[_Era] = []
        self.epoch_reports: list[EpochReport] = []
        self.reconfigurations: list[tuple[int, Configuration]] = []
        self._apply_plan(plan)
        # Buffered records of the (single) currently open epoch.
        self._pending_cols: dict[str, list[np.ndarray]] = \
            {a: [] for a in schema.attributes}
        self._pending_vals: list[np.ndarray] = []
        self._pending_times: list[np.ndarray] = []
        self._pending_epoch: int | None = None
        self._last_time = -np.inf
        self.records_seen = 0

    # ------------------------------------------------------------------
    # Configuration management
    # ------------------------------------------------------------------
    def _apply_plan(self, plan: Plan) -> None:
        buckets = {rel: max(int(b), 1)
                   for rel, b in plan.allocation.buckets.items()}
        self.eras.append(_Era(plan.configuration, buckets, plan))
        self._staged_plan: Plan | None = None
        self._staged_queries: QuerySet | None = None

    def reconfigure(self, plan: Plan,
                    queries: QuerySet | None = None) -> None:
        """Switch plans from the first epoch not yet processed.

        The plan is staged and lands when the first record of an epoch
        after the last closed one arrives: every epoch up to and
        including the open one (or, with none open, the last closed one,
        which a record arriving after :meth:`finish` may still reopen)
        keeps the old configuration. The tables are empty at the swap
        (they flush at every boundary), so nothing migrates and the swap
        is free; its :attr:`reconfigurations` entry names the epoch
        after the last closed one. Before any epoch has closed the plan
        simply replaces the one the system was built with.

        ``queries`` optionally swaps the query set together with the plan
        (the multi-tenant service registers and retires queries at
        runtime), atomically with it. The new set must keep the system's
        epoch length — every LFTA table flushes on the one shared epoch
        clock.
        """
        target = queries if queries is not None else self.queries
        if queries is not None and \
                queries.epoch_seconds != self.epoch_seconds:
            raise ConfigurationError(
                f"staged query set changes the epoch length "
                f"({queries.epoch_seconds}s != {self.epoch_seconds}s)")
        check_run(self.schema, target, plan.configuration,
                  plan.allocation.buckets, self.value_column, self.where)
        self._staged_plan = plan
        self._staged_queries = queries

    def _land_staged(self, reached: int) -> None:
        """Run the staged plan (if any) now that stream time has reached
        epoch ``reached``, if that lies past the last closed epoch: no
        later record can fall in a closed epoch then."""
        staged = self._staged_plan
        if staged is None or (self.epoch_reports
                              and reached <= self.epoch_reports[-1].epoch):
            return
        if self._staged_queries is not None:
            self.queries = self._staged_queries
        if not self.epoch_reports:
            # Nothing ran under the running plan: it is replaced.
            self.eras.clear()
            self._apply_plan(staged)
            return
        epoch = self.epoch_reports[-1].epoch + 1
        self._apply_plan(staged)
        self.reconfigurations.append((epoch, staged.configuration))
        if self.registry is not None:
            self.registry.counter("live.reconfigurations").inc()
            self.registry.event("reconfiguration", epoch=epoch,
                                configuration=str(staged.configuration))

    @property
    def configuration(self) -> Configuration:
        return self.eras[-1].configuration

    @property
    def open_epoch(self) -> int | None:
        """Epoch id of the currently buffered (unflushed) epoch, if any."""
        return self._pending_epoch

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def push(self, columns, timestamps, values=None) -> list[EpochReport]:
        """Feed a batch; returns reports for any epochs it completed.

        The batch must be a valid :class:`Dataset` over the schema,
        start no earlier than the last accepted record, and carry
        ``values`` when the run has a value column. A batch refused with
        :class:`~repro.errors.SchemaError` leaves the system untouched,
        so the same time range can be retried with a corrected batch.
        """
        if np.size(timestamps) == 0:
            return []
        if self.value_column is not None and values is None:
            raise SchemaError(
                f"batch missing values for {self.value_column!r}")
        batch = Dataset(self.schema, columns, timestamps,
                        {self.value_column: values}
                        if self.value_column is not None else {})
        if batch.timestamps[0] < self._last_time:
            raise SchemaError("batches must arrive in timestamp order")
        kept = (filter_dataset(batch, self.where)
                if self.where is not None else batch)
        slices = list(kept.epoch_slices(self.epoch_seconds))

        # Everything validated; state mutation starts here.
        self._last_time = float(batch.timestamps[-1])
        self.records_seen += len(batch)
        if not len(kept):
            # The filter dropped the whole batch, but the batch still
            # proves stream time advanced: if it lies beyond the open
            # epoch, that epoch will never see another record and must
            # close now (otherwise its report and answers stall until
            # some later record survives the filter).
            return self._advance_time()

        completed: list[EpochReport] = []
        timestamps = kept.timestamps
        vals = kept.values.get(self.value_column)
        for epoch, start, end in slices:
            if self._pending_epoch is not None and \
                    epoch != self._pending_epoch:
                completed.append(self._close_epoch())
            if self._pending_epoch is None:
                self._land_staged(epoch)
            self._pending_epoch = epoch
            for name in self.schema.attributes:
                self._pending_cols[name].append(kept.columns[name][start:end])
            self._pending_times.append(timestamps[start:end])
            if vals is not None:
                self._pending_vals.append(vals[start:end])
        return completed

    def _advance_time(self) -> list[EpochReport]:
        """Close the open epoch if ``_last_time`` has moved past its end,
        and land a staged plan once it has moved past every closed one."""
        latest_epoch = math.floor(self._last_time / self.epoch_seconds)
        completed = []
        if self._pending_epoch is not None and \
                latest_epoch > self._pending_epoch:
            completed.append(self._close_epoch())
        if self._pending_epoch is None:
            self._land_staged(latest_epoch)
        return completed

    def push_dataset(self, dataset: Dataset) -> list[EpochReport]:
        """Convenience: push a whole :class:`Dataset` as one batch."""
        values = (dataset.values[self.value_column]
                  if self.value_column else None)
        return self.push(dataset.columns, dataset.timestamps, values)

    def finish(self) -> list[EpochReport]:
        """Flush the open epoch (end of stream)."""
        if self._pending_epoch is None:
            return []
        return [self._close_epoch()]

    # ------------------------------------------------------------------
    # Epoch processing
    # ------------------------------------------------------------------
    def _close_epoch(self) -> EpochReport:
        """Walk the open epoch through the bound walk, bound to the
        newest era, and report it. The records are the ones :meth:`push`
        checked, handed over as they are; the report's costs are the
        walk's own counters of this call."""
        era = self.eras[-1]
        epoch = self._pending_epoch
        assert epoch is not None
        records = _EpochRecords(
            epoch, {name: _joined(chunks)
                    for name, chunks in self._pending_cols.items()},
            {self.value_column: _joined(self._pending_vals)}
            if self.value_column and self._pending_vals else {})
        times = self._pending_times
        with trace(self.registry, "flush"):
            simulate(records, era.configuration, era.buckets,
                     self.epoch_seconds, self.value_column, self.salt_seed,
                     counters=era.counters, hfta=self.hfta,
                     registry=self.registry, tables=self.tables)
        report = EpochReport(
            epoch, len(records), era.configuration,
            *self.tables.call_costs(self.params),
            era.plan.predicted_cost if era.plan is not None else None)
        self.epoch_reports.append(report)
        if self.registry is not None:
            self.registry.counter("live.epochs").inc()
            self.registry.counter("live.records").inc(report.records)
            self.registry.gauge("live.last_epoch").set(epoch)
            self.registry.histogram("live.epoch_records").observe(
                report.records)
            self.registry.histogram("live.epoch_intra_cost").observe(
                report.intra_cost)
            self.registry.histogram("live.epoch_flush_cost").observe(
                report.flush_cost)
        self._pending_cols = {a: [] for a in self.schema.attributes}
        self._pending_vals = []
        self._pending_times = []
        self._pending_epoch = None
        if self._staged_plan is None:
            self._judge(era, report, records, times)
        return report

    def _judge(self, era: _Era, report: EpochReport,
               records: "_EpochRecords", times: list[np.ndarray]) -> None:
        """The re-plan rule: stage a new plan if this epoch's measured ÷
        predicted cost left ``REPLAN_FACTOR`` of the era's baseline.

        Idle for a plan without recorded planning inputs; epochs under
        half the era's first are not comparable and not judged. If the
        budget cannot be allocated for the new statistics, the plan stays
        and this epoch becomes the era's baseline. Only a re-plan makes
        the epoch's records (with their timestamps ``times``) a
        :class:`Dataset`, for its statistics.
        """
        running = era.plan
        if running is None or running.memory is None \
                or running.predicted_cost <= 0:
            return
        ratio = report.per_record_cost / running.predicted_cost
        if era.baseline is None:
            era.baseline, era.baseline_records = ratio, report.records
            return
        if 2 * report.records < era.baseline_records or \
                era.baseline / REPLAN_FACTOR <= ratio \
                <= era.baseline * REPLAN_FACTOR:
            return
        dataset = Dataset(self.schema, records.columns,
                          np.concatenate(times), records.values)
        stats = measure_statistics(
            dataset, FeedingGraph(self.queries).nodes,
            counters=2 if self.value_column else 1)
        try:
            new_plan = plan(
                self.queries, stats, running.memory, self.params,
                algorithm=running.algorithm, phi=running.phi,
                model=running.model,
                peak_load_limit=running.peak_load_limit,
                peak_method=running.peak_method,
                clustered=running.clustered)
        except AllocationError:
            era.baseline, era.baseline_records = ratio, report.records
            return
        if self.registry is not None:
            self.registry.counter("live.replans").inc()
            self.registry.event(
                "replan", epoch=report.epoch, ratio=ratio,
                baseline=era.baseline,
                predicted_cost=running.predicted_cost)
        self.reconfigure(new_plan)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Timestamp of the last accepted record (``-inf`` before any).

        Replay rule after :meth:`restore`: skip the first
        :attr:`records_seen` records of the original stream, then keep
        pushing — the snapshot holds the open epoch's buffered records,
        so nothing is lost or double-counted.
        """
        return self._last_time

    def checkpoint(self, path, extra: dict | None = None) -> "Path":
        """Snapshot full mid-stream state to ``path``.

        The snapshot (versioned; see
        :mod:`repro.resilience.checkpoint`) captures the eras with their
        plans, re-plan baselines and cost counters, HFTA partials, the
        open epoch's buffered records, the watermark, the staged plan
        and staged query set, and emitted reports — everything required
        for :meth:`restore` + replay of the remaining stream to be
        byte-identical to an uninterrupted run. ``extra`` rides along as
        an opaque payload (the stream service stores its tenant registry
        there). The ``registry`` is not serialized; re-attach it on
        restore.
        """
        from repro.resilience.checkpoint import save_live_checkpoint
        return save_live_checkpoint(self, path, extra=extra)

    @classmethod
    def restore(cls, path, registry=None) -> "LiveStreamSystem":
        """Rebuild a system from a :meth:`checkpoint` snapshot."""
        from repro.resilience.checkpoint import load_live_checkpoint
        return load_live_checkpoint(path, registry=registry)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def total_intra_cost(self) -> float:
        return sum(r.intra_cost for r in self.epoch_reports)

    def total_flush_cost(self) -> float:
        return sum(r.flush_cost for r in self.epoch_reports)

    def answers(self, query: AggregationQuery) -> dict[int, QueryAnswer]:
        """Exact per-epoch answers for a user query (completed epochs).

        Each epoch's answer is a lazy :class:`QueryAnswer` snapshot.
        """
        return self.hfta.all_answers(query)
