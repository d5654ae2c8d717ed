"""The four workloads: inputs from a seed, one closed-loop pass, its check.

Every workload drives public entry points with default arguments only
(no ``native=``, ``strategy=``, ``executor=``, ``hash_cache=``,
``engine=``), from one generator thread that waits for each call to
return (a closed loop: the entry points are synchronous).

Why these four, and which layer each one stresses, is recorded in
``WORKLOADS`` below and in the README's workload table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    AggregationQuery,
    Aggregate,
    AttributeSet,
    FeedingGraph,
    QuerySet,
    ShardedStreamSystem,
    StreamSchema,
    StreamService,
    StreamSystem,
    plan,
)
from repro.gigascope.online import LiveStreamSystem
from repro.gigascope.records import Dataset
from repro.observability import MetricsRegistry
from repro.workloads import (
    make_group_universe,
    measure_statistics,
    paper_like_trace,
    uniform_dataset,
)

from oracle import Oracle
from spans import NullTracer

__all__ = ["WORKLOADS", "PassResult", "Workload"]

clock = time.perf_counter

#: Share of the stream the warm-up pass inside set-up runs over.
WARM_SHARE = 5


class Ops:
    """Counts the calls made into the system and the ones that raised.

    A raised call is a failed operation, not a crashed benchmark: the
    pass goes on so ``failed`` counts everything that went wrong.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.raised = 0
        self.errors: list[str] = []

    def __call__(self, function, *args, **kwargs):
        self.calls += 1
        try:
            return function(*args, **kwargs)
        except Exception as exc:
            self.raised += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


@dataclass
class PassResult:
    """What one pass measured, plus what its check needs."""

    records: int
    wall_s: float
    plan_ms: list[float]
    cost_per_record: float
    ops: Ops
    #: Cheap summary of the rendered answers; equal on every pass.
    digest: object
    #: Exact public counters behind the per-layer count metrics.
    facts: dict
    close_ms: list[float] = field(default_factory=list)
    register_ms: list[float] = field(default_factory=list)
    recovery_s: float | None = None
    #: Oracle checks already made inside the pass: (attempted, failed).
    checks: tuple[int, int] = (0, 0)
    #: What ``verify`` reads (answers or the finished system); released
    #: by the driver once the pass is verified or superseded.
    state: object = None


def lfta_facts(counter_sets) -> dict:
    """Sum the LFTA probe/eviction counters over eras and relations."""
    probes = intra = flush = 0
    for counters in counter_sets:
        for rel in counters.relations.values():
            probes += rel.arrivals
            intra += rel.evictions_intra
            flush += rel.evictions_flush
    return {"lfta.probes": probes, "lfta.evictions_intra": intra,
            "lfta.evictions_flush": flush,
            "lfta.collision_rate": intra / probes if probes else 0.0}


def hfta_facts(hfta, queries, records: int) -> dict:
    """Rows shipped to the HFTA and the size of the state it holds."""
    groups = state_bytes = 0
    for query in queries:
        for epoch in hfta.epochs(query.group_by):
            state = hfta.totals_columnar(query.group_by, epoch)
            if state is None:
                continue
            groups += state.n_groups
            state_bytes += sum(a.nbytes for a in state.columns) + \
                state.counts.nbytes + state.value_sums.nbytes + \
                state.value_mins.nbytes + state.value_maxs.nbytes
    return {"hfta.rows_in": hfta.evictions_received,
            "hfta.rows_per_record": hfta.evictions_received / records,
            "hfta.folds": hfta.folds,
            "hfta.rows_folded": hfta.rows_folded,
            "hfta.groups_live": groups,
            "hfta.state_mb": state_bytes / 2 ** 20}


def counter_value(registry, name: str):
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


def plan_facts(chosen) -> dict:
    return {"optimizer.relations": len(chosen.configuration.relations),
            "optimizer.predicted_cost_per_record": chosen.predicted_cost}


def batches_of(dataset: Dataset, size: int, value_column: str | None):
    """The stream cut into fixed-size push batches (views, no copies)."""
    values = dataset.values[value_column] if value_column else None
    out = []
    for start in range(0, len(dataset), size):
        end = start + size
        out.append(({name: column[start:end]
                     for name, column in dataset.columns.items()},
                    dataset.timestamps[start:end],
                    None if values is None else values[start:end]))
    return out


class Workload:
    """Inputs from a seed, a set-up, a pass, and the pass's check."""

    name = ""
    why = ""

    def __init__(self, seed: int, check_size: bool, work_dir: Path):
        self.seed = seed
        self.size = self.CHECK if check_size else self.FULL
        self.work_dir = work_dir
        self.stats_s = 0.0

    def set_up(self) -> None:
        """Generate, measure statistics, plan, run the warm-up pass."""
        raise NotImplementedError

    def run_pass(self, tracer, warm: bool = False) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult) -> tuple[int, int]:
        """Oracle checks for one pass: ``(attempted, failed)``."""
        raise NotImplementedError

    def plan_timed(self, tracer, memory) -> tuple[object, list[float]]:
        """``plan()`` with default arguments: the plan and its ``plan_ms``."""
        with tracer.span("optimizer.plan"):
            start = clock()
            chosen = plan(self.queries, self.stats, memory)
            took_ms = (clock() - start) * 1e3
        return chosen, [took_ms]

    def stream(self, warm: bool):
        """The push batches of a pass: all of them, or the warm-up's."""
        if warm:
            return self.batches[:max(1, len(self.batches) // WARM_SHARE)]
        return self.batches


# ----------------------------------------------------------------------
# netflow_batch / netflow_sharded
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _NetflowSize:
    records: int
    stats_records: int


class NetflowBatch(Workload):
    name = "netflow_batch"
    why = ("clustered paper trace, 2837 groups, one raw ABCD probe per "
           "record and almost no evictions: engine and native ingest do "
           "nearly all the work, HFTA, planner and service almost none")
    FULL = _NetflowSize(2_000_000, 200_000)
    CHECK = _NetflowSize(60_000, 20_000)
    GROUP_BYS = ("AB", "BC", "BD", "CD")
    EPOCH_SECONDS = 5.0
    MEMORY = 40_000

    def set_up(self) -> None:
        self.data = paper_like_trace(n_records=self.size.records,
                                     seed=self.seed)
        self.queries = QuerySet.counts(self.GROUP_BYS,
                                       epoch_seconds=self.EPOCH_SECONDS)
        start = clock()
        self.stats = measure_statistics(
            self.data.head(self.size.stats_records),
            FeedingGraph(self.queries).nodes, flow_timeout=1.0)
        self.stats_s = clock() - start
        self.warm = self.data.head(len(self.data) // WARM_SHARE)
        self.run_pass(NullTracer(), warm=True)

    def build(self, data, chosen):
        return StreamSystem.from_plan(data, self.queries, chosen)

    def run_system(self, system, tracer):
        if tracer.enabled:
            self.registry = MetricsRegistry()
            return system.run(registry=self.registry)
        return system.run()

    def system_facts(self, system, tracer) -> dict:
        return {"registry.engine_s": self.registry.span_seconds("engine")}

    def run_pass(self, tracer, warm: bool = False) -> PassResult:
        data = self.warm if warm else self.data
        ops = Ops()
        chosen, plan_ms = self.plan_timed(tracer, self.MEMORY)
        start = clock()
        with tracer.span("runtime.run"):
            system = ops(self.build, data, chosen)
            report = ops(self.run_system, system, tracer) \
                if system is not None else None
        answers = {}
        if report is not None:
            with tracer.span("runtime.answers"):
                for query in self.queries:
                    answers[query.group_by.label()] = ops(report.answers,
                                                          query)
        wall = clock() - start
        if report is None:
            return PassResult(len(data), wall, plan_ms, 0.0, ops, None, {})
        facts = {}
        if tracer.enabled:
            with tracer.paused():
                facts = {**lfta_facts([report.result.counters]),
                         **hfta_facts(report.result.hfta, self.queries,
                                      len(data)),
                         **plan_facts(chosen),
                         **self.system_facts(system, tracer)}
        return PassResult(len(data), wall, plan_ms, report.per_record_cost,
                          ops, answers, facts, state=answers)

    def verify(self, result: PassResult) -> tuple[int, int]:
        oracle = Oracle(self.data.columns, self.data.timestamps,
                        self.EPOCH_SECONDS)
        attempted = failed = 0
        for query in self.queries:
            got = (result.state or {}).get(query.group_by.label())
            a, f = oracle.check(tuple(query.group_by), got or {},
                                oracle.epochs)
            attempted, failed = attempted + a, failed + f
        return attempted, failed


class NetflowSharded(NetflowBatch):
    name = "netflow_sharded"
    why = ("same stream, plan and queries through 2 shards: partition, "
           "shard shipping and merge dominate here and are absent from "
           "netflow_batch, so an executor change shows here and only here")
    SHARDS = 2

    def build(self, data, chosen):
        return ShardedStreamSystem.from_plan(data, self.queries, chosen,
                                             shards=self.SHARDS)

    def run_system(self, system, tracer):
        return system.run()

    def system_facts(self, system, tracer) -> dict:
        """Phase times and balance from the system's public reports."""
        registry = system.registry
        for name in ("partition", "engine", "merge"):
            span = registry.last_span(name)
            if span is not None:
                tracer.add_span(f"sharded.{name}", span.start, span.end,
                                "runtime.run")
        timings = system.last_timings or {}
        summary = system.partition_summary or {}
        resilience = system.resilience_report
        return {
            "partition.s": timings.get("partition_seconds", 0.0),
            "partition.records": sum(summary.get("records", ())),
            "partition.imbalance": summary.get("imbalance", 0.0),
            "sharded.engine_s": timings.get("engine_seconds", 0.0),
            "sharded.merge_s": timings.get("merge_seconds", 0.0),
            "sharded.shards": system.shards,
            "sharded.retries": resilience.total_retries if resilience else 0,
            "sharded.fallbacks":
                resilience.total_fallbacks if resilience else 0,
            # Shard workers are other processes: their engine time
            # reaches the parent only through the registries they ship.
            "engine.simulate_s": sum(
                span.seconds for span in registry.spans
                if span.name.startswith("shard")
                and span.name.endswith(".engine")),
            "engine.simulate_calls": len(system.shard_results or ()),
        }


# ----------------------------------------------------------------------
# highcard_live
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LiveSize:
    chain: tuple[int, ...]
    records: int
    epochs: int
    batch: int
    memory: int
    stats_records: int


class HighcardLive(Workload):
    name = "highcard_live"
    why = ("uniform high-cardinality stream, g/b >> 1: evictions cascade "
           "and the HFTA (ingest, epoch fold, answer rendering, "
           "checkpoint of the same state) dominates, the ingest kernel "
           "is a minor share")
    FULL = _LiveSize((500, 3_000, 6_250, 10_000), 250_000, 100, 2_048,
                     10_000, 50_000)
    CHECK = _LiveSize((50, 300, 625, 1_000), 12_000, 24, 256, 2_000, 4_000)
    GROUP_BYS = ("AB", "BC", "BD", "CD")
    VALUE = "len"

    def set_up(self) -> None:
        size = self.size
        schema = StreamSchema(("A", "B", "C", "D"),
                              value_columns=(self.VALUE,))
        universe = make_group_universe(schema, size.chain, seed=self.seed)
        raw = uniform_dataset(universe, size.records,
                              duration=float(size.epochs),
                              seed=self.seed + 1, zipf_exponent=0.0,
                              value_column=self.VALUE)
        # Packet lengths are whole bytes; integral values also make every
        # float64 sum exact, so the oracle can demand equality.
        self.data = Dataset(schema, raw.columns, raw.timestamps,
                            {self.VALUE: np.rint(raw.values[self.VALUE])})
        avg = Aggregate("avg", self.VALUE)
        self.queries = QuerySet([
            AggregationQuery(AttributeSet.parse(gb), avg, epoch_seconds=1.0,
                             having_min=2 if gb == "AB" else None)
            for gb in self.GROUP_BYS])
        start = clock()
        self.stats = measure_statistics(
            self.data.head(size.stats_records),
            FeedingGraph(self.queries).nodes, counters=2)
        self.stats_s = clock() - start
        self.batches = batches_of(self.data, size.batch, self.VALUE)
        self.run_pass(NullTracer(), warm=True)

    def render(self, live, reports) -> int:
        groups = 0
        for report in reports:
            for query in self.queries:
                groups += len(live.hfta.query_answer(query, report.epoch))
        return groups

    def run_pass(self, tracer, warm: bool = False) -> PassResult:
        batches = self.stream(warm)
        records = sum(len(b[1]) for b in batches)
        ops = Ops()
        chosen, plan_ms = self.plan_timed(tracer, self.size.memory)
        registry = MetricsRegistry() if tracer.enabled else None
        close_ms: list[float] = []
        rendered = 0
        start = clock()
        live = LiveStreamSystem(self.data.schema, self.queries, chosen,
                                value_column=self.VALUE, registry=registry)
        for columns, timestamps, values in batches:
            began = clock()
            reports = ops(live.push, columns, timestamps, values)
            if reports:
                rendered += ops(self.render, live, reports) or 0
                close_ms.append((clock() - began) * 1e3)
        began = clock()
        reports = ops(live.finish)
        if reports:
            rendered += ops(self.render, live, reports) or 0
            close_ms.append((clock() - began) * 1e3)
        wall = clock() - start

        recovery_s, same = self.recover(live, ops, tracer)
        facts = {}
        if tracer.enabled:
            with tracer.paused():
                facts = {
                    **lfta_facts([era.counters for era in live.eras]),
                    **hfta_facts(live.hfta, self.queries, records),
                    **plan_facts(chosen),
                    "online.epochs": len(live.epoch_reports),
                    "checkpoint.bytes": self.checkpoint_path.stat().st_size
                    if self.checkpoint_path.exists() else 0,
                    "registry.engine_s": registry.span_seconds("engine"),
                    "registry.hfta_merge_s":
                        registry.span_seconds("hfta.merge"),
                }
        return PassResult(
            records, wall, plan_ms, live.total_intra_cost() / records, ops,
            rendered, facts, close_ms=close_ms, recovery_s=recovery_s,
            checks=(len(self.queries), len(self.queries) - same),
            state=live)

    @property
    def checkpoint_path(self) -> Path:
        return self.work_dir / f"{self.name}.ckpt"

    def recover(self, live, ops, tracer) -> tuple[float, int]:
        """checkpoint() -> restore() -> every query's answers rendered.

        Returns the timed seconds and how many queries' restored answers
        equal the originals (compared outside the timed segments)."""
        began = clock()
        path = ops(live.checkpoint, self.checkpoint_path)
        restored = ops(LiveStreamSystem.restore, path) if path else None
        seconds = clock() - began
        same = 0
        if restored is not None:
            for query in self.queries:
                began = clock()
                answers = ops(restored.answers, query)
                seconds += clock() - began
                with tracer.paused():
                    same += answers is not None and \
                        answers == live.answers(query)
        return seconds, same

    def verify(self, result: PassResult) -> tuple[int, int]:
        live = result.state
        oracle = Oracle(self.data.columns, self.data.timestamps, 1.0,
                        self.data.values[self.VALUE])
        attempted = failed = 0
        for query in self.queries:
            attrs = tuple(query.group_by)
            for epoch in oracle.epochs:
                got = {epoch: live.hfta.query_answer(query, epoch)}
                a, f = oracle.check(attrs, got, [epoch], "avg",
                                    query.having_min)
                attempted, failed = attempted + a, failed + f
        # avg answers carry no counts, so conservation is checked on the
        # epoch reports: every record is accounted to exactly one epoch.
        attempted += 1
        reported = {r.epoch: r.records for r in live.epoch_reports}
        if reported != {e: oracle.records_in(e) for e in oracle.epochs}:
            failed += 1
        return attempted, failed


# ----------------------------------------------------------------------
# service_churn
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ServiceSize:
    chain: tuple[int, ...]
    records: int
    epochs: int
    batch: int
    memory: float
    max_live: int
    answers_every: int


class ServiceChurn(Workload):
    name = "service_churn"
    why = ("tenants register and retire every epoch over 2- and "
           "3-attribute group-bys: sketches, re-planning and admission do "
           "most of the work, the ingest kernel little - a faster kernel "
           "must show no change")
    FULL = _ServiceSize((50, 400, 1_500, 4_000, 8_000, 12_000), 120_000,
                        60, 2_048, 200_000.0, 12, 20)
    CHECK = _ServiceSize((10, 40, 100, 200, 300, 400), 7_000, 14, 256,
                         50_000.0, 6, 5)
    ATTRIBUTES = "ABCDEF"
    #: The rotation of tenant group-bys: the five pairs with A and the
    #: ten triples without it, interleaved. No set contains another, on
    #: purpose: a query whose group-by contains another live query's
    #: feeds it in the plan, and the engine ships only leaf relations to
    #: the HFTA, so its answers come back empty (defect found by this
    #: benchmark's oracle; see the README). Workloads must not fail.
    GROUP_BYS = ("AB", "BCD", "BCE", "AC", "BCF", "BDE", "AD", "BDF", "BEF",
                 "AE", "CDE", "CDF", "AF", "CEF", "DEF")
    INITIAL_TENANTS = 4

    def set_up(self) -> None:
        size = self.size
        schema = StreamSchema(tuple(self.ATTRIBUTES))
        universe = make_group_universe(schema, size.chain, seed=self.seed)
        self.data = uniform_dataset(universe, size.records,
                                    duration=float(size.epochs),
                                    seed=self.seed + 1, zipf_exponent=0.8)
        self.batches = batches_of(self.data, size.batch, None)
        self.run_pass(NullTracer(), warm=True)

    def run_pass(self, tracer, warm: bool = False) -> PassResult:
        size = self.size
        batches = self.stream(warm)
        records = sum(len(b[1]) for b in batches)
        ops = Ops()
        service = StreamService(self.data.schema, memory=size.memory)
        live_tenants: list[str] = []
        #: tenant -> [group-by, first epoch or None, end epoch or None]
        leases: dict[str, list] = {}
        register_ms: list[float] = []
        close_ms: list[float] = []
        open_epoch = None

        def register(timed: bool) -> None:
            index = len(leases)
            tenant = f"tenant{index}"
            group_by = self.GROUP_BYS[index % len(self.GROUP_BYS)]
            query = AggregationQuery(AttributeSet.parse(group_by),
                                     epoch_seconds=1.0)
            began = clock()
            done = ops(service.register, tenant, query)
            if timed:
                register_ms.append((clock() - began) * 1e3)
            if done is not None:
                # A change staged while an epoch is open lands at the
                # next boundary.
                first = None if open_epoch is None else open_epoch + 1
                leases[tenant] = [group_by, first, None]
                live_tenants.append(tenant)

        def ask_everyone() -> None:
            for tenant in live_tenants:
                ops(service.answers, tenant)

        for _ in range(self.INITIAL_TENANTS):
            register(timed=False)
        closed = 0
        start = clock()
        for columns, timestamps, _ in batches:
            began = clock()
            reports = ops(service.push, columns, timestamps)
            took = (clock() - began) * 1e3
            open_epoch = int(timestamps[-1] // 1.0)
            if not reports:
                continue
            close_ms.append(took)
            for _ in reports:
                closed += 1
                register(timed=True)
                if len(live_tenants) > size.max_live:
                    oldest = live_tenants.pop(0)
                    if ops(service.retire, oldest) is not None:
                        leases[oldest][2] = open_epoch + 1
                if closed % size.answers_every == 0:
                    ask_everyone()
        began = clock()
        ops(service.finish)
        close_ms.append((clock() - began) * 1e3)
        ask_everyone()
        wall = clock() - start

        live = service.live
        facts = {}
        if tracer.enabled:
            with tracer.paused():
                facts = self.facts(service, ops, records)
        return PassResult(
            records, wall, self.replan_ms(service),
            live.total_intra_cost() / records, ops,
            (len(leases), len(live.epoch_reports)), facts,
            close_ms=close_ms, register_ms=register_ms,
            state=(service, leases))

    def facts(self, service, ops, records: int) -> dict:
        live, metrics = service.live, service.metrics
        # One forced re-plan of the final query set, for the plan facts.
        target = service.registry.physical_query_set()
        out = ops(service.replanner.replan, target,
                  service.planning_statistics(target), token=None)
        every_group_by = [
            AggregationQuery(AttributeSet.parse(gb), epoch_seconds=1.0)
            for gb in self.GROUP_BYS]
        return {
            **lfta_facts([era.counters for era in live.eras]),
            **hfta_facts(live.hfta, every_group_by, records),
            **(plan_facts(out[0]) if out is not None else {}),
            "online.epochs": len(live.epoch_reports),
            "service.reconfigurations": len(live.reconfigurations),
            "replan.cache_hits":
                counter_value(metrics, "service.replan_cache_hits"),
            "admission.rejections":
                counter_value(metrics, "service.rejections"),
            "registry.engine_s": metrics.span_seconds("engine"),
            "registry.hfta_merge_s": metrics.span_seconds("hfta.merge"),
        }

    def replan_ms(self, service) -> list[float]:
        """Mean re-plan latency of the pass, from the replanner's own
        ``service.replan_seconds`` histogram (about two re-plans per
        epoch, each over a different query set, so one seed's hard or
        easy final set does not decide the number)."""
        histogram = service.metrics.histograms.get("service.replan_seconds")
        if histogram is None or not histogram.count:
            return []
        return [1e3 * histogram.total / histogram.count]

    def verify(self, result: PassResult) -> tuple[int, int]:
        service, leases = result.state
        oracle = Oracle(self.data.columns, self.data.timestamps, 1.0)
        attempted = failed = 0
        for tenant, (group_by, first, end) in leases.items():
            epochs = [e for e in oracle.epochs
                      if (first is None or e >= first)
                      and (end is None or e < end)]
            attempted += 1
            try:
                got = service.answers(tenant)
            except Exception:
                failed += 1
                continue
            a, f = oracle.check(tuple(group_by), got.get(group_by, {}),
                                epochs)
            attempted, failed = attempted + a, failed + f
        return attempted, failed


WORKLOADS = {w.name: w for w in (NetflowBatch, HighcardLive, ServiceChurn,
                                 NetflowSharded)}
