"""Metric names, units and directions, and how the layer table is built.

Two tables. ``END_TO_END`` lists what a user of the system sees; the
first five exist on every workload and carry regression bounds in
``BENCHMARK.json``, the rest exist only where the workload has the
operation (no live system, no epoch close). ``PER_LAYER`` lists what the
traced pass attributes to single modules, named ``layer.metric``.

``BENCHMARK.json`` must agree with these tables; ``run.py --check``
asserts it.
"""

from __future__ import annotations

import statistics

import numpy as np

__all__ = ["END_TO_END", "EVERY_WORKLOAD", "ONLY_ON", "PER_LAYER",
           "layer_metrics", "median", "percentile", "spread"]

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "records_per_s": ("1/s", "higher"),
    "plan_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cost_per_record": ("c1/record", "lower"),
    "epoch_close_p50_ms": ("ms", "lower"),
    "epoch_close_p95_ms": ("ms", "lower"),
    "register_p50_ms": ("ms", "lower"),
    "register_p95_ms": ("ms", "lower"),
    "recovery_s": ("s", "lower"),
    "failed_share": ("%", "lower"),
}

#: The end-to-end metrics every workload reports (the bounded ones).
EVERY_WORKLOAD = ("setup_s", "records_per_s", "plan_ms", "peak_rss_mb",
                  "cost_per_record")

#: The ones only some workloads have: absent elsewhere, not zero.
ONLY_ON = {
    "epoch_close_p50_ms": ("highcard_live", "service_churn"),
    "epoch_close_p95_ms": ("highcard_live", "service_churn"),
    "register_p50_ms": ("service_churn",),
    "register_p95_ms": ("service_churn",),
    "recovery_s": ("highcard_live",),
}

#: name -> (unit, better). Counts that explain ``cost_per_record``
#: (``lfta.*``, ``hfta.rows_*``) must not move under a performance PR.
PER_LAYER = {
    "stats.measure_s": ("s", "lower"),
    "optimizer.plan_s": ("s", "lower"),
    "optimizer.plan_calls": ("count", "lower"),
    "optimizer.relations": ("count", "lower"),
    "optimizer.predicted_cost_per_record": ("c1/record", "lower"),
    "sketches.observe_s": ("s", "lower"),
    "sketches.observe_calls": ("count", "lower"),
    "sketches.records": ("count", "lower"),
    "sketches.share": ("%", "lower"),
    "replan.s": ("s", "lower"),
    "replan.calls": ("count", "lower"),
    "replan.cache_hits": ("count", "higher"),
    "replan.hit_ratio": ("%", "higher"),
    "admission.check_s": ("s", "lower"),
    "admission.checks": ("count", "lower"),
    "admission.rejections": ("count", "lower"),
    "service.reconfigurations": ("count", "lower"),
    "service.register_self_s": ("s", "lower"),
    "service.retire_self_s": ("s", "lower"),
    "service.push_s": ("s", "lower"),
    "service.push_calls": ("count", "lower"),
    "service.answers_s": ("s", "lower"),
    "service.answers_calls": ("count", "lower"),
    "online.push_self_s": ("s", "lower"),
    "online.push_calls": ("count", "lower"),
    "online.epochs": ("count", "lower"),
    "engine.simulate_s": ("s", "lower"),
    "engine.simulate_calls": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "native_ingest.s": ("s", "lower"),
    "native_ingest.calls": ("count", "lower"),
    "native_ingest.rows_in": ("count", "lower"),
    "native_ingest.available": ("count", "higher"),
    "lfta.probes": ("count", "lower"),
    "lfta.evictions_intra": ("count", "lower"),
    "lfta.evictions_flush": ("count", "lower"),
    "lfta.collision_rate": ("%", "lower"),
    "hfta.rows_in": ("count", "lower"),
    "hfta.rows_per_record": ("rows/record", "lower"),
    "hfta.ingest_s": ("s", "lower"),
    "hfta.ingest_calls": ("count", "lower"),
    "hfta.finalize_s": ("s", "lower"),
    "hfta.folds": ("count", "lower"),
    "hfta.rows_folded": ("count", "lower"),
    "native_merge.s": ("s", "lower"),
    "native_merge.calls": ("count", "lower"),
    "native_merge.rows": ("count", "lower"),
    "hfta.answer_s": ("s", "lower"),
    "hfta.answer_calls": ("count", "lower"),
    "hfta.answer_groups": ("count", "lower"),
    "hfta.groups_live": ("count", "lower"),
    "hfta.state_mb": ("MB", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.bytes": ("count", "lower"),
    "partition.s": ("s", "lower"),
    "partition.records": ("count", "lower"),
    "partition.imbalance": ("ratio", "lower"),
    "sharded.engine_s": ("s", "lower"),
    "sharded.merge_s": ("s", "lower"),
    "sharded.shards": ("count", "lower"),
    "sharded.retries": ("count", "lower"),
    "sharded.fallbacks": ("count", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.missing_targets": ("count", "lower"),
    # The end-to-end metrics only some workloads have: BENCHMARK.json
    # wants every end-to-end metric on every workload, so these ride in
    # the per-layer list (measured in the untraced passes, 0 where the
    # workload has no such operation).
    "epoch_close_p50_ms": ("ms", "lower"),
    "epoch_close_p95_ms": ("ms", "lower"),
    "register_p50_ms": ("ms", "lower"),
    "register_p95_ms": ("ms", "lower"),
    "recovery_s": ("s", "lower"),
}


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def _ratio(top, bottom, scale: float = 1.0):
    if top is None or bottom is None:
        return None
    return scale * top / bottom if bottom else 0.0


def layer_metrics(tracer, facts: dict, *, stats_s: float,
                  traced_wall_s: float, untraced_wall_s: float
                  ) -> dict[str, float | None]:
    """The per-layer table of one traced pass.

    Times and call counts come from the spans, exact counts from the
    public counters in ``facts``. A value is ``None`` when every target
    feeding it was missing at install time (the span name is unknown);
    a layer the workload never enters is known and reads 0.
    """
    spans = tracer.aggregate()

    def get(name: str, column: str):
        if name not in tracer.known:
            return None
        return spans.get(name, {}).get(column, 0)

    def added(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def fact(name: str):
        return facts.get(name, 0)

    simulate_s = get("engine.simulate", "total_s")
    if simulate_s is None:
        # The wrapper target is gone: fall back on the program's own
        # ``engine`` span, picked up through the MetricsRegistry.
        simulate_s = facts.get("registry.engine_s")
    finalize_s = get("hfta.finalize", "total_s")
    if finalize_s is None:
        finalize_s = facts.get("registry.hfta_merge_s")
    push_s = get("service.push", "total_s")
    observe_s = get("sketches.observe", "total_s")
    replans = get("replan", "calls")
    root = spans.get("bench.pass", {"total_s": 0.0, "self_s": 0.0})
    # The root's self time is the driver's own; its untimed bookkeeping
    # (already a child span) is no part of the pass.
    timed_s = root["total_s"] - \
        spans.get("bench.untimed", {"total_s": 0.0})["total_s"]

    out = {
        "stats.measure_s": stats_s,
        "optimizer.plan_s": get("optimizer.plan", "total_s"),
        "optimizer.plan_calls": get("optimizer.plan", "calls"),
        "optimizer.relations": fact("optimizer.relations"),
        "optimizer.predicted_cost_per_record":
            fact("optimizer.predicted_cost_per_record"),
        "sketches.observe_s": observe_s,
        "sketches.observe_calls": get("sketches.observe", "calls"),
        "sketches.records": get("sketches.observe", "work"),
        "sketches.share": _ratio(observe_s, push_s, 100.0),
        "replan.s": get("replan", "total_s"),
        "replan.calls": replans,
        "replan.cache_hits": fact("replan.cache_hits"),
        "replan.hit_ratio": _ratio(fact("replan.cache_hits"), replans,
                                   100.0),
        "admission.check_s": get("admission.check", "total_s"),
        "admission.checks": get("admission.check", "calls"),
        "admission.rejections": fact("admission.rejections"),
        "service.reconfigurations": fact("service.reconfigurations"),
        "service.register_self_s": get("service.register", "self_s"),
        "service.retire_self_s": get("service.retire", "self_s"),
        "service.push_s": push_s,
        "service.push_calls": get("service.push", "calls"),
        "service.answers_s": get("service.answers", "total_s"),
        "service.answers_calls": get("service.answers", "calls"),
        "online.push_self_s": added(get("online.push", "self_s"),
                                    get("online.finish", "self_s")),
        "online.push_calls": get("online.push", "calls"),
        "online.epochs": fact("online.epochs"),
        "engine.simulate_s": simulate_s,
        "engine.simulate_calls": get("engine.simulate", "calls"),
        "engine.self_s": get("engine.simulate", "self_s"),
        "native_ingest.s": get("native_ingest", "total_s"),
        "native_ingest.calls": get("native_ingest", "calls"),
        "native_ingest.rows_in": get("native_ingest", "work"),
        "native_ingest.available": fact("native_ingest.available"),
        "lfta.probes": fact("lfta.probes"),
        "lfta.evictions_intra": fact("lfta.evictions_intra"),
        "lfta.evictions_flush": fact("lfta.evictions_flush"),
        "lfta.collision_rate": 100.0 * fact("lfta.collision_rate"),
        "hfta.rows_in": fact("hfta.rows_in"),
        "hfta.rows_per_record": fact("hfta.rows_per_record"),
        "hfta.ingest_s": get("hfta.ingest", "total_s"),
        "hfta.ingest_calls": get("hfta.ingest", "calls"),
        "hfta.finalize_s": finalize_s,
        "hfta.folds": fact("hfta.folds"),
        "hfta.rows_folded": fact("hfta.rows_folded"),
        "native_merge.s": get("native_merge", "total_s"),
        "native_merge.calls": get("native_merge", "calls"),
        "native_merge.rows": get("native_merge", "work"),
        "hfta.answer_s": added(get("hfta.query_answer", "self_s"),
                               get("hfta.all_answers", "self_s")),
        "hfta.answer_calls": get("hfta.query_answer", "calls"),
        "hfta.answer_groups": get("hfta.query_answer", "work"),
        "hfta.groups_live": fact("hfta.groups_live"),
        "hfta.state_mb": fact("hfta.state_mb"),
        "checkpoint.save_s": get("checkpoint.save", "total_s"),
        "checkpoint.load_s": get("checkpoint.load", "total_s"),
        "checkpoint.bytes": fact("checkpoint.bytes"),
        "partition.s": fact("partition.s"),
        "partition.records": fact("partition.records"),
        "partition.imbalance": fact("partition.imbalance"),
        "sharded.engine_s": fact("sharded.engine_s"),
        "sharded.merge_s": fact("sharded.merge_s"),
        "sharded.shards": fact("sharded.shards"),
        "sharded.retries": fact("sharded.retries"),
        "sharded.fallbacks": fact("sharded.fallbacks"),
        "trace.coverage_pct": _ratio(timed_s - root["self_s"], timed_s,
                                     100.0),
        "trace.overhead_pct": _ratio(traced_wall_s - untraced_wall_s,
                                     untraced_wall_s, 100.0),
        "trace.missing_targets": len(tracer.missing),
    }
    # Shard workers are other processes; what they ship back wins over
    # the (empty) parent-side spans.
    for name in ("engine.simulate_s", "engine.simulate_calls"):
        if name in facts:
            out[name] = facts[name]
    return out
