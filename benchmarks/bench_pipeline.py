"""Pipelined-executor benchmark: process pool vs shared-memory pipeline.

Streams the paper's 4-query netflow-like workload through
``ShardedStreamSystem`` under the ``process`` and ``pipeline`` executors
at increasing shard counts and records the throughput of each in a
``pipeline`` section of ``benchmarks/results/pipeline.json``::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py --quick  # CI smoke

The process executor ships every shard's whole sub-dataset to a worker
by pickling it through the pool's pipe, and merges all HFTAs in a final
barrier after the last shard returns.  The pipeline executor forks one
worker per live shard, feeds each through a ring of shared-memory
columnar chunks (no per-record pickling), and merges epoch *k* while the
workers ingest epoch *k+1* — so its wall clock should beat the pool even
on a single-core host, where the pool's serialization overhead buys no
parallelism at all.

Exactness is asserted, not assumed: both executors' answers are
cross-checked against the inline serial executor before any timing is
recorded, so a merge bug fails the benchmark instead of skewing it.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import QuerySet, ShardedStreamSystem, plan
from repro.core.feeding_graph import FeedingGraph
from repro.observability import MetricsRegistry
from repro.workloads import measure_statistics, paper_like_trace

OUT = Path(__file__).resolve().parent / "results" / "pipeline.json"
DEFAULT_SHARDS = "2,4"
MEMORY = 40_000.0
EPOCH_SECONDS = 10.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Compare the process-pool and pipelined shared-memory "
                    "shard executors and write a 'pipeline' section to "
                    "benchmarks/results/pipeline.json.")
    parser.add_argument("--records", type=int, default=1_000_000,
                        help="stream length (default 1M, the paper's "
                             "synthetic scale)")
    parser.add_argument("--shards", default=DEFAULT_SHARDS,
                        help=f"comma-separated shard counts "
                             f"(default {DEFAULT_SHARDS})")
    parser.add_argument("--chunk-records", type=int, default=32768,
                        help="pipeline ring chunk size (records)")
    parser.add_argument("--ring-slots", type=int, default=4,
                        help="pipeline ring depth (chunks in flight)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per point (best is kept; "
                             "executors are interleaved rep by rep so "
                             "background load drifts hit both equally)")
    parser.add_argument("--out", type=Path, default=OUT)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 60k records, one rep")
    return parser


def _system(dataset, queries, the_plan, shards, executor, registry=None,
            **kwargs):
    return ShardedStreamSystem.from_plan(
        dataset, queries, the_plan, shards=shards, executor=executor,
        registry=registry or MetricsRegistry(), **kwargs)


def _cross_check(dataset, queries, the_plan, shards, pipeline_kwargs):
    serial = _system(dataset, queries, the_plan, shards, "serial").run()
    for executor, kwargs in (("process", {}), ("pipeline", pipeline_kwargs)):
        report = _system(dataset, queries, the_plan, shards, executor,
                         **kwargs).run()
        for query in queries:
            if report.answers(query) != serial.answers(query):
                raise AssertionError(
                    f"{executor} answers diverge from serial at "
                    f"{shards} shards for {query}")
        if report.result.counters.relations != \
                serial.result.counters.relations:
            raise AssertionError(
                f"{executor} cost counters diverge from serial at "
                f"{shards} shards")
    print(f"exactness cross-check at {shards} shards: "
          "process == pipeline == serial (answers and counters)")


def _run_once(dataset, queries, the_plan, shards, executor, **kwargs) -> dict:
    registry = MetricsRegistry()
    system = _system(dataset, queries, the_plan, shards, executor,
                     registry=registry, **kwargs)
    started = time.perf_counter()
    system.run()
    wall = time.perf_counter() - started
    engine = registry.last_span("engine")
    merge = registry.last_span("merge")
    return {
        "wall_seconds": wall,
        "engine_seconds": engine.seconds if engine else wall,
        "merge_seconds": merge.seconds if merge else 0.0,
    }


def _time_point(dataset, queries, the_plan, shards, reps,
                pipeline_kwargs) -> dict[str, dict]:
    """Best-of-``reps`` wall clock for both executors at one shard count,
    with the executors interleaved rep by rep: a slow drift in background
    load then penalizes both equally instead of whichever ran last."""
    lineup = (("process", {}), ("pipeline", pipeline_kwargs))
    for executor, kwargs in lineup:  # warmup rep, untimed
        _run_once(dataset, queries, the_plan, shards, executor, **kwargs)
    best: dict[str, dict] = {}
    for _ in range(max(1, reps)):
        for executor, kwargs in lineup:
            point = _run_once(dataset, queries, the_plan, shards, executor,
                              **kwargs)
            if executor not in best or \
                    point["wall_seconds"] < best[executor]["wall_seconds"]:
                best[executor] = point
    for point in best.values():
        point["records_per_sec"] = len(dataset) / point["wall_seconds"]
    return best


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.records = min(args.records, 60_000)
        args.reps = 1
    shard_counts = sorted({int(s) for s in args.shards.split(",") if s})
    pipeline_kwargs = {"pipeline_chunk_records": args.chunk_records,
                       "pipeline_ring_slots": args.ring_slots}

    print(f"generating netflow workload, {args.records} records...")
    dataset = paper_like_trace(n_records=args.records, seed=11)
    queries = QuerySet.counts(["AB", "BC", "BD", "CD"],
                              epoch_seconds=EPOCH_SECONDS)
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    the_plan = plan(queries, stats, MEMORY)
    print(f"plan: {the_plan}")
    _cross_check(dataset, queries, the_plan, shard_counts[-1],
                 pipeline_kwargs)

    points: dict[str, dict] = {}
    for shards in shard_counts:
        best = _time_point(dataset, queries, the_plan, shards, args.reps,
                           pipeline_kwargs)
        process, pipeline = best["process"], best["pipeline"]
        speedup = (pipeline["records_per_sec"]
                   / process["records_per_sec"])
        points[str(shards)] = {
            "process": process,
            "pipeline": pipeline,
            "pipeline_speedup_vs_process": speedup,
        }
        print(f"x{shards}: process {process['wall_seconds']:.3f}s "
              f"({process['records_per_sec'] / 1e6:.2f}M rec/s), "
              f"pipeline {pipeline['wall_seconds']:.3f}s "
              f"({pipeline['records_per_sec'] / 1e6:.2f}M rec/s), "
              f"speedup x{speedup:.2f}")

    section = {
        "records": len(dataset),
        "workload": "netflow",
        "memory": MEMORY,
        "epoch_seconds": EPOCH_SECONDS,
        "chunk_records": args.chunk_records,
        "ring_slots": args.ring_slots,
        "cpu_count": os.cpu_count(),
        "reps": args.reps,
        "quick": args.quick,
        "exactness": "answers and counters match the serial executor",
        "points": points,
    }

    document = {"schema": "bench-perf/1", "pipeline": section}
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote pipeline section -> {args.out}")

    worst = min(p["pipeline_speedup_vs_process"] for p in points.values())
    if worst <= 1.0:
        print(f"warning: pipeline did not beat the process pool at every "
              f"shard count (worst x{worst:.2f})")
        # Timing only gates full-size local runs; --quick (CI smoke on
        # shared runners) still fails on exactness, never on wall clock.
        return 0 if args.quick else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
