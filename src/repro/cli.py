"""``repro-plan`` — plan a workload from SQL and a captured trace.

The operator-facing front door, composing the whole library::

    repro-plan --memory 40000 --data trace.npz \\
        "select srcIP, count(*) from packets group by srcIP, time/60" \\
        "select srcIP, dstIP, count(*) from packets group by srcIP, dstIP, time/60"

reads the queries (the paper's GSQL dialect, WHERE supported), measures
statistics from the dataset (``.npz`` or ``.csv`` as written by
:mod:`repro.workloads.io`), runs the optimizer, and prints the plan with
its per-relation EXPLAIN breakdown — optionally executing it
(``--execute``) to report measured costs and the sustainable stream rate.
``--metrics-json PATH`` writes a :class:`~repro.observability.RunManifest`
(plan, counters, per-shard phase spans, git SHA) and ``--trace`` prints
the recorded phase spans; both imply ``--execute``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.cost_model import CostParameters
from repro.core.explain import explain
from repro.core.feeding_graph import FeedingGraph
from repro.core.optimizer import plan
from repro.core.sql import parse_workload
from repro.errors import CheckpointError, ReproError
from repro.gigascope.load import LoadModel
from repro.gigascope.online import LiveStreamSystem
from repro.gigascope.runtime import StreamSystem, check_run
from repro.observability import MetricsRegistry, RunManifest
from repro.parallel import ShardedStreamSystem
from repro.workloads.datasets import measure_statistics
from repro.workloads.io import load_csv, load_npz

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Plan (and optionally execute) a multi-aggregation "
                    "workload over a captured stream.")
    parser.add_argument("queries", nargs="+",
                        help="aggregation queries in the GSQL dialect")
    parser.add_argument("--data", required=True,
                        help="dataset file (.npz or .csv)")
    parser.add_argument("--memory", type=float, default=40_000,
                        help="LFTA budget in 4-byte units (default 40000)")
    parser.add_argument("--algorithm", default="gcsl",
                        choices=["gcsl", "gcpl", "gs", "epes", "none"])
    parser.add_argument("--phi", type=float, default=1.0,
                        help="phi for --algorithm gs")
    parser.add_argument("--evict-cost", type=float, default=50.0,
                        help="c2/c1 ratio (default 50, the paper's)")
    parser.add_argument("--peak-load", type=float, default=None,
                        help="bound on the end-of-epoch cost E_u")
    parser.add_argument("--flow-timeout", type=float, default=None,
                        help="measure flow lengths with this gap timeout "
                             "(clustered traces)")
    parser.add_argument("--value-columns", default="",
                        help="comma-separated float columns when loading "
                             "CSV")
    parser.add_argument("--execute", action="store_true",
                        help="also stream the dataset through the plan")
    parser.add_argument("--shards", type=int, default=1,
                        help="run --execute on N LFTA shards, in-process, "
                             "hash-partitioned on the full group key "
                             "(default 1: unsharded)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="execute incrementally through the live "
                             "runtime, checkpointing after every batch "
                             "and resuming from DIR's snapshot when one "
                             "exists; implies --execute, single-core")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write a RunManifest JSON (plan, counters, "
                             "per-shard phase spans, git SHA) to PATH; "
                             "implies --execute")
    parser.add_argument("--trace", action="store_true",
                        help="print the recorded phase spans after "
                             "execution; implies --execute")
    return parser


def _load_dataset(path_text: str, value_columns: tuple[str, ...]):
    path = Path(path_text)
    if not path.exists():
        raise ReproError(f"no such dataset file: {path}")
    if path.suffix == ".npz":
        return load_npz(path)
    if path.suffix == ".csv":
        return load_csv(path, value_columns)
    raise ReproError(f"unsupported dataset format {path.suffix!r} "
                     "(use .npz or .csv)")


#: Batches per checkpointed run — one snapshot is written after each.
_CHECKPOINT_BATCHES = 16


def _check_resumable(live: LiveStreamSystem, ckpt: Path, dataset,
                     queries) -> None:
    """Refuse a snapshot that another workload or dataset wrote."""
    if list(live.queries) != list(queries):
        mismatch = (f"queries {[str(q) for q in live.queries]}, this run "
                    f"asks for {[str(q) for q in queries]}")
    elif tuple(live.schema.attributes) != tuple(dataset.schema.attributes):
        mismatch = (f"schema attributes {list(live.schema.attributes)}, "
                    f"the dataset has {list(dataset.schema.attributes)}")
    elif live.records_seen > len(dataset):
        mismatch = (f"{live.records_seen} ingested records, the dataset "
                    f"has {len(dataset)}")
    else:
        return
    raise CheckpointError(
        f"checkpoint {ckpt} belongs to another run: it holds {mismatch}")


def _execute_checkpointed(dataset, queries, the_plan, params, value_column,
                          where, registry, checkpoint_dir) -> LiveStreamSystem:
    """Stream through the live runtime, snapshotting as we go.

    Resumes from ``checkpoint_dir/live.ckpt`` when one exists: the
    snapshot's ``records_seen`` is the replay offset into the dataset,
    and the restored state already holds the open epoch's buffer — so a
    killed run re-invoked with the same arguments finishes with answers
    byte-identical to an uninterrupted one.
    """
    ckpt = Path(checkpoint_dir) / "live.ckpt"
    if ckpt.exists():
        live = LiveStreamSystem.restore(ckpt, registry=registry)
        _check_resumable(live, ckpt, dataset, queries)
        print(f"resuming from {ckpt} "
              f"({live.records_seen} records already ingested)")
    else:
        live = LiveStreamSystem(dataset.schema, queries, the_plan,
                                params=params, value_column=value_column,
                                where=where, registry=registry)
    start = live.records_seen
    n = len(dataset)
    step = max(1, (n + _CHECKPOINT_BATCHES - 1) // _CHECKPOINT_BATCHES)
    for pos in range(start, n, step):
        end = min(n, pos + step)
        cols = {a: dataset.columns[a][pos:end]
                for a in dataset.schema.attributes}
        vals = (dataset.values[value_column][pos:end]
                if value_column else None)
        live.push(cols, dataset.timestamps[pos:end], vals)
        live.checkpoint(ckpt)
    live.finish()
    live.checkpoint(ckpt)
    print(f"checkpoint        : {ckpt}")
    return live


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.checkpoint_dir is not None and args.shards > 1:
        parser.error("--checkpoint-dir runs the single-core live "
                     "runtime; drop --shards")
    try:
        value_columns = tuple(
            v for v in args.value_columns.split(",") if v)
        dataset = _load_dataset(args.data, value_columns)
        queries, where = parse_workload(args.queries)
        # The run's one value column, if any query reads one.
        value_column = next((q.aggregate.column for q in queries
                             if q.aggregate.column), None)
        check_run(dataset.schema, queries, value_column=value_column,
                  where=where)
        graph = FeedingGraph(queries)
        stats = measure_statistics(dataset, graph.nodes,
                                   flow_timeout=args.flow_timeout,
                                   counters=2 if value_column else 1)
        params = CostParameters(1.0, args.evict_cost)
        the_plan = plan(queries, stats, args.memory, params,
                        algorithm=args.algorithm, phi=args.phi,
                        peak_load_limit=args.peak_load)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"stream: {len(dataset)} records, "
          f"{dataset.duration:.1f}s, {len(queries)} queries, "
          f"{len(graph.phantoms)} candidate phantoms")
    if where is not None:
        print(f"where: {where}")
    print()
    print(explain(the_plan, stats, params).render())

    if args.execute or args.metrics_json or args.trace or \
            args.checkpoint_dir:
        registry = MetricsRegistry()
        system = None
        live = None
        report = None
        try:
            if args.checkpoint_dir is not None:
                live = _execute_checkpointed(
                    dataset, queries, the_plan, params, value_column,
                    where, registry, args.checkpoint_dir)
            elif args.shards > 1:
                system = ShardedStreamSystem.from_plan(
                    dataset, queries, the_plan, params=params,
                    value_column=value_column, where=where,
                    shards=args.shards, registry=registry)
                report = system.run()
            else:
                system = StreamSystem.from_plan(dataset, queries, the_plan,
                                                params=params,
                                                value_column=value_column,
                                                where=where)
                report = system.run(registry=registry)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print()
        if live is not None:
            print(f"records processed : {live.records_seen}")
            print(f"epochs            : {len(live.epoch_reports)}")
            print(f"intra-epoch cost  : {live.total_intra_cost():.0f}")
            print(f"end-of-epoch cost : {live.total_flush_cost():.0f}")
        else:
            if args.shards > 1:
                print(f"shards            : {args.shards}")
            print(report.summary())
            rate = LoadModel(params=params).sustainable_rate(
                report.per_record_cost)
            print(f"sustainable rate  : {rate / 1e6:.2f}M records/s "
                  "(at 200ns/probe)")
        if args.trace:
            print()
            print("trace (phase spans):")
            for span in registry.spans:
                print(f"  {span.name:<28} {span.seconds * 1e3:10.3f} ms")
        if args.metrics_json:
            manifest = RunManifest.collect(
                report, plan=the_plan, queries=queries, registry=registry,
                shard_results=getattr(system, "shard_results", None),
                shard_registries=getattr(system, "shard_registries", None),
                epoch_reports=(live.epoch_reports if live else None),
                reconfigurations=(live.reconfigurations if live else None),
                extra=({"partition": system.partition_summary}
                       if getattr(system, "partition_summary", None)
                       is not None else None))
            out_path = manifest.write(args.metrics_json)
            print(f"metrics manifest  : {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
