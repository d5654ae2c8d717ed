"""An end-to-end live pipeline: SQL in, self-correcting execution, answers out.

Puts the deployment-facing pieces together:

1. queries are written in the paper's GSQL dialect and parsed;
2. the first plan comes from exact statistics of a short prefix of the
   stream (the first 2 seconds);
3. the stream then arrives in irregular batches; the
   :class:`LiveStreamSystem` closes epochs as their boundaries pass and
   compares each epoch's measured cost per record with what the plan
   predicted. Halfway through the trace a scan widens the group
   structure by an order of magnitude, the ratio jumps far past its
   calm level, and the system re-plans from the epoch it just saw.
"""

import numpy as np

from repro import MetricsRegistry, StreamSchema, plan
from repro.core.feeding_graph import FeedingGraph
from repro.core.sql import parse_queries
from repro.gigascope.online import REPLAN_FACTOR, LiveStreamSystem
from repro.gigascope.records import Dataset
from repro.workloads import (
    NetflowTraceGenerator,
    make_group_universe,
    measure_statistics,
    uniform_dataset,
)

SCHEMA = StreamSchema(("srcIP", "srcPort", "dstIP", "dstPort"))

SQL = [
    "select srcIP, count(*) from packets group by srcIP, time/5 "
    "having count(*) > 500",
    "select srcIP, dstIP, count(*) from packets "
    "group by srcIP, dstIP, time/5",
    "select dstIP, dstPort, count(*) from packets "
    "group by dstIP, dstPort, time/5",
]


def build_stream(seed: int = 5) -> Dataset:
    """30s of calm flow traffic followed by 30s including a scan."""
    calm_universe = make_group_universe(SCHEMA, (80, 300, 500, 700),
                                        seed=seed)
    calm = NetflowTraceGenerator(calm_universe, mean_flow_length=60) \
        .generate(120_000, duration=30.0, seed=seed + 1)
    scan_universe = make_group_universe(SCHEMA, (3000, 9000, 15_000, 22_000),
                                        seed=seed + 2)
    scan_raw = uniform_dataset(scan_universe, 120_000, duration=30.0,
                               seed=seed + 3)
    scan = Dataset(SCHEMA, scan_raw.columns, scan_raw.timestamps + 30.0)
    columns = {a: np.concatenate([calm.columns[a], scan.columns[a]])
               for a in SCHEMA.attributes}
    times = np.concatenate([calm.timestamps, scan.timestamps])
    return Dataset(SCHEMA, columns, times)


def main() -> None:
    queries = parse_queries(SQL)
    print("queries:")
    for text in SQL:
        print(f"  {text}")

    stream = build_stream()
    prefix = stream.head(int(np.searchsorted(stream.timestamps, 2.0)))
    stats = measure_statistics(prefix, FeedingGraph(queries).nodes)
    first_plan = plan(queries, stats, memory=25_000)
    print(f"\ninitial plan (from the 2 s prefix): {first_plan.configuration}")

    registry = MetricsRegistry()
    live = LiveStreamSystem(SCHEMA, queries, first_plan, registry=registry)
    rng = np.random.default_rng(1)
    position = 0
    while position < len(stream):
        size = int(rng.integers(5_000, 20_000))
        end = min(position + size, len(stream))
        live.push({a: stream.columns[a][position:end]
                   for a in SCHEMA.attributes},
                  stream.timestamps[position:end])
        position = end
    live.finish()

    print(f"\nepochs processed : {len(live.epoch_reports)}")
    print("per-epoch cost/record, measured vs predicted (watch the ratio "
          "jump at the scan, then settle under the new plan):")
    for report in live.epoch_reports:
        phantoms = len(report.configuration.phantoms)
        print(f"  epoch {report.epoch:2d}: {report.per_record_cost:7.2f} "
              f"/ {report.predicted_cost:6.2f} = "
              f"{report.per_record_cost / report.predicted_cost:6.2f}  "
              f"({phantoms} phantom(s))")
    replans = [e.fields for e in registry.events if e.name == "replan"]
    print(f"\nre-plans: {len(replans)}")
    for event in replans:
        print(f"  after epoch {event['epoch']}: ratio {event['ratio']:.2f} "
              f"left {REPLAN_FACTOR:g}x of its era's baseline "
              f"{event['baseline']:.2f}")
    for epoch, config in live.reconfigurations:
        print(f"  from epoch {epoch}: {config}")
    records = sum(r.records for r in live.epoch_reports)
    print(f"cost/record over the run: {live.total_intra_cost() / records:.3f}")

    heavy = queries.query_for(
        next(g for g in queries.group_bys if len(g) == 1))
    flagged = {epoch: answers
               for epoch, answers in live.answers(heavy).items() if answers}
    print(f"\nheavy-hitter epochs: {sorted(flagged) or 'none'}")


if __name__ == "__main__":
    main()
