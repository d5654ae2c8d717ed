"""Figure 5 — collision rates of real data vs. the rough and precise models.

The paper removes clusteredness from the real trace ("grouped all packets of
a flow into a single record"), extracts datasets with 1-4 attributes, and
measures hash-table collision rates over a range of ``g/b``, comparing with
Eq. 10 (rough) and Eq. 13 (precise). The paper reports > 95% of measured
points within 5% of the precise model, with the rough model diverging for
small ``g/b``.

We reproduce this with the netflow-like trace: collapse flows, project to
``A``, ``AB``, ``ABC``, ``ABCD``, stream each projection through a single
direct-mapped table sized for each target ratio, and report the measured
collision rate next to both models.
"""

from __future__ import annotations


from repro.core.attributes import AttributeSet
from repro.core.collision import precise_rate, rough_rate
from repro.core.configuration import Configuration
from repro.experiments.common import (
    ExperimentResult,
    FULL_TRACE_RECORDS,
    Series,
    netflow_stream,
    record_count,
)
from repro.gigascope.engine import simulate
from repro.workloads.datasets import one_record_per_flow

__all__ = ["run"]

PROJECTIONS = ("A", "AB", "ABC", "ABCD")
DEFAULT_RATIOS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)


def measured_collision_rate(dataset, attrs: AttributeSet,
                            buckets: int) -> float:
    """Collision rate of one table over the whole stream as a single epoch."""
    config = Configuration.flat([attrs])
    horizon = dataset.duration + 1.0
    result = simulate(dataset, config, {attrs: buckets},
                      epoch_seconds=horizon)
    counters = result.counters.counters(attrs)
    if counters.arrivals_intra == 0:
        return 0.0
    return counters.evictions_intra / counters.arrivals_intra


def run(full_scale: bool = False, seed: int = 0,
        ratios: tuple[float, ...] = DEFAULT_RATIOS) -> ExperimentResult:
    n = record_count(full_scale, FULL_TRACE_RECORDS)
    trace = netflow_stream(n, seed=seed)

    series = [
        Series("rough model", tuple(ratios),
               tuple(rough_rate(r * 1000, 1000) for r in ratios)),
        Series("precise model", tuple(ratios),
               tuple(precise_rate(r * 1000, 1000) for r in ratios)),
    ]
    worst_gap = 0.0
    within = 0
    total = 0
    for label in PROJECTIONS:
        attrs = AttributeSet.parse(label)
        # The paper's clusteredness removal, per extracted dataset: one
        # record per flow at this projection's granularity.
        collapsed = one_record_per_flow(trace, attrs)
        g = collapsed.group_count(attrs)
        measured = []
        for ratio in ratios:
            buckets = max(int(round(g / ratio)), 1)
            x = measured_collision_rate(collapsed, attrs, buckets)
            measured.append(x)
            model = precise_rate(g, buckets)
            if model > 0.02:
                total += 1
                gap = abs(x - model) / model
                worst_gap = max(worst_gap, gap)
                if gap <= 0.05:
                    within += 1
        series.append(Series(f"measured, {len(attrs)} attribute(s)",
                             tuple(ratios), tuple(measured)))
    notes = [
        f"{within}/{total} measured points within 5% of the precise model "
        f"(paper: >95%); worst gap {worst_gap:.1%}",
        "rough model diverges at small g/b, converges for large g/b "
        "(paper Sec. 4.2)",
    ]
    return ExperimentResult(
        "fig5", "Collision rates of real(-like) data vs. models",
        "g/b", "collision rate", series, notes)
