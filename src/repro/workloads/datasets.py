"""Measuring optimizer statistics from datasets.

Bridges the substrate and the optimizer: exact group counts per relation,
and flow lengths for clustered data via two estimators —

* **gap-based segmentation** (:func:`flow_count`): records of one group
  whose inter-arrival gap exceeds a timeout belong to different flows (the
  standard netflow definition, the paper's "derived temporally"). This is
  the one definition of a flow in the repo;
* **probe-table calibration** (:func:`calibrated_flow_length`): run the
  projection through a real hash table and invert Eq. 15 — the paper's
  "maintaining the number of times hash table bucket entries are updated
  before being evicted".

:func:`measure_statistics`, the planner's input, computes a relation's
group count and gap-based flow count in one pass through the native
library's group table (:func:`repro.native.partition.group_stats`), the
one body of both counts: ``Dataset.group_count`` and :func:`flow_count`
call it too, and the test suite holds it to a numpy reference.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.collision.precise import precise_rate
from repro.core.configuration import Configuration
from repro.core.statistics import RelationStatistics
from repro.gigascope.engine import simulate
from repro.gigascope.hashing import pack_tuples
from repro.gigascope.records import Dataset
from repro.native import partition as _native

__all__ = ["flow_count", "mean_flow_length", "calibrated_flow_length",
           "measure_statistics", "one_record_per_flow"]


def _flow_heads(dataset: Dataset, attrs: AttributeSet,
                timeout: float) -> tuple[np.ndarray, np.ndarray]:
    """The one flow rule: the records in (group, time) order, and which
    of them opens a flow. A record continues a flow iff the record
    before it in that order is of its group and ``(t - previous) <=
    timeout``; every other record is the head of a new flow."""
    codes = pack_tuples([dataset.columns[a] for a in attrs])
    order = np.lexsort((dataset.timestamps, codes))
    sorted_codes = codes[order]
    sorted_times = dataset.timestamps[order]
    head = np.ones(order.shape[0], dtype=bool)
    head[1:] = ~((sorted_codes[1:] == sorted_codes[:-1])
                 & ((sorted_times[1:] - sorted_times[:-1]) <= timeout))
    return order, head


def one_record_per_flow(dataset: Dataset, attrs: AttributeSet | str,
                        timeout: float = 1.0) -> Dataset:
    """Collapse every flow to a single record (paper Section 4.2).

    The paper validates its random-data collision model by "grouping all
    packets of a flow into a single record". Flows are identified by
    gap-based segmentation at the given projection (same group, inter-packet
    gap <= timeout, :func:`flow_count`'s rule); each flow is represented by
    its first packet, and the result is re-sorted into arrival order.
    """
    attrs = dataset.schema.attribute_set(attrs)
    if len(dataset) == 0:
        return dataset
    order, head = _flow_heads(dataset, attrs, timeout)
    keep = np.sort(order[head])
    return Dataset(
        dataset.schema,
        {k: v[keep] for k, v in dataset.columns.items()},
        dataset.timestamps[keep],
        {k: v[keep] for k, v in dataset.values.items()},
    )


def flow_count(dataset: Dataset, attrs: AttributeSet | str,
               timeout: float = 1.0) -> int:
    """Number of flows at a projection, by gap-based segmentation:
    :func:`_flow_heads`' rule, counted by
    :func:`repro.native.partition.group_stats`."""
    attrs = dataset.schema.attribute_set(attrs)
    return _native.group_stats([dataset.columns[a] for a in attrs],
                               dataset.timestamps, timeout)[1]


def mean_flow_length(dataset: Dataset, attrs: AttributeSet | str,
                     timeout: float = 1.0) -> float:
    """Mean packets per flow at a projection (>= 1)."""
    return _mean_length(len(dataset), flow_count(dataset, attrs, timeout))


def _mean_length(records: int, flows: int) -> float:
    if flows == 0:
        return 1.0
    return max(records / flows, 1.0)


def calibrated_flow_length(dataset: Dataset, attrs: AttributeSet | str,
                           buckets: int | None = None,
                           salt_seed: int = 0) -> float:
    """Invert Eq. 15 against a probe table's measured collision rate.

    Runs the projection through a single direct-mapped table of ``buckets``
    buckets (default: one per group, i.e. ``g/b = 1``) as one epoch; the
    effective flow length is ``x_random(g, b) / x_measured``, the factor by
    which clusteredness suppresses collisions at this table size.
    """
    attrs = dataset.schema.attribute_set(attrs)
    n = len(dataset)
    if n == 0:
        return 1.0
    g = dataset.group_count(attrs)
    b = int(buckets) if buckets is not None else max(g, 1)
    config = Configuration.flat([attrs])
    horizon = float(dataset.timestamps[-1] - dataset.timestamps[0]) + 1.0
    result = simulate(dataset, config, {attrs: b}, epoch_seconds=horizon,
                      salt_seed=salt_seed)
    counters = result.counters.counters(attrs)
    if counters.evictions_intra == 0:
        return float(n)  # no collisions observed: maximally clustered
    measured = counters.evictions_intra / counters.arrivals_intra
    model = precise_rate(g, b)
    return max(model / measured, 1.0)


def measure_statistics(dataset: Dataset,
                       relations: Iterable[AttributeSet | str],
                       flow_timeout: float | None = None,
                       counters: int = 1) -> RelationStatistics:
    """Exact group counts (and optionally flow lengths) for relations.

    Pass ``flow_timeout`` for clustered traces to record gap-based flow
    lengths; omit it for random data (``l = 1`` everywhere). Each
    relation costs one hash pass of the native library
    (:func:`repro.native.partition.group_stats`).
    """
    groups: dict[AttributeSet, float] = {}
    flows: dict[AttributeSet, float] = {}
    for rel in relations:
        attrs = dataset.schema.attribute_set(rel)
        g, n_flows = _native.group_stats(
            [dataset.columns[a] for a in attrs], dataset.timestamps,
            flow_timeout)
        groups[attrs] = float(g)
        if flow_timeout is not None:
            flows[attrs] = _mean_length(len(dataset), n_flows)
    return RelationStatistics(groups, flows, counters=counters)
