"""The sequential reference LFTA runtime.

Executes a configuration forest record-at-a-time, exactly as described in
the paper's Section 2: every record probes each *raw* relation's table; a
collision evicts the resident entry, which cascades as a weighted insert
into each child table (or to the HFTA from a leaf); at each epoch boundary
every table is flushed top-down. A leaf's evictions of an epoch reach
the HFTA as one batch, in eviction order, after the flush.

This implementation favours clarity over speed and is the ground truth the
vectorized engine (:mod:`repro.gigascope.engine`) is tested against. Use it
for small streams only (~10^5 records).
"""

from __future__ import annotations

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.gigascope.hash_table import DirectMappedTable
from repro.gigascope.hashing import relation_salt
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import CostCounters, SimulationResult
from repro.gigascope.records import Dataset
from repro.errors import ConfigurationError

__all__ = ["SequentialLFTA", "run_reference"]


class SequentialLFTA:
    """Record-at-a-time execution of one configuration forest."""

    def __init__(self, config: Configuration,
                 buckets: dict[AttributeSet, int],
                 salt_seed: int = 0):
        self.config = config
        self.tables: dict[AttributeSet, DirectMappedTable] = {}
        for rel in config.relations:
            b = int(buckets[rel])
            if b < 1:
                raise ConfigurationError(
                    f"relation {rel} needs at least one bucket")
            self.tables[rel] = DirectMappedTable(
                b, relation_salt(rel.label(), salt_seed))
        self.counters = CostCounters(config)
        self.hfta = HFTA()
        #: Each leaf's evictions of the open epoch, in eviction order:
        #: (group, count, sum, min, max) rows.
        self._outbox: dict[AttributeSet, list[tuple]] = {
            rel: [] for rel in config.leaves}
        self._phase = "intra"
        self._epoch = 0
        # Precompute the projection index of each child's attributes within
        # its parent's canonical name order.
        self._proj: dict[AttributeSet, tuple[int, ...]] = {}
        for rel in config.relations:
            parent = config.parent(rel)
            source = parent.names if parent is not None else None
            if source is not None:
                self._proj[rel] = tuple(source.index(n) for n in rel.names)

    # ------------------------------------------------------------------
    def _insert(self, rel: AttributeSet, group: tuple[int, ...],
                count: int, value_sum: float,
                value_min: float, value_max: float) -> None:
        counters = self.counters.counters(rel)
        if self._phase == "intra":
            counters.arrivals_intra += 1
        else:
            counters.arrivals_flush += 1
        evicted = self.tables[rel].insert(group, count, value_sum,
                                          value_min, value_max)
        if evicted is None:
            return
        if self._phase == "intra":
            counters.evictions_intra += 1
        else:
            counters.evictions_flush += 1
        self._propagate(rel, evicted.group, evicted.count,
                        evicted.value_sum, evicted.value_min,
                        evicted.value_max)

    def _propagate(self, rel: AttributeSet, group: tuple[int, ...],
                   count: int, value_sum: float,
                   value_min: float, value_max: float) -> None:
        children = self.config.children(rel)
        if not children:
            self._outbox[rel].append(
                (group, count, value_sum, value_min, value_max))
            return
        for child in children:
            child_group = tuple(group[i] for i in self._proj[child])
            self._insert(child, child_group, count, value_sum,
                         value_min, value_max)

    # ------------------------------------------------------------------
    def process_record(self, record: dict[str, int],
                       value: float | None = None) -> None:
        """Probe every raw table with one stream record."""
        self._phase = "intra"
        if value is None:
            vsum, vmin, vmax = 0.0, float("inf"), float("-inf")
        else:
            vsum = vmin = vmax = float(value)
        for rel in self.config.raw_relations:
            group = tuple(record[name] for name in rel.names)
            self._insert(rel, group, 1, vsum, vmin, vmax)

    def flush_epoch(self) -> None:
        """End-of-epoch: flush every table, raw level first, then hand
        the HFTA each leaf's evictions of the epoch as one batch."""
        self._phase = "flush"
        for rel in self.config.relations:  # topological: parents first
            counters = self.counters.counters(rel)
            for evicted in self.tables[rel].flush():
                counters.evictions_flush += 1
                self._propagate(rel, evicted.group, evicted.count,
                                evicted.value_sum, evicted.value_min,
                                evicted.value_max)
        self._phase = "intra"
        for rel, rows in self._outbox.items():
            if rows:
                groups, *partials = zip(*rows)
                self.hfta.ingest_arrays(
                    rel, self._epoch,
                    dict(zip(rel.names, np.array(groups).T)), *partials)
                rows.clear()

    def start_epoch(self, epoch: int) -> None:
        self._epoch = epoch


def run_reference(dataset: Dataset, config: Configuration,
                  buckets: dict[AttributeSet, int],
                  epoch_seconds: float,
                  value_column: str | None = None,
                  salt_seed: int = 0) -> SimulationResult:
    """Stream a dataset through the sequential LFTA; return the full result."""
    lfta = SequentialLFTA(config, buckets, salt_seed)
    names = dataset.schema.attributes
    values = dataset.values[value_column] if value_column else None
    n_epochs = 0
    for epoch_id, start, end in dataset.epoch_slices(epoch_seconds):
        n_epochs += 1
        lfta.start_epoch(epoch_id)
        for i in range(start, end):
            record = {name: int(dataset.columns[name][i]) for name in names}
            value = float(values[i]) if values is not None else None
            lfta.process_record(record, value)
        lfta.flush_epoch()
    return SimulationResult(lfta.counters, lfta.hfta, len(dataset), n_epochs,
                            "record at a time")
