"""Cost accounting for simulation runs.

Counters mirror the cost model's structure: every hash-table update is an
``arrival`` (cost ``c1``), every entry leaving a table is an ``eviction``
(cost ``c2`` when it leaves a *query* toward the HFTA; an eviction of a
relation with children also becomes an arrival at each of them).
Intra-epoch and end-of-epoch phases are tracked separately so measured
costs can be compared against Eq. 7 and Eq. 8 independently.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Iterable, Sequence

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.cost_model import CostBreakdown, CostParameters
from repro.gigascope.hfta import HFTA

__all__ = ["RelationCounters", "CostCounters", "SimulationResult",
           "priced_costs"]


def priced_costs(counts: Iterable[Sequence[int]], emitting: Iterable[bool],
                 raw: Iterable[bool], params: CostParameters
                 ) -> tuple[CostBreakdown, CostBreakdown]:
    """The intra-epoch and flush costs of per-relation counters, each
    ``(arrivals_intra, arrivals_flush, evictions_intra,
    evictions_flush)``, beside whether the relation emits and whether it
    is raw: the cost model prices every intra arrival, a flush arrival
    below the stream, and an emitting relation's evictions, intra and at
    the flush."""
    probe = evict = flush_probe = flush_evict = 0
    for (a_intra, a_flush, e_intra, e_flush), emits, is_raw in zip(
            counts, emitting, raw):
        probe += a_intra
        if not is_raw:
            flush_probe += a_flush
        if emits:
            evict += e_intra
            flush_evict += e_flush
    return (CostBreakdown(probe * params.probe_cost,
                          evict * params.evict_cost),
            CostBreakdown(flush_probe * params.probe_cost,
                          flush_evict * params.evict_cost))


@dataclass
class RelationCounters:
    """Per-relation event counts, split by phase."""

    arrivals_intra: int = 0
    arrivals_flush: int = 0
    evictions_intra: int = 0
    evictions_flush: int = 0

    @property
    def arrivals(self) -> int:
        return self.arrivals_intra + self.arrivals_flush

    @property
    def evictions(self) -> int:
        return self.evictions_intra + self.evictions_flush

    def merge(self, other: "RelationCounters") -> None:
        self.arrivals_intra += other.arrivals_intra
        self.arrivals_flush += other.arrivals_flush
        self.evictions_intra += other.evictions_intra
        self.evictions_flush += other.evictions_flush


@dataclass
class CostCounters:
    """Counters for every relation of a configuration."""

    configuration: Configuration
    relations: dict[AttributeSet, RelationCounters] = field(
        default_factory=dict)

    def counters(self, rel: AttributeSet) -> RelationCounters:
        if rel not in self.relations:
            self.relations[rel] = RelationCounters()
        return self.relations[rel]

    def _costs(self, params: CostParameters
               ) -> tuple[CostBreakdown, CostBreakdown]:
        config = self.configuration
        return priced_costs(map(astuple, self.relations.values()),
                            map(config.is_emitting, self.relations),
                            map(config.is_raw, self.relations), params)

    def measured_intra_cost(self, params: CostParameters) -> CostBreakdown:
        """Total intra-epoch cost actually incurred (compare with Eq. 7 * n)."""
        return self._costs(params)[0]

    def measured_flush_cost(self, params: CostParameters) -> CostBreakdown:
        """Total end-of-epoch cost actually incurred (compare with Eq. 8)."""
        return self._costs(params)[1]

    def measured_total_cost(self, params: CostParameters) -> float:
        return (self.measured_intra_cost(params).total
                + self.measured_flush_cost(params).total)


@dataclass
class SimulationResult:
    """The outcome of streaming a dataset through a configuration.

    Produced by both the sequential reference
    (:func:`repro.gigascope.lfta.run_reference`) and the vectorized engine
    (:func:`repro.gigascope.engine.simulate`); tests assert the two agree
    counter-for-counter. ``walk`` names how the LFTA ran: ``"native
    kernel, N workers"`` (and ``", 2 lanes"``) from the engine,
    ``"record at a time"`` from the reference.
    """

    counters: CostCounters
    hfta: HFTA
    n_records: int
    n_epochs: int
    walk: str | None = None

    def intra_cost(self, params: CostParameters) -> CostBreakdown:
        return self.counters.measured_intra_cost(params)

    def flush_cost(self, params: CostParameters) -> CostBreakdown:
        return self.counters.measured_flush_cost(params)

    def total_cost(self, params: CostParameters) -> float:
        return self.counters.measured_total_cost(params)

    def per_record_cost(self, params: CostParameters) -> float:
        """Measured intra-epoch cost per record (compare with Eq. 7)."""
        if self.n_records == 0:
            return 0.0
        return self.intra_cost(params).total / self.n_records
