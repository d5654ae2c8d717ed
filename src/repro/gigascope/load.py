"""LFTA load modeling: from abstract cost units to packets per second.

The paper's objective is stated in operational terms (Sec. 3.3): "the
lower the average per-record intra-epoch cost, the lower is the load at
the LFTA, increasing the likelihood that records in the stream are not
dropped". This module closes that loop: given a CPU budget for the LFTA
(a NIC core, in Gigascope) and the real-time prices of a probe and an
eviction, it converts a plan's per-record cost into a *sustainable stream
rate*.

The defaults are calibrated to the paper's setting: a probe is "a few
hundred nanoseconds" (Sec. 1 says packet forwarding itself is; we price
the probe at 200 ns) and an eviction costs 50 probes (Sec. 6.1's
``c2/c1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost_model import CostParameters

__all__ = ["LoadModel"]


@dataclass(frozen=True)
class LoadModel:
    """Real-time pricing of the LFTA's cost units.

    Parameters
    ----------
    probe_seconds:
        Wall-clock cost of one ``c1`` unit (a hash-table probe/update).
    params:
        The abstract cost parameters; ``evict_cost / probe_cost`` scales
        an eviction's wall-clock price.
    utilization:
        Fraction of the LFTA processor available for query processing
        (the rest forwards packets).
    """

    probe_seconds: float = 200e-9
    params: CostParameters = CostParameters()
    utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.probe_seconds <= 0:
            raise ValueError("probe_seconds must be positive")
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must be in (0, 1]")

    # ------------------------------------------------------------------
    def seconds_per_record(self, per_record_cost: float) -> float:
        """Wall-clock work per record for a given Eq. 7 cost."""
        return (per_record_cost / self.params.probe_cost
                * self.probe_seconds)

    def sustainable_rate(self, per_record_cost: float) -> float:
        """Records/second the LFTA can absorb without dropping."""
        return self.utilization / self.seconds_per_record(per_record_cost)
