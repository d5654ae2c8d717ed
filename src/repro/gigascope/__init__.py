"""The Gigascope-like two-level DSMS substrate (paper Section 2).

* :mod:`~repro.gigascope.records` — stream schemas and column batches;
* :mod:`~repro.gigascope.hashing` — group packing and bucket placement;
* :mod:`~repro.gigascope.hash_table` / :mod:`~repro.gigascope.lfta` — the
  sequential reference machine;
* :mod:`~repro.gigascope.engine` — the exact vectorized engine;
* :mod:`~repro.gigascope.hfta` — partial-aggregate merging;
* :mod:`~repro.gigascope.runtime` — the end-to-end :class:`StreamSystem`.
"""

from repro.gigascope.records import Dataset, StreamSchema
from repro.gigascope.hash_table import DirectMappedTable, Entry, Eviction
from repro.gigascope.hfta import HFTA, QueryAnswer
from repro.gigascope.metrics import (
    CostCounters,
    RelationCounters,
    SimulationResult,
)
from repro.gigascope.engine import simulate
from repro.gigascope.lfta import SequentialLFTA, run_reference
from repro.gigascope.runtime import RunReport, StreamSystem
from repro.gigascope.online import EpochReport, LiveStreamSystem
from repro.gigascope.load import LoadModel
from repro.gigascope.filters import (
    And,
    BitMask,
    Bucketize,
    Comparison,
    Not,
    Or,
    filter_dataset,
    with_derived_attribute,
)

__all__ = [
    "Dataset",
    "StreamSchema",
    "DirectMappedTable",
    "Entry",
    "Eviction",
    "HFTA",
    "QueryAnswer",
    "CostCounters",
    "RelationCounters",
    "SimulationResult",
    "simulate",
    "SequentialLFTA",
    "run_reference",
    "RunReport",
    "StreamSystem",
    "EpochReport",
    "LiveStreamSystem",
    "And",
    "BitMask",
    "Bucketize",
    "Comparison",
    "Not",
    "Or",
    "filter_dataset",
    "with_derived_attribute",
    "LoadModel",
]
