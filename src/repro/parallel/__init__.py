"""Sharded parallel ingestion: partition the stream, merge exact partials.

The paper's LFTA/HFTA split is shard-friendly by construction — partial
aggregates for count/sum/min/max merge exactly — so the stream can be
partitioned across N independent LFTA shard engines whose outputs one
HFTA-level merge combines into the same per-epoch answers the single-core
:class:`~repro.gigascope.runtime.StreamSystem` produces.

* :mod:`~repro.parallel.partition` — record-to-shard assignment: the
  ``shard_ids(dataset, n_shards)`` protocol, its one built-in
  implementation :class:`HashPartitioner`, and each shard's row index;
* :mod:`~repro.parallel.sharded` — :class:`ShardedStreamSystem`, the
  :class:`StreamSystem` subclass whose run shards (in-process, in shard
  order, once each);
* :mod:`~repro.parallel.merge` — exact merging of per-shard HFTAs and
  cost counters.

See ``docs/sharding.md`` for semantics and the memory-split policy.
"""

from repro.parallel.merge import (
    merge_counters,
    merge_hftas,
    merge_results,
)
from repro.parallel.partition import (
    HashPartitioner,
    shard_balance,
    split_dataset,
)
from repro.parallel.sharded import ShardedStreamSystem

__all__ = [
    "HashPartitioner",
    "ShardedStreamSystem",
    "merge_counters",
    "merge_hftas",
    "merge_results",
    "shard_balance",
    "split_dataset",
]
