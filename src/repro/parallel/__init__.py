"""Sharded ingestion: partition the stream, walk every shard at once.

The paper's LFTA/HFTA split is shard-friendly by construction — partial
aggregates for count/sum/min/max merge exactly — so the stream can be
partitioned across N LFTA shard tables whose evictions one HFTA folds
into the same per-epoch answers the single-core
:class:`~repro.gigascope.runtime.StreamSystem` produces. The N tables of
a relation are N slices of one table, walked in one pass.

* :mod:`~repro.parallel.partition` — record-to-shard assignment: the
  ``shard_ids(dataset, n_shards)`` protocol, its one built-in
  implementation :class:`HashPartitioner`, and its checks;
* :mod:`~repro.parallel.sharded` — :class:`ShardedStreamSystem`, the
  :class:`StreamSystem` subclass whose run partitions and walks every
  shard in one ``simulate(..., shards=ids)`` call.

See ``docs/sharding.md`` for semantics and the memory-split policy.
"""

from repro.parallel.partition import HashPartitioner
from repro.parallel.sharded import ShardedStreamSystem

__all__ = [
    "HashPartitioner",
    "ShardedStreamSystem",
]
