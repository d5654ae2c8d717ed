"""Exact merge of per-shard partial results into one :class:`SimulationResult`.

The LFTA/HFTA split makes shard merging lossless by construction: every
per-shard HFTA holds *partial* aggregates (count / value-sum / min / max
per group per epoch), and partials merge exactly — counts and sums add,
minima and maxima combine, avg is derived as sum/count at answer time.
Merging N shard HFTAs is therefore the same operation the HFTA already
performs on LFTA eviction batches, applied one level up.

``HFTA.merge_from`` adopts every key only one side holds and folds the
two states of a key both hold, this side's rows first. Counts, minima
and maxima therefore equal an unsharded run's exactly; a float sum of a
key both sides hold adds the two states' sums, the same terms in
another order (shard by shard instead of arrival order), and can differ
from the unsharded sum in the last ulp.

:class:`~repro.parallel.ShardedStreamSystem` ships nothing: its shards
walk one after the other, each into the partials the shard before it
handed over (:meth:`HFTA.hand_over`), so every shard's HFTA arrives here
with its counters only and the last hand-over, adopted by
:meth:`HFTA.merge_from` as is, holds every group's shard-order fold.

Cost counters merge by plain summation: a probe or eviction that happened
on some shard happened in the system, so the merged counters price the
*total* work of the sharded run (which differs from a single-table run of
the same memory budget — see ``docs/sharding.md``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import CostCounters, SimulationResult

__all__ = ["merge_counters", "merge_hftas", "merge_results"]


def merge_counters(parts: Iterable[CostCounters],
                   configuration: Configuration) -> CostCounters:
    """Sum per-relation event counts across shards."""
    merged = CostCounters(configuration)
    for part in parts:
        for rel, counters in part.relations.items():
            if rel not in configuration:
                raise ConfigurationError(
                    f"shard counters mention relation {rel} that the "
                    "merged configuration does not instantiate")
            merged.counters(rel).merge(counters)
    return merged


def merge_hftas(parts: Iterable[HFTA]) -> HFTA:
    """Combine per-shard HFTAs into one (exact partial-aggregate merge)."""
    merged = HFTA()
    for part in parts:
        merged.merge_from(part)
    return merged


def merge_results(parts: Sequence[SimulationResult],
                  configuration: Configuration,
                  n_records: int | None = None,
                  n_epochs: int | None = None) -> SimulationResult:
    """One :class:`SimulationResult` equivalent to the union of the shards.

    ``n_records`` defaults to the shard sum (always correct for a
    partition). ``n_epochs`` cannot be derived by summation — one epoch's
    records usually land on several shards — so it defaults to the number
    of distinct epoch ids the merged HFTA received; pass the stream's own
    distinct-epoch count when available (a shard-empty epoch contributes
    no evictions).
    """
    if not parts:
        raise ConfigurationError("merge_results needs at least one shard")
    counters = merge_counters((p.counters for p in parts), configuration)
    hfta = merge_hftas(p.hfta for p in parts)
    if n_records is None:
        n_records = sum(p.n_records for p in parts)
    if n_epochs is None:
        n_epochs = len(hfta.epochs_seen)
    walks = dict.fromkeys(p.walk for p in parts if p.walk is not None)
    return SimulationResult(counters, hfta, int(n_records), int(n_epochs),
                            "; ".join(walks) or None)
