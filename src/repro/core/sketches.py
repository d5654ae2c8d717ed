"""Streaming sketches for online statistics estimation.

The optimizer needs per-relation group counts ``g`` and flow lengths
``l``. Offline those are measured exactly
(:func:`repro.workloads.datasets.measure_statistics`); a deployed LFTA
cannot afford exact distinct counting for every candidate phantom, so this
module provides small-state streaming estimators:

* :class:`KMVDistinctCounter` — the classic k-minimum-values distinct
  estimator: keep the ``k`` smallest hash values seen; with ``h_(k)`` the
  k-th smallest as a fraction of the hash space, ``D ~ (k - 1) / h_(k)``.
  Unbiased, ~``1/sqrt(k-2)`` relative error.
* :class:`StreamStatisticsCollector` — one sketch per relation,
  consuming record batches and emitting a
  :class:`~repro.core.statistics.RelationStatistics` snapshot (group
  counts; flow lengths stay 1, the unclustered model) for the
  planner. This is what lets the multi-tenant service
  (:mod:`repro.service`) admit and plan every registration without
  exact counting.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.statistics import RelationStatistics
from repro.errors import StatisticsError
from repro.gigascope.hashing import chain_hasher, splitmix64

__all__ = [
    "KMVDistinctCounter",
    "StreamStatisticsCollector",
]

_HASH_SPACE = float(2 ** 64)


class KMVDistinctCounter:
    """k-minimum-values distinct-count estimator over 64-bit keys."""

    def __init__(self, k: int = 256, salt: int = 0):
        if k < 3:
            raise StatisticsError("KMV needs k >= 3")
        self.k = k
        self.salt = np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        self._minima = np.empty(0, dtype=np.uint64)
        self._saturated = False

    def update(self, keys: np.ndarray) -> None:
        """Absorb a batch of (possibly repeated) 64-bit keys."""
        if len(keys) == 0:
            return
        hashes = splitmix64(np.asarray(keys, dtype=np.uint64) ^ self.salt)
        if self._minima.size == self.k:
            # A full sketch changes only through hashes below its k-th
            # minimum; one above it is a (k+1)-th distinct value.
            kth = self._minima[-1]
            if not self._saturated:
                self._saturated = bool((hashes > kth).any())
            hashes = hashes[hashes < kth]
            if hashes.size == 0:
                return
        merged = np.unique(np.concatenate([self._minima, hashes]))
        if merged.size > self.k:
            merged = merged[:self.k]
            self._saturated = True
        self._minima = merged

    def estimate(self) -> float:
        """Estimated number of distinct keys seen (exact until saturation)."""
        if not self._saturated:
            return float(self._minima.size)
        kth = float(self._minima[-1]) / _HASH_SPACE
        return (self.k - 1) / kth

    def __len__(self) -> int:
        return int(self._minima.size)


class StreamStatisticsCollector:
    """Per-relation sketches over a stream of record batches.

    Parameters
    ----------
    relations:
        The attribute sets to track (typically every feeding-graph node).
    k:
        KMV size per relation. 256 gives ~6% relative error on group
        counts — ample for planning, whose inputs enter through square
        roots and ratios.
    """

    def __init__(self, relations: Iterable[AttributeSet], k: int = 256,
                 counters: int = 1):
        self.relations = sorted(set(relations), key=AttributeSet.sort_key)
        if not self.relations:
            raise StatisticsError("collector needs at least one relation")
        self._distinct = {
            rel: KMVDistinctCounter(k, salt=i + 1)
            for i, rel in enumerate(self.relations)
        }
        self._counters = counters
        self.records_seen = 0

    def ensure(self, relations: Iterable[AttributeSet],
               counters: int | None = None) -> list[AttributeSet]:
        """Start tracking any not-yet-tracked relations; returns the new ones.

        The multi-tenant service grows the feeding graph at runtime as
        tenants register queries; sketches for the new relations start
        empty here and fill from the next batch on (their estimates are
        lower bounds until they have seen representative data — admission
        control compensates with per-attribute product bounds and caller
        hints). Salts for late additions are derived from the relation
        label, so estimates are deterministic across processes and
        restarts regardless of registration order. ``counters`` updates
        the per-entry counter count used in snapshots (2 once any tenant
        carries a value sum).
        """
        from repro.gigascope.hashing import relation_salt
        added = []
        for rel in relations:
            if rel in self._distinct:
                continue
            salt = relation_salt(rel.label(), seed=len(rel))
            self._distinct[rel] = KMVDistinctCounter(
                next(iter(self._distinct.values())).k, salt=salt)
            added.append(rel)
        if added:
            self.relations = sorted(self._distinct,
                                    key=AttributeSet.sort_key)
        if counters is not None:
            self._counters = counters
        return added

    def observe(self, columns: Mapping[str, np.ndarray]) -> None:
        """Absorb one batch given as attribute-name -> column arrays."""
        # Value-stable hashes: equal tuples get equal codes in every
        # batch (pack_tuples codes would be batch-local). One hash pass
        # per batch: columns and chain prefixes are shared by relations.
        chain = chain_hasher(columns)
        n = 0
        for rel in self.relations:
            codes = chain(rel.names)
            n = codes.size
            self._distinct[rel].update(codes)
        self.records_seen += n

    def statistics(self) -> RelationStatistics:
        """A planner-ready snapshot of the current estimates."""
        groups = {rel: max(counter.estimate(), 1.0)
                  for rel, counter in self._distinct.items()}
        return RelationStatistics(groups, {}, counters=self._counters)
