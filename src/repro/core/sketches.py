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

:meth:`StreamStatisticsCollector.observe` updates every relation's
sketch in one native-library call per batch, ``repro_kmv_observe`` of
:mod:`repro.native.library`: each relation's chain of the
:func:`~repro.gigascope.hashing.combine_columns` codes, its salted key,
then a binary search of its sorted minima. A full sketch drops every
key at or above its largest minimum, so the minima, flags and
estimates are those of merging the whole batch into the minima and
keeping the ``k`` smallest, byte for byte (pinned against the test
suite's numpy reference by ``tests/core/test_sketches.py``). Each
sketch is one block of words the library updates in place, and
pickles as its minima and flag. Without the library ``observe`` raises
:class:`~repro.errors.NativeLibraryError`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.statistics import RelationStatistics
from repro.errors import StatisticsError
from repro.native import library

__all__ = [
    "KMVDistinctCounter",
    "StreamStatisticsCollector",
]

_HASH_SPACE = float(2 ** 64)


class KMVDistinctCounter:
    """k-minimum-values distinct-count estimator over 64-bit keys.

    The sketch is one block of ``k + 2`` words: the number of minima
    held, the saturated flag, then room for ``k`` minima, ascending.
    ``_minima`` views the held ones; the native library's
    ``repro_kmv_observe`` updates the block in place, keying a code
    ``c`` as ``splitmix64(c ^ salt)``.
    """

    def __init__(self, k: int = 256, salt: int = 0):
        if k < 3:
            raise StatisticsError("KMV needs k >= 3")
        self.k = k
        self.salt = np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        self._words = np.zeros(k + 2, dtype=np.uint64)

    @property
    def _minima(self) -> np.ndarray:
        return self._words[2:2 + int(self._words[0])]

    @_minima.setter
    def _minima(self, minima: np.ndarray) -> None:
        n = len(minima)
        self._words[2:2 + n] = minima
        self._words[0] = n

    @property
    def _saturated(self) -> bool:
        """Whether more than ``k`` distinct keys were seen."""
        return bool(self._words[1])

    @_saturated.setter
    def _saturated(self, saturated: bool) -> None:
        self._words[1] = bool(saturated)

    def __getstate__(self) -> dict:
        return {"k": self.k, "salt": self.salt,
                "_minima": self._minima.copy(),
                "_saturated": self._saturated}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["k"], int(state["salt"]))
        self._minima = state["_minima"]
        self._saturated = state["_saturated"]

    def estimate(self) -> float:
        """Estimated number of distinct keys seen (exact until saturation)."""
        if not self._saturated:
            return float(self._minima.size)
        kth = float(self._minima[-1]) / _HASH_SPACE
        return (self.k - 1) / kth

    def __len__(self) -> int:
        return int(self._words[0])


class _Binding(NamedTuple):
    """What ``repro_kmv_observe`` reads of a collector's sketches."""

    #: The batch's column names, in the order the batches give them.
    names: tuple[str, ...]
    #: The columns the relations read, in that order.
    read: list[str]
    #: The call's arguments after the batch's columns and length.
    args: tuple[int, ...]
    #: The arrays the arguments point into.
    arrays: tuple[np.ndarray, ...]


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

    #: What the library reads of the sketches, bound at the first batch
    #: (:meth:`_bind`); None until then and after a relation joins.
    _bound: "_Binding | None" = None

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
            self._bound = None
        if counters is not None:
            self._counters = counters
        return added

    def observe(self, columns: Mapping[str, np.ndarray]) -> None:
        """Absorb one batch given as attribute-name -> column arrays."""
        # Value-stable hashes: equal tuples get equal codes in every
        # batch (pack_tuples codes would be batch-local). One call
        # updates every sketch.
        lib = library.library()
        names = tuple(columns)
        bound = self._bound
        if bound is None or bound.names != names:
            bound = self._bound = self._bind(names)
        addresses, held = library.words(
            [columns[name] for name in bound.read])
        n = held[0].shape[0]
        if lib.repro_kmv_observe(addresses.ctypes.data, len(held), n,
                                 *bound.args) < 0:
            raise MemoryError("no memory for the sketches' hashes")
        self.records_seen += n

    def _bind(self, names: tuple[str, ...]) -> "_Binding":
        """The library's view of every sketch, for batches whose columns
        come as ``names``: which of them the relations read, and each
        relation's key columns among those, salt, size and sketch."""
        read = [name for name in names
                if any(name in rel.names for rel in self.relations)]
        column = {name: c for c, name in enumerate(read)}
        counters = [self._distinct[rel] for rel in self.relations]
        idx = [column[name] for rel in self.relations for name in rel.names]
        off = np.zeros(len(self.relations) + 1, dtype=np.int64)
        off[1:] = np.cumsum([len(rel) for rel in self.relations])
        arrays = (off, np.array(idx, dtype=np.int64),
                  np.array([c.salt for c in counters], dtype=np.uint64),
                  np.array([c.k for c in counters], dtype=np.int64),
                  np.array([library.address(c._words) for c in counters],
                           dtype=np.uintp),
                  np.empty(len(idx), dtype=np.uintp))
        return _Binding(names, read, (len(counters), *map(library.address,
                                                           arrays)), arrays)

    def __getstate__(self) -> dict:
        # The bound addresses are this process's: a restore binds anew.
        return {key: value for key, value in self.__dict__.items()
                if key != "_bound"}

    def group_count(self, rel: AttributeSet) -> float:
        """One tracked relation's estimated group count (at least 1)."""
        return max(self._distinct[rel].estimate(), 1.0)

    def statistics(self) -> RelationStatistics:
        """A planner-ready snapshot of every relation's estimate."""
        groups = {rel: self.group_count(rel) for rel in self._distinct}
        return RelationStatistics(groups, {}, counters=self._counters)
