"""The HFTA: high-level node merging partial aggregates per epoch.

The LFTA evicts partial aggregates (several per group per epoch, because
of collisions); the HFTA combines them into the exact per-epoch answer
(paper Section 2.2). Partials are *mergeable*: counts and value sums add,
value minima/maxima combine by min/max — which is exactly why the phantom
tree can merge entries at every level without losing information.

Per ``(relation, epoch)`` key the state is **columnar**: packed key
columns plus aligned int64/float64 aggregate arrays
(:class:`ColumnarTotals`), one row per group, and it is the HFTA's only
state. Every producer folds on arrival:

* The engine's walk (the native ingest kernel) folds each emitting
  relation's evicted runs itself and hands the folded state over
  (:meth:`HFTA.ingest_folded`).
* A batch of rows (:meth:`HFTA.ingest_arrays`: the record-at-a-time
  reference, one per query at each epoch's flush; any caller) is
  folded into the key's state at once by a vectorized numpy fold.

A key's memory is therefore bounded by its group count, not by how
many batches (collisions, shards) ever mentioned it. A sharded run is
one walk whose fold takes every shard's runs, shard 0's first, so a
key is folded once whatever the shard count.

Bit-identity of float sums across incremental folds relies on one
ordering rule: a fold takes the held state's rows *first*, then the new
rows in arrival order. A group's sum is then
``(((0 + a1) + a2) + b1) + b2`` — the exact left-to-right sequence a
from-scratch fold over all raw rows would perform — because ``0.0 + S``
is bitwise ``S`` for any accumulated sum ``S`` (state sums are never
``-0.0``; they were seeded at ``+0.0``). The walk's fold keeps the same
rule: a seeded fold puts the state the key holds first, then the runs,
so a live epoch reopened after ``finish()`` adds its floats as one fold
would. Both folds write a NaN sum as ``np.nan``'s bits, so the kernel's
fold and the numpy fold of the same rows hold the same bytes.

A query answer (:meth:`query_answer`) is a :class:`QueryAnswer`: a
read-only ``Mapping`` over one key's folded state, with the aggregate
kind applied as a whole-array operation and the HAVING threshold kept as
a mask. It is a *snapshot* — a later fold replaces the key's state
instead of mutating it, so an answer never changes once handed out — and
it is *lazy*: ``len()`` reads only the HAVING count, the aggregate's
values are computed on the first read of ``array``, the dict or ``==``,
and the ``{group: value}`` dict is built on first key-level access, once
per answer.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.queries import AggregationQuery
from repro.gigascope.hashing import pack_tuples

__all__ = ["ColumnarTotals", "HFTA", "QueryAnswer"]


@dataclass(eq=False)
class ColumnarTotals:
    """One ``(relation, epoch)`` key's folded state: one row per group.

    ``columns`` holds the group-key attribute values (aligned with
    ``names``); the aggregate arrays are int64 (counts) and float64
    (sums and NaN-propagating min/max, with 0.0 sums and ``+inf``/``-inf``
    sentinels for value-less workloads). Group order is first-appearance
    over the folded rows — the invariant that keeps incremental re-folds
    bit-identical (state rows re-enter a fold first, in state order).
    """

    names: tuple[str, ...]
    columns: list[np.ndarray]
    counts: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    value_sums: np.ndarray = field(default_factory=lambda: np.empty(0))
    value_mins: np.ndarray = field(default_factory=lambda: np.empty(0))
    value_maxs: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Lazily materialized Python-tuple group keys; derived, so it is
    #: dropped from pickles and rebuilt on first use.
    _tuples: list | None = field(default=None, repr=False)

    @property
    def n_groups(self) -> int:
        return int(self.counts.shape[0])

    def group_tuples(self) -> list[tuple[int, ...]]:
        """The group keys as Python int tuples (API-boundary form).

        Materialized once per state: every answer for this (relation,
        epoch) — any aggregate kind, any HAVING threshold — reuses the
        same key tuples, which is most of a dict answer's cost.
        """
        if self._tuples is None:
            self._tuples = list(zip(*(_int_list(col)
                                      for col in self.columns)))
        return self._tuples

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_tuples"] = None
        return state


class QueryAnswer(Mapping[tuple[int, ...], float]):
    """One query's answer for one epoch: ``{group tuple: value}``, lazily.

    Holds the key's :class:`ColumnarTotals` snapshot, the aggregate kind
    and an optional HAVING mask (``None`` when every group passes).
    ``len()`` and truthiness read only the mask's count; the aggregate's
    values, aligned with the state's rows, are computed on the first
    read of :attr:`array`, the dict or ``==``; :attr:`columns` and
    :attr:`array` build no Python objects; ``[]``, ``in``, iteration,
    ``keys()``/``items()``/``values()`` and ``==`` against a plain
    mapping (either side) build the dict once, from the state's shared
    :meth:`ColumnarTotals.group_tuples`. Two answers whose rows line up
    compare on their arrays. Read-only: the arrays handed out are
    non-writeable views.
    """

    def __init__(self, state: ColumnarTotals, kind: str,
                 keep: np.ndarray | None = None) -> None:
        self._state = state
        self._kind = kind
        self._keep = keep
        self._len = (state.n_groups if keep is None
                     else int(np.count_nonzero(keep)))

    # -- columnar accessors ---------------------------------------------
    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Attribute name -> key array of the passing groups."""
        return {name: self._masked(col)
                for name, col in zip(self._state.names, self._state.columns)}

    @property
    def array(self) -> np.ndarray:
        """The passing groups' float64 values, aligned with :attr:`columns`."""
        return self._masked(self._values)

    @cached_property
    def _values(self) -> np.ndarray:
        """The aggregate of every group of the state, HAVING or not."""
        state, kind = self._state, self._kind
        if kind == "count":
            return state.counts.astype(np.float64)
        if kind == "sum":
            return state.value_sums
        if kind == "avg":
            values = np.zeros(state.n_groups)
            np.divide(state.value_sums, state.counts, out=values,
                      where=state.counts != 0)
            return values
        return state.value_mins if kind == "min" else state.value_maxs

    def _masked(self, arr: np.ndarray) -> np.ndarray:
        out = arr.view() if self._keep is None else arr[self._keep]
        out.flags.writeable = False
        return out

    # -- Mapping ----------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    @cached_property
    def _dict(self) -> dict[tuple[int, ...], float]:
        pairs = zip(self._state.group_tuples(), self._values.tolist())
        if self._keep is not None:
            pairs = compress(pairs, self._keep.tolist())
        return dict(pairs)

    def __getitem__(self, group: tuple[int, ...]) -> float:
        return self._dict[group]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._dict)

    def keys(self):
        return self._dict.keys()

    def items(self):
        return self._dict.items()

    def values(self):
        return self._dict.values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryAnswer):
            if len(self) != len(other):
                return False
            if self._same_rows(other):
                return True
            other = other._dict  # same groups in another order, or NaN
        elif not isinstance(other, Mapping):
            return NotImplemented
        return self._dict == other

    def _same_rows(self, other: "QueryAnswer") -> bool:
        """Row-for-row equal arrays imply equal dicts (no tuples built)."""
        mine, theirs = self.columns.values(), other.columns.values()
        return (len(mine) == len(theirs)
                and all(map(np.array_equal, mine, theirs))
                and np.array_equal(self.array, other.array))

    def __repr__(self) -> str:
        return f"QueryAnswer({self._dict!r})"

    def __reduce__(self):
        return QueryAnswer, (self._state, self._kind, self._keep)


def _int_list(col: np.ndarray) -> list[int]:
    if col.dtype.kind in "iu":
        return col.tolist()
    return [int(v) for v in col.tolist()]


def _fold_rows_numpy(cols: list[np.ndarray], counts: np.ndarray,
                     vsums: np.ndarray, vmins: np.ndarray,
                     vmaxs: np.ndarray):
    """Group-merge aligned partial rows; first-appearance group order.

    Returns ``(rep, counts, sums, mins, maxs)`` with ``rep`` the first
    row index of each group. ``pack_tuples`` gives collision-free
    per-call codes (any dtype), one 1-D ``np.unique`` groups them, and
    the sorted group ids are remapped to first-appearance order.
    ``np.bincount`` accumulates every bin in row order seeded at 0.0 and
    the remap permutes *labels*, not rows, so each group's float sum is
    the left-to-right sequence the ingest walk's C fold performs. Which
    NaN survives where two meet differs between the two, so a NaN sum is
    written as ``np.nan``'s bits, as the C fold writes it.
    """
    codes = pack_tuples(cols)
    _, first, inverse = np.unique(codes, return_index=True,
                                  return_inverse=True)
    g = int(first.shape[0])
    order = np.argsort(first, kind="stable")
    rank = np.empty(g, dtype=np.int64)
    rank[order] = np.arange(g, dtype=np.int64)
    inv = rank[inverse]
    out_counts = np.bincount(inv, weights=counts,
                             minlength=g).astype(np.int64)
    out_vs = np.bincount(inv, weights=vsums, minlength=g)
    out_vs[np.isnan(out_vs)] = np.nan
    out_vmin = np.full(g, np.inf)
    out_vmax = np.full(g, -np.inf)
    # NaN minima and maxima are defined input: they propagate, silently
    with np.errstate(invalid="ignore"):
        np.minimum.at(out_vmin, inv, vmins)
        np.maximum.at(out_vmax, inv, vmaxs)
    return first[order], out_counts, out_vs, out_vmin, out_vmax


def _fold(held: ColumnarTotals | None,
          rows: ColumnarTotals) -> ColumnarTotals:
    """``rows`` folded into ``held``: the held state's rows first, then
    the new ones (the ordering rule of the module docstring)."""
    parts = [rows] if held is None else [held, rows]
    cols = [np.concatenate([part.columns[c] for part in parts])
            for c in range(len(rows.names))]
    rep, counts, sums, mins, maxs = _fold_rows_numpy(
        cols, *(np.concatenate([getattr(part, field) for part in parts])
                for field in ("counts", "value_sums", "value_mins",
                              "value_maxs")))
    return ColumnarTotals(rows.names, [col[rep] for col in cols], counts,
                          sums, mins, maxs)


#: The fields a pickled HFTA restores.
class HFTA:
    """Merges evicted partial aggregates into final per-epoch answers."""

    def __init__(self) -> None:
        #: Folded per-key state: one row per group, first-appearance
        #: order. Every producer folds on arrival: the ingest walk hands
        #: its folded state over (:meth:`ingest_folded`), a batch of rows
        #: is folded into the held state (:meth:`ingest_arrays`).
        self._columnar: dict[tuple[AttributeSet, int], ColumnarTotals] = {}
        self.evictions_received = 0
        #: Diagnostic counters for the merge path (manifest/bench food).
        self.folds = 0
        self.rows_folded = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_arrays(self, relation: AttributeSet, epoch: int,
                      columns: Mapping[str, np.ndarray],
                      counts: np.ndarray,
                      value_sums: np.ndarray | None = None,
                      value_mins: np.ndarray | None = None,
                      value_maxs: np.ndarray | None = None) -> None:
        """Fold a batch of evicted entries, given as aligned arrays, into
        the key's state: its held rows first, then the batch's.

        ``columns`` holds exactly the relation's attributes and every
        array one row per entry of ``counts``, else :class:`ValueError`,
        raised before anything changes. Missing value arrays read as
        the count-only partials (0.0, ``+inf``, ``-inf``).
        """
        names = relation.names
        if set(columns) != set(names):
            raise ValueError(f"a batch for {relation.label()} needs the "
                             f"columns {list(names)}, got {list(columns)}")
        counts = np.asarray(counts, dtype=np.int64)
        cols = [np.asarray(columns[name]) for name in names]
        vsums, vmins, vmaxs = (
            np.full(counts.shape, fill) if arr is None
            else np.asarray(arr, dtype=np.float64)
            for arr, fill in ((value_sums, 0.0), (value_mins, np.inf),
                              (value_maxs, -np.inf)))
        if counts.ndim != 1 or any(arr.shape != counts.shape for arr in
                                   (*cols, vsums, vmins, vmaxs)):
            raise ValueError(f"a batch for {relation.label()} needs every "
                             "array 1-D with one row per count")
        n = len(counts)
        if n == 0:
            return
        key = (relation, epoch)
        held = self._columnar.get(key)
        self._columnar[key] = _fold(held, ColumnarTotals(
            names, cols, counts, vsums, vmins, vmaxs))
        self.evictions_received += n
        self._count_fold(held, n)

    def ingest_folded(self, relation: AttributeSet, epoch: int,
                      state: ColumnarTotals, rows: int) -> None:
        """Take a key's state as the ingest walk folded it.

        The walk folded ``rows`` evicted partials into the state the key
        held (its rows first, then the new ones in emission order — the
        ordering rule above), so ``state`` replaces it, and the counters
        move as :meth:`ingest_arrays` would move them over those
        partials.
        """
        key = (relation, epoch)
        held = self._columnar.get(key)
        self._columnar[key] = state
        self.evictions_received += rows
        self._count_fold(held, rows)

    def _count_fold(self, held: ColumnarTotals | None, rows: int) -> None:
        """Count a fold of ``rows`` new partials into ``held``: one fold,
        over the held state's rows and the new ones."""
        self.folds += 1
        self.rows_folded += rows + (0 if held is None else held.n_groups)

    def __setstate__(self, state: dict) -> None:
        # Older checkpoints carry fields an HFTA no longer has, both empty
        # or derived: the dict answers' cache and the keys a sharded run
        # handed on. Those written before every producer folded on
        # arrival carry each key's unfolded batches, folded here in
        # arrival order; their rows were counted in when they arrived.
        state.pop("_answer_cache", None)
        state.pop("_continued", None)
        pending = state.pop("_batches", {})
        self.__dict__.update(state)
        for (relation, epoch), batches in pending.items():
            for batch in batches:
                self.ingest_arrays(relation, epoch, *batch)
                self.evictions_received -= len(batch[1])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def epochs(self, relation: AttributeSet) -> list[int]:
        """Epoch ids for which this relation received evictions."""
        return sorted({epoch for (rel, epoch) in self._columnar
                       if rel == relation})

    def totals_columnar(self, relation: AttributeSet,
                        epoch: int) -> ColumnarTotals | None:
        """The folded columnar state for one key (None if never fed):
        one row per group."""
        return self._columnar.get((relation, epoch))

    def query_answer(self, query: AggregationQuery,
                     epoch: int) -> QueryAnswer:
        """The final answer of a query for one epoch.

        Turns the HAVING threshold (on group count) into a mask; the
        returned :class:`QueryAnswer` applies the aggregate function
        (``count``/``sum``/``avg``/``min``/``max``) as a whole-array
        operation over the columnar state when its values are first
        read, and builds its dict only if a caller reads it key by key.
        """
        state = self._columnar.get((query.group_by, epoch))
        if state is None:  # never fed: an empty answer
            names = query.group_by.names
            state = ColumnarTotals(names, [np.empty(0, dtype=np.int64)
                                           for _ in names])
        keep = None
        if query.having_min is not None:
            keep = state.counts >= query.having_min
            if keep.all():
                keep = None
        return QueryAnswer(state, query.aggregate.kind, keep)

    def all_answers(self, query: AggregationQuery
                    ) -> dict[int, QueryAnswer]:
        """Per-epoch answers for a query, over all epochs seen."""
        return {epoch: self.query_answer(query, epoch)
                for epoch in self.epochs(query.group_by)}
