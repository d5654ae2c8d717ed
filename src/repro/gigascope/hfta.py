"""The HFTA: high-level node merging partial aggregates per epoch.

The LFTA evicts partial aggregates (several per group per epoch, because
of collisions); the HFTA combines them into the exact per-epoch answer
(paper Section 2.2). Partials are *mergeable*: counts and value sums add,
value minima/maxima combine by min/max — which is exactly why the phantom
tree can merge entries at every level without losing information.

Per ``(relation, epoch)`` key the state is **columnar**: packed key
columns plus aligned int64/float64 aggregate arrays
(:class:`ColumnarTotals`), one row per group. Who folds where:

* With the ingest kernel, the engine's walk folds each emitting
  relation's evicted runs itself and hands the folded state over
  (:meth:`HFTA.ingest_folded`); nothing is buffered.
* Batches that arrive as rows (:meth:`HFTA.ingest_arrays` from the numpy
  walk, the record-at-a-time reference or any caller, and
  :meth:`merge_from`'s rows) buffer briefly and are *folded* lazily, on
  the first answer or at :meth:`finalize_epoch`, by a hash-table
  group-merge — the runtime-compiled C kernel of
  :mod:`repro.native.merge` when available, else a vectorized numpy
  fold — and the raw batch rows are released.

Either way a key's memory is bounded by its group count, not by how
many batches (collisions, shards) ever mentioned it.

Bit-identity of float sums across incremental folds relies on one
ordering rule: a re-fold concatenates the accumulated state's rows
*first*, then the new batch rows in arrival order. A group's sum is then
``(((0 + a1) + a2) + b1) + b2`` — the exact left-to-right sequence a
from-scratch fold over all raw rows would perform — because ``0.0 + S``
is bitwise ``S`` for any accumulated sum ``S`` (state sums are never
``-0.0``; they were seeded at ``+0.0``). The walk's fold keeps the same
rule: a seeded fold puts the state the key holds first, then the runs,
so a live epoch reopened after ``finish()`` adds its floats as one fold
would. A sharded run walks each shard into the HFTA the shard before
it handed over (:meth:`hand_over`), so its folds extend the earlier
shards' states in shard order. :meth:`merge_from`, for HFTAs filled
apart, ships *rows* (pending batches, or a folded state as one
pseudo-batch per key), never folds state into state when raw rows are
still pending, so no tree-shaped float addition occurs where the
sequential path is flat.

A query answer (:meth:`query_answer`) is a :class:`QueryAnswer`: a
read-only ``Mapping`` over one key's folded state, with the aggregate
kind applied as a whole-array operation and the HAVING threshold kept as
a mask. It is a *snapshot* — a later fold replaces the key's state
instead of mutating it, so an answer never changes once handed out — and
it is *lazy*: ``len()``, ``columns`` and ``array`` touch only numpy
arrays, and the ``{group: value}`` dict is built on first key-level
access, once per answer.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.queries import AggregationQuery
from repro.gigascope.hashing import pack_tuples
from repro.native import merge as _native_merge

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

    Holds the key's :class:`ColumnarTotals` snapshot, the aggregate
    values aligned with its rows and an optional HAVING mask (``None``
    when every group passes). ``len()``, truthiness, :attr:`columns` and
    :attr:`array` read only those arrays; ``[]``, ``in``, iteration,
    ``keys()``/``items()``/``values()`` and ``==`` against a plain
    mapping (either side) build the dict once, from the state's shared
    :meth:`ColumnarTotals.group_tuples`. Two answers whose rows line up
    compare on their arrays. Read-only: the arrays handed out are
    non-writeable views.
    """

    def __init__(self, state: ColumnarTotals, values: np.ndarray,
                 keep: np.ndarray | None = None) -> None:
        self._state = state
        self._values = values
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
        return QueryAnswer, (self._state, self._values, self._keep)


def _int_list(col: np.ndarray) -> list[int]:
    if col.dtype.kind in "iu":
        return col.tolist()
    return [int(v) for v in col.tolist()]


_Batch = tuple[dict[str, np.ndarray], np.ndarray, np.ndarray,
               np.ndarray | None, np.ndarray | None]


def _fold_rows(cols: list[np.ndarray], counts: np.ndarray,
               vsums: np.ndarray, vmins: np.ndarray, vmaxs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                          np.ndarray]:
    """Group-merge aligned partial rows; first-appearance group order.

    Returns ``(rep, counts, sums, mins, maxs)`` with ``rep`` the first
    row index of each group. Dispatches to the C kernel when it is
    loaded and every key column is an integer kind (viewable as the
    uint64 bits the kernel compares); the numpy fold computes the
    identical result for everything else.
    """
    if _native_merge.kernel_available():
        eq_cols = _equality_columns(cols)
        if eq_cols is not None:
            return _native_merge.merge_rows(eq_cols, counts, vsums,
                                            vmins, vmaxs)
    return _fold_rows_numpy(cols, counts, vsums, vmins, vmaxs)


def _equality_columns(cols: list[np.ndarray]) -> list[np.ndarray] | None:
    """uint64 views of integer key columns, or None if any is exotic."""
    eq_cols = []
    for col in cols:
        if col.dtype == np.int64:
            # Same bits, bijective: int64 -> uint64 is a view.
            eq_cols.append(col.view(np.uint64))
        elif col.dtype == np.uint64:
            eq_cols.append(col)
        elif col.dtype.kind in "iub":
            eq_cols.append(col.astype(np.uint64))
        else:
            return None
    return eq_cols


def _fold_rows_numpy(cols: list[np.ndarray], counts: np.ndarray,
                     vsums: np.ndarray, vmins: np.ndarray,
                     vmaxs: np.ndarray):
    """The vectorized fallback fold, canonicalized to the kernel's order.

    ``pack_tuples`` gives collision-free per-call codes (any dtype), one
    1-D ``np.unique`` groups them, and the sorted group ids are remapped
    to first-appearance order. ``np.bincount`` accumulates every bin in
    row order seeded at 0.0 and the remap permutes *labels*, not rows,
    so each group's float sum is the identical left-to-right sequence
    the kernel performs.
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
    out_vmin = np.full(g, np.inf)
    np.minimum.at(out_vmin, inv, vmins)
    out_vmax = np.full(g, -np.inf)
    np.maximum.at(out_vmax, inv, vmaxs)
    return first[order], out_counts, out_vs, out_vmin, out_vmax


class HFTA:
    """Merges evicted partial aggregates into final per-epoch answers."""

    def __init__(self) -> None:
        #: Unfolded eviction batches per key (raw rows, arrival order).
        self._batches: dict[tuple[AttributeSet, int], list[_Batch]] = \
            defaultdict(list)
        #: Folded per-key state: one row per group, first-appearance
        #: order. The ingest walk installs a key here directly
        #: (:meth:`ingest_folded`); batch keys move here (and their batch
        #: lists are released) on the first answer call or eagerly via
        #: :meth:`finalize_epoch`.
        self._columnar: dict[tuple[AttributeSet, int], ColumnarTotals] = {}
        #: Keys whose folded state another HFTA handed over
        #: (:meth:`hand_over`): its fold counted them, so extending one
        #: here continues that fold.
        self._continued: set[tuple[AttributeSet, int]] = set()
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
        """Accept a batch of evicted entries as aligned arrays."""
        n = int(np.asarray(counts).shape[0])
        if n == 0:
            return
        cols = {name: np.asarray(arr) for name, arr in columns.items()}
        vsums = (np.zeros(n) if value_sums is None
                 else np.asarray(value_sums, dtype=np.float64))
        vmins = (None if value_mins is None
                 else np.asarray(value_mins, dtype=np.float64))
        vmaxs = (None if value_maxs is None
                 else np.asarray(value_maxs, dtype=np.float64))
        key = (relation, epoch)
        self._batches[key].append(
            (cols, np.asarray(counts, dtype=np.int64), vsums, vmins, vmaxs))
        self.evictions_received += n

    def ingest_folded(self, relation: AttributeSet, epoch: int,
                      state: ColumnarTotals, rows: int) -> None:
        """Take a key's state as the ingest walk folded it.

        The walk folded ``rows`` evicted partials into the state the key
        held (its rows first, then the new ones in emission order — the
        ordering rule above), so ``state`` replaces it, and the counters
        move as :meth:`_fold` would move them over those partials. The
        engine folds a key's pending batches before the walk extends it.
        """
        key = (relation, epoch)
        held = self._columnar.get(key)
        self._columnar[key] = state
        self.evictions_received += rows
        self._count_fold(key, held, rows)

    def _count_fold(self, key: tuple[AttributeSet, int],
                    held: ColumnarTotals | None, rows: int) -> None:
        """Count a fold of ``rows`` new partials into ``held``: one fold,
        over the held state's rows and the new ones. A state handed over
        (:meth:`hand_over`) was counted by the HFTA that folded it, so
        its first extension here counts only the new rows, as if one
        fold had taken them all."""
        if key in self._continued:
            self._continued.discard(key)
            self.rows_folded += rows
            return
        self.folds += 1
        self.rows_folded += rows + (0 if held is None else held.n_groups)

    def merge_from(self, other: "HFTA") -> None:
        """Fold another HFTA's partials into this one.

        Partial aggregates are mergeable, so combining the contents of
        two HFTAs — e.g. the per-shard HFTAs of a partitioned parallel
        run — yields exactly the totals a single HFTA fed by both
        streams would have produced. The other side's contribution
        always arrives as *rows*: pending batches ride over verbatim,
        and a key the other side already folded rides as one
        pseudo-batch of its state rows (state first, then its pending
        batches, preserving the other side's own fold order). The next
        fold here appends those rows after this side's — the sequential
        float-addition order of a single merged stream.
        """
        other_keys = dict.fromkeys(
            list(other._columnar) + list(other._batches))
        for key in other_keys:
            parts: list[_Batch] = []
            state = other._columnar.get(key)
            if state is not None:
                parts.append((dict(zip(state.names, state.columns)),
                              state.counts, state.value_sums,
                              state.value_mins, state.value_maxs))
            parts.extend(other._batches.get(key, ()))
            if state is not None and key not in self._batches \
                    and key not in self._columnar and len(parts) == 1:
                # Nothing on this side: adopt the folded state wholesale.
                self._columnar[key] = state
            else:
                self._batches[key].extend(parts)
        self.evictions_received += other.evictions_received
        self.folds += other.folds
        self.rows_folded += other.rows_folded

    def hand_over(self) -> "HFTA":
        """A new HFTA that takes this one's partials; this one keeps its
        counters and no partials.

        A sharded run walks each shard into the HFTA the shard before it
        handed over, so every key's fold extends the earlier shards'
        state (the ordering rule above) and no shard's states outlive
        the next shard's walk. The new HFTA's counters start at zero,
        and the first extension of a folded key counts as part of the
        fold that began it (:meth:`_count_fold`): summed over the shards,
        a key costs one fold over every partial, as one HFTA fed every
        shard's evictions would count it.
        """
        other = HFTA()
        other._columnar, self._columnar = self._columnar, {}
        other._batches, self._batches = self._batches, defaultdict(list)
        other._continued = set(other._columnar)
        self._continued = set()
        return other

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written before the dict answers were removed carry
        # their (always empty) cache, and no hand-over marks.
        state.pop("_answer_cache", None)
        state.setdefault("_continued", set())
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _fold(self, relation: AttributeSet,
              epoch: int) -> ColumnarTotals | None:
        """Fold a key's pending batches into its columnar state.

        Releases the batch list (the memory-bounding step) and returns
        the state, or None when the key was never fed.
        """
        key = (relation, epoch)
        batches = self._batches.pop(key, None)
        held = self._columnar.get(key)
        if not batches:
            return held
        names = relation.names
        parts: list[_Batch] = []
        if held is not None:
            # State rows first: extending an accumulated sum with new
            # rows preserves the exact sequential addition order (see
            # module docstring).
            parts.append((dict(zip(held.names, held.columns)),
                          held.counts, held.value_sums,
                          held.value_mins, held.value_maxs))
        parts.extend(batches)
        cat_cols = [np.concatenate([part[0][name] for part in parts])
                    for name in names]
        counts = np.concatenate([part[1] for part in parts])
        vsums = np.concatenate([part[2] for part in parts])
        vmins = np.concatenate([
            part[3] if part[3] is not None
            else np.full(part[1].shape[0], np.inf) for part in parts])
        vmaxs = np.concatenate([
            part[4] if part[4] is not None
            else np.full(part[1].shape[0], -np.inf) for part in parts])
        rep, g_counts, g_vs, g_vmin, g_vmax = _fold_rows(
            cat_cols, counts, vsums, vmins, vmaxs)
        state = ColumnarTotals(names, [col[rep] for col in cat_cols],
                               g_counts, g_vs, g_vmin, g_vmax)
        self._columnar[key] = state
        self._count_fold(key, held, sum(int(part[1].shape[0])
                                        for part in batches))
        return state

    def finalize_epoch(self, epoch: int) -> int:
        """Eagerly fold every relation's pending batches for one epoch.

        The incremental runtime calls this as each epoch closes, so a
        long-running system holds only compact per-group state for past
        epochs — raw eviction batch lists are released here. Returns the
        number of keys folded (for the ``hfta.merge`` metrics).
        """
        keys = [k for k in self._batches if k[1] == epoch]
        for relation, ep in keys:
            self._fold(relation, ep)
        return len(keys)

    def finalize(self) -> int:
        """Fold every pending key (e.g. before checkpointing)."""
        keys = list(self._batches)
        for relation, epoch in keys:
            self._fold(relation, epoch)
        return len(keys)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def epochs_seen(self) -> list[int]:
        """All epoch ids for which any relation received evictions."""
        return sorted({epoch for (_, epoch) in self._keys()})

    def epochs(self, relation: AttributeSet) -> list[int]:
        """Epoch ids for which this relation received evictions."""
        return sorted({epoch for (rel, epoch) in self._keys()
                       if rel == relation})

    def _keys(self) -> set[tuple[AttributeSet, int]]:
        return set(self._batches) | set(self._columnar)

    def totals_columnar(self, relation: AttributeSet,
                        epoch: int) -> ColumnarTotals | None:
        """The folded columnar state for one key (None if never fed).

        Folds pending batches first, so the returned arrays are always
        one row per group.
        """
        return self._fold(relation, epoch)

    def query_answer(self, query: AggregationQuery,
                     epoch: int) -> QueryAnswer:
        """The final answer of a query for one epoch.

        Applies the aggregate function (``count``/``sum``/``avg``/
        ``min``/``max``) as a whole-array operation over the columnar
        state and turns the HAVING threshold (on group count) into a
        mask; the returned :class:`QueryAnswer` builds its dict only if
        a caller reads it key by key.
        """
        state = self._fold(query.group_by, epoch)
        if state is None:  # never fed: an empty answer
            names = query.group_by.names
            state = ColumnarTotals(names, [np.empty(0, dtype=np.int64)
                                           for _ in names])
        counts = state.counts
        kind = query.aggregate.kind
        if kind == "count":
            values = counts.astype(np.float64)
        elif kind == "sum":
            values = state.value_sums
        elif kind == "avg":
            values = np.zeros(state.n_groups)
            np.divide(state.value_sums, counts, out=values,
                      where=counts != 0)
        elif kind == "min":
            values = state.value_mins
        else:  # max
            values = state.value_maxs
        keep = None
        if query.having_min is not None:
            keep = counts >= query.having_min
            if keep.all():
                keep = None
        return QueryAnswer(state, values, keep)

    def all_answers(self, query: AggregationQuery
                    ) -> dict[int, QueryAnswer]:
        """Per-epoch answers for a query, over all epochs seen."""
        return {epoch: self.query_answer(query, epoch)
                for epoch in self.epochs(query.group_by)}
