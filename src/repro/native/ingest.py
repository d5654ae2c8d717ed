"""The engine's LFTA pass in C: one call walks the forest.

``repro_walk``, the walk of the native library
(:mod:`repro.native.library`), *simulates the direct-mapped tables
directly*, every relation of the configuration in one call per epoch:
for each relation in topological order, one cache-friendly pass over its
time-ordered arrivals that hashes, probes, accumulates, and detects
collisions per record, then the end-of-epoch flush. A vectorized walk
would instead pay a chain of whole-array passes per relation — a pack
of the key columns, the salted splitmix64 chain, an ``argsort`` by
(bucket, time), run-boundary detection, segment sums — and hand each
relation's evictions to its children in Python; that sort-based walk
is the test suite's reference (``tests/references.py``).
The pass hashes a block of 256 arrivals column by column
(``hash_block``), then probes that block: the hashes of a block are
independent, so they run in vector lanes. The raw arrivals of an epoch
are a contiguous range of the stream's rows.

*Shards.* A relation's table may be several slices side by side, one
per shard: a row whose shard id is ``s`` lands in bucket ``s * b +
hash mod b`` of a relation with ``b`` buckets per slice, and an
eviction lands in its representative row's slice. Buckets are
shard-major, so each slice sees its shard's records in their order,
the flush scans shard 0's slice first and a fold takes shard 0's runs
first: a sharded stream walks as its shards would one after the other,
in one pass. A stream without shard ids is one slice.

*The feed.* A relation appends every eviction, in the order it happens,
to its eviction list: the collisions in arrival-time order, then the
flush in bucket order. Every eviction time is later than the one before,
so the list read in order *is* each child's time-ordered arrival stream —
no sort between parent and child. An eviction carries the raw row of its
run's representative, and children hash and compare the raw attribute
columns through that row: equal on the parent's attributes means equal
on the child's, so nothing is projected or copied.

*The fold.* A relation whose emit flag is set (a query; a relation may
emit and feed children) is the HFTA's input, and
the walk does the HFTA's work on it (paper Sec. 2.2): its runs, in
emission order (bucket, start-time), go straight into an
open-addressing group table — the library's ``find_slot`` probe,
equality on the raw columns — that folds them to one row per group. A
fold may *extend* a state the caller hands in (a seed): the seed's
groups, with their aggregates, enter first, then the runs, which is the
HFTA's own ordering rule, so an epoch folded in two calls adds its
floats in the order of one. After the walk the kernel
writes, per emitting relation, every group's int64 count, float64
sum/min/max and key columns (a new group's read through its
representative's raw row, a seed group's from the seed), in
first-appearance order, into one block sized to that fold's groups: the
HFTA keeps those arrays as the key's state, with no copy and no gather
in Python. A block per fold, not per call, keeps each below the size
glibc maps on its own, so the blocks of a run freed come back from the
heap, as the separate arrays of a numpy fold do.

*The bound.* A relation-epoch costs its arrivals and runs, never its
table size: a slot is valid only when it names a run of the current pass
that started in that bucket (so the slot array is never initialised or
reset), and the flush and the emission order either scan the buckets or
sort the runs by bucket, whichever the table size against the run count
makes cheaper. The group table is emptied by raising its base, never by
a scan, and grows (here, in C) only when a fold outgrows half of it.

*Two lanes.* One epoch may be walked by two walks of the forest at
once (:class:`Lanes`): the caller's on its thread, a second on the
library's helper thread, each relation by one of them into that walk's
scratch, folds and counters. A relation whose parent the other lane
walks waits for it (the kernel marks each relation walked in a word
both lanes share) and reads its eviction list in the other walk. A walk
keeps one eviction buffer per depth, which siblings at that depth
refill in turn; so a relation that would refill a buffer the other
lane's children still read waits for them first (a release, not a
copy). :func:`lane_waits` is that rule, the one body both the
:class:`Lanes` a call hands the kernel and the engine's lane schedule
read. Every wait is on an earlier relation, so the lanes cannot wait
in a circle; a waiting thread spins a while, then sleeps on a futex.
A fold that fails in either lane marks the call failed and the other
stops at its next wait. The helper is one thread per process, started
at the first two-lane call, asleep between calls and pinned away from
the caller's CPU (woken on that CPU, it would share the caller's core);
a forked child starts its own. The caller takes both lanes' folds, the
helper's each as soon as its relation is marked walked, so every block
comes from its malloc arena. The folds, runs and summed
counters are a one-lane call's, bit for bit: each relation is walked
once, from the same arrivals, into a walk of its own.

Bit-identity contract with the reference numpy walk of the test suite
and the HFTA's fold of its batches (pinned by
``tests/gigascope/test_forest_walk.py``,
``tests/gigascope/test_walk_fold.py`` and
``tests/gigascope/test_native_ingest.py``; the record-at-a-time
``SequentialLFTA`` judges both in ``test_differential.py``):

* *Runs.* A bucket's resident run is extended only while every raw
  attribute value matches the run's representative — the same
  equivalence relation as the collision-free packed codes, so the pack is
  fused away entirely.
* *Hashes.* The splitmix64 chain, a block of arrivals at a time (the
  library's ``hash_block``), replicates
  :func:`repro.gigascope.hashing._chain` op-for-op on C ``uint64_t``
  (identical wrap-around arithmetic).
* *Floats.* Value sums accumulate in arrival-time order starting from
  ``0.0`` — the order and seed of ``np.bincount`` over a sorted run — and
  min/max reproduce ``np.minimum``/``np.maximum`` NaN-propagation. A
  group's sum then adds its runs in emission order, after the seed's
  sum, as the HFTA's numpy fold adds the rows of a batch after the
  state's, and a NaN sum is written as ``np.nan``'s bits, as that fold
  writes it. With contraction and fast-math off
  (:data:`repro.native.build.DEFAULT_FLAGS`) C doubles and numpy float64
  round identically.
* *Order and counters.* A child sees its parent's evictions in time
  order, the order the numpy walk's ``(bucket, time)`` sort keeps within
  each bucket; emitted runs are folded in that ``lexsort((time,
  bucket))`` order, so groups appear in the order the HFTA's fold of the
  numpy walk's batch gives them; the intra/flush arrival and eviction
  counts are the numpy walk's, event for event.

Without the library a :class:`Walk` cannot be built: its constructor
raises :class:`~repro.errors.NativeLibraryError`.
"""

from __future__ import annotations

import ctypes
import os
import threading
import weakref
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.native import library

__all__ = ["Fold", "Lanes", "Walk", "ingest_runs", "lane_waits"]


class _FoldStruct(ctypes.Structure):
    """``fold_t`` of :data:`repro.native.library.SOURCE`: every pointer a
    ``void *`` on this side."""

    _fields_ = [("n_seed", ctypes.c_int64), ("n_groups", ctypes.c_int64)] \
        + [(name, ctypes.c_void_p) for name in
           ("seed", "seed_w", "seed_vs", "seed_vmin", "seed_vmax", "rep",
            "w", "vs", "vmin", "vmax")]


class _WalkStruct(ctypes.Structure):
    """``walk_t`` of :data:`repro.native.library.SOURCE`: every pointer a
    ``void *`` on this side."""

    _fields_ = [(name, ctypes.c_int64) for name in
                ("n_rel", "longest", "max_buckets", "n_slices")] + \
        [(name, ctypes.c_void_p) for name in
         ("parent", "key_off", "key_col", "salt", "n_buckets", "depth",
          "emit", "feeds", "fold_slot", "columns", "values", "shard", "keys",
          "slot_run", "bucket_pos", "runs", "order", "ev_i", "ev_f",
          "folds", "n_runs", "stats", "table")] + \
        [("cap", ctypes.c_int64), ("base", ctypes.c_int64)] + \
        [(name, ctypes.c_void_p) for name in
         ("lane", "wait_off", "wait_rel", "done", "other")] + \
        [("lane_id", ctypes.c_int64)]


#: 8-byte words of one ``run_t`` / ``order_t``.
_RUN_WORDS, _ORDER_WORDS = 7, 2


class Fold(NamedTuple):
    """One emitting relation's epoch, folded by :func:`ingest_runs`: one
    row per group in first-appearance order, the seed's groups first."""

    #: The relation's walk index.
    relation: int
    counts: np.ndarray
    sums: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    #: The runs (evicted partials) the walk folded in.
    runs: int
    #: Every group's key columns, in the relation's key order, written by
    #: the kernel from the representative rows (the seed's as handed in).
    columns: list[np.ndarray]


#: A state a fold extends: its key columns (in the relation's key order)
#: and its counts, sums, minima and maxima, one row per group.
Seed = tuple[Sequence[np.ndarray], np.ndarray, np.ndarray, np.ndarray,
             np.ndarray]


class Walk:
    """A configuration's forest and the kernel's scratch, for
    :func:`ingest_runs`; :meth:`bind` points it at a stream.

    Relations are numbered in topological order (a parent before its
    children, each subtree contiguous, as ``Configuration.order`` walks
    them). ``parent[r]`` is relation ``r``'s parent's number (negative
    for a raw relation), ``keys[r]`` the indices of its attributes among
    the bound stream's columns, and ``emit[r]`` whether the walk folds
    its runs; ``values`` says whether the streams carry a value column.
    Each relation's table is ``slices`` slices of ``buckets[r]`` buckets
    side by side: a row lands in the slice its stream's shard id names
    (:meth:`bind`), slice 0 when the stream has none.
    Scratch for epochs of up to ``longest`` records is allocated here
    and grows in place (:meth:`reserve`); it serves every stream the
    walk is bound to. The folds' group table is allocated by the kernel,
    as large as the largest fold needs, and released with the walk.
    :attr:`stats` holds the per-relation counters ``(arrivals_intra,
    arrivals_flush, evictions_intra, evictions_flush)`` summed over
    every call since it was last zeroed.
    """

    def __init__(self, parent: Sequence[int],
                 keys: Sequence[Sequence[int]], salts: Sequence[int],
                 buckets: Sequence[int], emit: Sequence[bool],
                 values: bool, longest: int, slices: int = 1):
        lib = library.library()
        n_rel = len(parent)
        if any(len(seq) != n_rel for seq in (keys, salts, buckets, emit)):
            raise ValueError("every per-relation sequence needs one entry "
                             "per relation")
        parent = [int(p) for p in parent]
        buckets = [int(b) for b in buckets]
        if min(buckets, default=1) < 1:
            raise ValueError("every table needs >= 1 bucket")
        if any(not k or min(k) < 0 for k in keys):
            raise ValueError("every relation needs >= 1 key column")
        depth = [0] * n_rel
        feeds = [0] * n_rel
        # One eviction buffer per depth is enough when each subtree is
        # contiguous: a relation's parent is still on the path from its
        # root when the relation's turn comes.
        path: list[int] = []
        for r, p in enumerate(parent):
            if p >= 0:
                while path and path[-1] != p:
                    path.pop()
                if not path:
                    raise ValueError("relations must come in depth-first "
                                     "order, parents first")
                depth[r] = depth[p] + 1
                feeds[p] = 1
            else:
                path.clear()
            path.append(r)
        self.parent, self.depth, self.feeds = parent, depth, feeds
        self.has_values = bool(values)
        self.emit = [bool(e) for e in emit]
        self.fold_slot = fold_slot = [-1] * n_rel
        #: ``(relation, fold slot, key columns)`` of every emitting one.
        self._emitting = []
        for r, emits in enumerate(self.emit):
            if emits:
                fold_slot[r] = len(self._emitting)
                self._emitting.append((r, fold_slot[r], len(keys[r])))
        self._levels = max((depth[r] + 1 for r in range(n_rel) if feeds[r]),
                           default=0)
        n_keys = sum(len(k) for k in keys)
        self.n_columns = max((max(k) + 1 for k in keys), default=0)
        self.slices = max(int(slices), 1)
        max_b = max(buckets, default=1) * self.slices
        struct = self._struct = _WalkStruct(
            n_rel=n_rel, max_buckets=max_b, n_slices=self.slices)
        # The per-relation arrays side by side in one block of words:
        # one address read serves them all.
        sizes = {"parent": n_rel, "key_off": n_rel + 1, "key_col": n_keys,
                 "salt": n_rel, "n_buckets": n_rel, "depth": n_rel,
                 "emit": n_rel, "feeds": n_rel, "fold_slot": n_rel,
                 "columns": self.n_columns, "keys": n_keys,
                 "n_runs": n_rel, "stats": 4 * n_rel}
        block = np.zeros(sum(sizes.values()), dtype=np.int64)
        base, offset, fields = library.address(block), 0, {}
        for name, size in sizes.items():
            fields[name] = block[offset:offset + size]
            setattr(struct, name, base + 8 * offset)
            offset += size
        fields["parent"][:] = parent
        fields["key_off"][1:] = np.cumsum([len(k) for k in keys])
        fields["key_col"][:] = [c for k in keys for c in k]
        fields["salt"].view(np.uint64)[:] = [s & 0xFFFFFFFFFFFFFFFF
                                             for s in salts]
        fields["n_buckets"][:] = buckets
        fields["depth"][:] = depth
        fields["emit"][:] = self.emit
        fields["feeds"][:] = feeds
        fields["fold_slot"][:] = fold_slot
        # Kept alive here for as long as the kernel may read them; the
        # bucket-sized scratch, which the kernel writes before it reads,
        # is apart from the block.
        self._arrays = arrays = {
            "block": block, "key_off": fields["key_off"],
            "slot_run": np.empty(max_b, dtype=np.int64),
            "bucket_pos": np.empty(max_b, dtype=np.int64),
        }
        struct.slot_run = library.address(arrays["slot_run"])
        struct.bucket_pos = library.address(arrays["bucket_pos"])
        self._folds = (_FoldStruct * len(self._emitting))()
        self._fold_room = 0
        struct.folds = ctypes.addressof(self._folds)
        self.longest = 0
        self.reserve(longest)
        self.reserve_folds(self.longest)
        self.n_runs = fields["n_runs"]
        self.stats = fields["stats"].reshape(n_rel, 4)
        self._column_ptrs = fields["columns"].view(np.uintp)
        self._ref = ctypes.byref(struct)
        weakref.finalize(self, lib.repro_walk_free, self._ref)
        self.rows = 0
        self.columns: list[np.ndarray] = []
        self.values: np.ndarray | None = None
        self.shards: np.ndarray | None = None

    def reserve(self, longest: int) -> None:
        """Scratch for epochs of up to ``longest`` records: the held
        scratch when it is enough, else new scratch in its place (the
        walk, its bound stream and its folds stay)."""
        longest = max(int(longest), 1)
        if longest <= self.longest:
            return
        L = self.longest = longest
        scratch = {
            "runs": np.empty((L, _RUN_WORDS), dtype=np.int64),
            "order": np.empty((L, _ORDER_WORDS), dtype=np.int64),
            "ev_i": np.empty((self._levels, 3, L), dtype=np.int64),
            "ev_f": np.empty((self._levels if self.has_values else 0, 3, L),
                             dtype=np.float64),
        }
        for name, array in scratch.items():
            setattr(self._struct, name, library.address(array))
        self._struct.longest = L
        self._arrays.update(scratch)  # the old scratch goes only now

    def reserve_folds(self, room: int) -> None:
        """Give every fold output room for ``room`` groups, a seed's
        groups first: one array each of reps, counts, sums, minima and
        maxima. The outputs are the walk's own, kept between calls and
        grown to what a call needs (:func:`ingest_runs` grows them when
        it must), so a seeded fold allocates nothing per call; a caller
        that walks on other threads reserves on its own first, since an
        array a thread allocates stays in that thread's malloc arena.
        One array per field keeps every block as long as the epoch plus
        the seed: one block of all of them, once freed, would raise
        glibc's mmap threshold past the size of a stream column, and the
        next stream's columns would stay resident in the heap."""
        if self._fold_room >= room:
            return
        self._fold_room = room
        self._fold_out = []
        for fold in self._folds:
            out = (np.empty(room, dtype=np.int64),
                   np.empty(room, dtype=np.int64),
                   *(np.empty(room, dtype=np.float64) for _ in range(3)))
            (fold.rep, fold.w, fold.vs, fold.vmin,
             fold.vmax) = map(library.address, out)
            self._fold_out.append(out)

    def bind(self, columns: Sequence[np.ndarray],
             values: np.ndarray | None,
             shards: np.ndarray | None = None) -> None:
        """Point the walk at a stream: its integer attribute columns (the
        ones ``keys`` index), its value column, or None, and its rows'
        shard ids (each in ``[0, slices)``), or None for slice 0."""
        if len(columns) < self.n_columns or \
                (values is not None) != self.has_values:
            raise ValueError("the stream does not have the walk's columns")
        if shards is not None:
            shards = np.ascontiguousarray(shards, dtype=np.int64)
            # one pass: a negative id reads as a huge unsigned one
            if shards.ndim != 1 or (shards.size and shards.view(
                    np.uint64).max() >= self.slices):
                raise ValueError(f"shard ids must be 1-D and lie in "
                                 f"[0, {self.slices})")
        addresses, self.columns = library.words(columns)
        self.values = (None if values is None else
                       np.ascontiguousarray(values, dtype=np.float64))
        self.shards = shards
        self._column_ptrs[:] = addresses[:self.n_columns]
        self._struct.values = (None if self.values is None
                               else self.values.ctypes.data)
        self._struct.shard = None if shards is None else shards.ctypes.data
        lengths = [a.shape[0] for a in (*self.columns[:1], self.values,
                                        shards) if a is not None]
        self.rows = min(lengths, default=0)

    def bind_like(self, other: "Walk") -> None:
        """Point the walk at the stream ``other`` is bound to, as
        :meth:`bind` checked it there: another thread's walk of the same
        forest, over the same stream, without a second pass over its
        shard ids."""
        if (other.n_columns, other.has_values, other.slices) != \
                (self.n_columns, self.has_values, self.slices):
            raise ValueError("the walks are not of one forest")
        self.columns, self.values = other.columns, other.values
        self.shards, self.rows = other.shards, other.rows
        self._column_ptrs[:] = other._column_ptrs
        self._struct.values = other._struct.values
        self._struct.shard = other._struct.shard


def _seed_state(seed: Seed, k: int):
    """A seed's group count, and its ``k`` key columns (as the uint64
    bits the kernel compares) and aggregates as the contiguous arrays
    the kernel reads, with every address; a seed of another shape is
    refused."""
    cols, counts = seed[0], seed[1]
    g = int(counts.shape[0])
    if len(cols) != k or any(np.shape(col) != (g,) for col in cols):
        raise ValueError(f"a seed needs {k} key columns of {g} rows")
    if any(np.asarray(col).dtype.kind not in "iub" for col in cols):
        raise ValueError("a seed's key columns must be integers, as the "
                         "stream's are")
    if any(np.shape(a) != (g,) for a in seed[2:]):
        raise ValueError(f"a seed needs its aggregates for {g} rows")
    addresses, keys = library.words(cols, g)
    aggregates = [np.ascontiguousarray(counts, dtype=np.int64)] + [
        np.ascontiguousarray(a, dtype=np.float64) for a in seed[2:]]
    return g, (keys, aggregates, addresses), [
        addresses.ctypes.data, *(a.ctypes.data for a in aggregates)]


def lane_waits(walk: Walk, lane: Sequence[int], r: int) -> list[int]:
    """What relation ``r`` of ``walk``'s forest waits for when the
    relations up to it walk on lanes ``lane[:r + 1]`` (0 or 1): the
    lanes' one wait rule, which :class:`Lanes` hands the kernel and the
    engine's lane schedule prices.

    A relation waits for its parent when the parent walks on the other
    lane. When it feeds, it also waits for the other lane's children of
    the relation before it in its lane at its depth that feeds: those
    children read the eviction buffer this relation refills (a walk
    keeps one buffer per depth). Every relation waited for comes
    earlier in the walk order, so two lanes never wait on each other in
    a circle."""
    parent, depth, feeds = walk.parent, walk.depth, walk.feeds
    own, p = lane[r], parent[r]
    waits = [p] if p >= 0 and lane[p] != own else []
    if feeds[r]:
        q = next((q for q in range(r - 1, -1, -1) if feeds[q]
                  and lane[q] == own and depth[q] == depth[r]), None)
        if q is not None:  # q's children all come before r
            waits += [c for c in range(q + 1, r)
                      if parent[c] == q and lane[c] != own]
    return waits


class Lanes:
    """Two walks of one forest that walk one epoch together
    (:func:`ingest_runs`'s ``lanes=``): :attr:`walks` is ``(first,
    second)``, the first walked on the calling thread and the second on
    the helper thread, relation ``r`` on walk ``lane[r]`` (0 or 1),
    waiting for what :func:`lane_waits` names.
    :attr:`ran` is the lane count of the last call through these lanes:
    2, or 1 when another call held the helper thread."""

    def __init__(self, first: Walk, second: Walk, lane: Sequence[int]):
        if (first.parent, first.n_columns, first.has_values,
                first.slices) != (second.parent, second.n_columns,
                                  second.has_values, second.slices):
            raise ValueError("the walks are not of one forest")
        n_rel = len(first.parent)
        self.lane = lane = tuple(int(x) for x in lane)
        if len(lane) != n_rel or not set(lane) <= {0, 1}:
            raise ValueError("every relation needs lane 0 or 1")
        self.waits = waits = [lane_waits(first, lane, r)
                              for r in range(n_rel)]
        self.walks, self.ran = (first, second), 1
        offsets = np.cumsum([0] + [len(x) for x in waits])
        self._block = block = np.zeros(
            3 * n_rel + 4 + int(offsets[-1]), dtype=np.int64)
        block[:n_rel] = lane
        block[n_rel:2 * n_rel + 1] = offsets
        #: Set by the kernel: ``done[r]`` once relation ``r`` is walked,
        #: ``done[n_rel]`` once a lane has failed; then its count of
        #: marks and of lanes asleep.
        self.done = block[2 * n_rel + 1:3 * n_rel + 4]
        block[3 * n_rel + 4:] = [x for w in waits for x in w]
        base = library.address(block)
        self._pointers = (base, base + 8 * n_rel,
                          base + 8 * (3 * n_rel + 4),
                          base + 8 * (2 * n_rel + 1))

    def _point(self, on: bool) -> None:
        """Point both walks at the lanes for a call, or back to one."""
        walks = self.walks
        for lane_id, own in enumerate(walks):
            struct = own._struct
            (struct.lane, struct.wait_off, struct.wait_rel,
             struct.done) = self._pointers if on else (None,) * 4
            struct.other = (ctypes.addressof(walks[1 - lane_id]._struct)
                            if on else None)
            struct.lane_id = lane_id


#: Held by the one call at a time that walks on two lanes: the library
#: has one helper thread. A forked child gets a new one
#: (:func:`_reset_after_fork`).
_LANE_LOCK = threading.Lock()


def _reset_after_fork() -> None:
    global _LANE_LOCK
    _LANE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _take(lib, own: Walk, relation: int | None = None) -> list[Fold]:
    """The folds of the relations ``own`` walked in its last call (or of
    ``relation`` alone), in walk order: one block per fold with a group,
    made here and filled by the kernel, which the Fold views."""
    out, folds = [], own._folds
    for r, slot, k in own._emitting:
        groups = folds[slot].n_groups
        if groups and relation in (None, r):
            block = np.empty((4 + k, groups), dtype=np.int64)
            lib.repro_walk_take(own._ref, r, library.address(block))
            sums, mins, maxs = block[1:4].view(np.float64)
            out.append(Fold(r, block[0], sums, mins, maxs,
                            int(own.n_runs[r]), list(block[4:])))
    return out


def _walk_lanes(lib, lanes: Lanes, start: int, t: np.ndarray,
                w: np.ndarray, n: int) -> list[Fold] | None:
    """Both lanes of one call, the caller holding the lane lock: the
    second lane's walk on the library's helper thread, the first's here.
    This thread takes both walks' folds, its own while the second lane
    still walks and each of the second's as soon as the kernel marks its
    relation walked, so every block comes from this thread's malloc
    arena, as a one-lane take's do, and the helper never needs the GIL.
    Returns every fold in walk order, or None when a fold of either lane
    ran out of memory."""
    first, second = lanes.walks
    t_at, w_at = t.ctypes.data, w.ctypes.data
    lanes.done[:] = 0
    lanes._point(True)
    out = None
    try:
        lib.repro_walk_submit(second._ref, start, t_at, w_at, n)
        try:
            if lib.repro_walk(first._ref, start, t_at, w_at, n) == 0:
                out = _take(lib, first)
                for r, _, _ in second._emitting:
                    if lanes.lane[r] == 1:
                        if lib.repro_walk_wait(first._ref, r) < 0:
                            out = None
                            break
                        out += _take(lib, second, r)
        finally:
            if out is None:  # failed or raised: the other lane stops
                lib.repro_walk_stop(first._ref)
            if lib.repro_walk_join(first._ref) < 0:
                out = None
    finally:
        lanes._point(False)
    if out is None:
        return None
    return sorted(out, key=lambda fold: fold.relation)


def ingest_runs(walk: Walk, start: int, t: np.ndarray, w: np.ndarray,
                seeds: Mapping[int, Seed] | None = None,
                lanes: Lanes | None = None) -> list[Fold]:
    """Run one epoch through every relation of ``walk`` in one call.

    Rows ``[start, start + len(t))`` of the walk's stream arrive at the
    raw relations at times ``t`` (distinct and ascending; ``[0, n)`` in
    every runtime) with weights ``w`` (all 1 in every runtime), each in
    its shard's slice of every table. The epoch is ``n = len(t)`` long,
    so the flush windows start at ``n``. Every other relation is fed its
    parent's evictions.

    Every emitting relation's runs are folded in the walk, in
    (bucket, start-time) order; ``seeds[r]``, when given, is the
    state relation ``r``'s fold extends (its groups first). Returns one
    :class:`Fold` per emitting relation with at least one run, in walk
    order; with a count-only stream the sums are 0.0 and the minima and
    maxima ``+inf``/``-inf``. The kernel writes every fold's counts,
    sums, minima, maxima and key columns into one block per fold, sized
    to its groups, which the returned arrays view: the caller keeps
    them as they are. The counters accumulate in ``walk.stats``.

    With ``lanes`` (of ``walk`` and a second walk bound like it) the
    epoch is walked on two lanes at once, the second on the helper
    thread, each relation's counters in its lane's ``stats``; the folds,
    the runs and the counters' sum are those of one lane, bit for bit.
    A fold that runs out of memory in either lane stops both and raises
    :class:`MemoryError`.
    """
    lib = library.library()
    n = int(t.shape[0])
    walks = (walk,) if lanes is None else lanes.walks
    if walks[0] is not walk:
        raise ValueError("the lanes are another walk's")
    if any(n > own.longest for own in walks) or \
            not 0 <= start <= start + n <= min(own.rows for own in walks):
        raise ValueError(f"epoch rows [{start}, {start + n}) outside the "
                         f"walk's stream or scratch")
    if w.shape != t.shape or t.dtype != np.int64 or w.dtype != np.int64 \
            or not (t.flags.c_contiguous and w.flags.c_contiguous):
        raise ValueError("t and w must be equal-length contiguous int64")
    # Every seed is checked before the walk's outputs take any of them.
    seeded = {}
    key_off = walk._arrays["key_off"]
    for r, seed in (seeds or {}).items():
        if not 0 <= r < len(walk.emit) or not walk.emit[r]:
            raise ValueError(f"relation {r} does not emit: nothing to seed")
        seeded[r] = _seed_state(seed, int(key_off[r + 1] - key_off[r]))
    room = n + max((g for g, _, _ in seeded.values()), default=0)
    for own in walks:
        own.reserve_folds(room)
    lock = _LANE_LOCK
    if lanes is not None:
        # one call at a time on two lanes: while another holds the
        # helper thread, or without one, this call walks one lane
        lanes.ran = 1
        if lock.acquire(blocking=False):
            if lib.repro_lanes_ready() == 0:
                lanes.ran = 2
            else:
                lock.release()
        if lanes.ran == 1:
            walks = (walk,)
    # a seed goes to the fold of the walk that walks its relation
    owner = {r: walks[lanes.lane[r] if len(walks) == 2 else 0]
             for r in seeded}
    try:
        for r, (g, _, addresses) in seeded.items():
            fold = owner[r]._folds[walk.fold_slot[r]]
            fold.n_seed = g
            (fold.seed, fold.seed_w, fold.seed_vs, fold.seed_vmin,
             fold.seed_vmax) = addresses
        if len(walks) == 2:
            out = _walk_lanes(lib, lanes, start, t, w, n)
        elif lib.repro_walk(walk._ref, start, t.ctypes.data, w.ctypes.data,
                            n) < 0:
            out = None
        else:
            out = _take(lib, walk)
        if out is None:
            raise MemoryError("no memory for the ingest walk's group table")
    finally:
        if len(walks) == 2:
            lock.release()
        for r in seeded:
            fold = owner[r]._folds[walk.fold_slot[r]]
            fold.n_seed = 0
            fold.seed = fold.seed_w = fold.seed_vs = fold.seed_vmin = \
                fold.seed_vmax = None
    return out
