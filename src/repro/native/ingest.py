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

*The pool.* Walks run off the caller's thread as jobs of the library's
pool of persistent helper threads (``repro_pool_submit``/``wait``): no
GIL, started at the first job that asks for them (up to ``cores() -
1``), asleep between jobs, pinned away from the caller's CPU, none in a
forked child. The caller takes every fold, so every block comes from
its malloc arena, and a call's first failing job sets its stop word:
nothing further starts, and the call raises once every job has run.
:func:`ingest_epochs` makes a call over several epochs one descriptor
that its threads pull epochs from. Each helper runs one job that takes
a free walk, claims the next epoch, arms the walk with the epoch's
seeds (in C), walks it and marks it walked, until no epoch is left; the
caller takes each epoch's folds as soon as it is walked, in the order
epochs are walked, which frees its walk, and between takes claims and
walks epochs itself. So no helper waits for the caller to hand it an
epoch, only for a free walk, and the call keeps one more walk than
threads.
A one-epoch call walks directly, or on lanes; a lane job no helper is
free for runs on the caller.

*One forest, many walks.* A :class:`Forest` is the configuration's
forest, derived and checked once, and the stream a call is bound to
(bound once per call, :meth:`Forest.bind`); a :class:`Walk` is one
thread's scratch, folds and counters, and points at it. The pool's
walks and the lanes are only threads over the one forest.

*Two lanes.* One epoch may be walked by two walks of the forest at
once (:class:`Lanes`): the caller's on its thread, a second as a job of
the pool, each relation by the walk the forest names its holder, into
that walk's scratch, folds and counters. A relation whose parent
another walk holds waits for it (the kernel marks each relation walked
in the forest's ``done`` words) and reads its eviction list through
that holder; it waits for nothing else, since every relation with
children has an eviction list of its own, written once a call. A parent
comes before its children, so the lanes cannot wait in a circle; a
waiting thread spins a while, then sleeps on the pool's wait word. The
caller takes the second lane's folds each as soon as its relation is
marked walked. The folds, runs and summed counters are a one-lane
call's, bit for bit.

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
import weakref
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro import native
from repro.native import library

__all__ = ["Fold", "Forest", "Lanes", "ShardIds", "Walk", "ingest_epochs",
           "ingest_runs"]


class _FoldStruct(ctypes.Structure):
    """``fold_t`` of :data:`repro.native.library.SOURCE`: every pointer a
    ``void *`` on this side."""

    _fields_ = [("n_seed", ctypes.c_int64), ("n_groups", ctypes.c_int64)] \
        + [(name, ctypes.c_void_p) for name in
           ("seed", "seed_w", "seed_vs", "seed_vmin", "seed_vmax", "rep",
            "w", "vs", "vmin", "vmax")]


class _ForestStruct(ctypes.Structure):
    """``forest_t`` of :data:`repro.native.library.SOURCE`: every pointer a
    ``void *`` on this side."""

    _fields_ = [(name, ctypes.c_int64) for name in
                ("n_rel", "max_buckets", "n_slices")] + \
        [(name, ctypes.c_void_p) for name in
         ("parent", "key_off", "key_col", "salt", "n_buckets", "depth",
          "emit", "feeds", "fold_slot", "columns", "values", "shard", "done",
          "holder")]


class _WalkStruct(ctypes.Structure):
    """``walk_t`` of :data:`repro.native.library.SOURCE`: every pointer a
    ``void *`` on this side."""

    _fields_ = [("forest", ctypes.c_void_p), ("longest", ctypes.c_int64)] + \
        [(name, ctypes.c_void_p) for name in
         ("keys", "slot_run", "bucket_pos", "runs", "order", "ev_i", "ev_f",
          "folds", "n_runs", "stats", "table")] + \
        [("cap", ctypes.c_int64), ("base", ctypes.c_int64)]


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


class ShardIds(NamedTuple):
    """Shard ids whose maker has checked them: C-contiguous int64, each
    in ``[0, slices)``. :meth:`Forest.bind` takes them without a pass over
    the ids, as ``simulate(..., shards=)`` does; an id outside the range
    would be walked into another table's memory. ``simulate`` and
    ``check_shard_ids`` are the checks that make them."""

    ids: np.ndarray
    slices: int


class Forest:
    """A configuration's forest, derived and checked once, and the stream
    a call is bound to: what every :class:`Walk` of it reads.

    Relations are numbered parents first (a parent before its children,
    in any order besides). ``parent[r]`` is relation ``r``'s parent's
    number (negative for a raw relation), ``keys[r]`` the indices of its
    attributes among the bound stream's columns, ``salts[r]`` its salt,
    ``sizes[r]`` its bucket count and ``emit[r]`` whether the walk folds
    its runs; ``values`` says whether the streams carry a value column.
    Each relation's table is ``slices`` slices of ``sizes[r]`` buckets
    side by side: a row lands in the slice its stream's shard id names
    (:meth:`bind`), slice 0 when the stream has none. :attr:`done` holds
    a lane call's words (:class:`Lanes`): ``done[r]`` once relation
    ``r`` is walked, ``done[n_rel]`` once a lane has failed.
    """

    def __init__(self, parent: Sequence[int],
                 keys: Sequence[Sequence[int]], salts: Sequence[int],
                 sizes: Sequence[int], emit: Sequence[bool], values: bool,
                 slices: int = 1):
        n_rel = len(parent)
        if any(len(seq) != n_rel for seq in (keys, salts, sizes, emit)):
            raise ValueError("every per-relation sequence needs one entry "
                             "per relation")
        self.parent = parent = [int(p) for p in parent]
        self.keys = keys = [[int(c) for c in k] for k in keys]
        self.salts = list(salts)
        self.sizes = sizes = [int(b) for b in sizes]
        self.emit = [bool(e) for e in emit]
        self.has_values = bool(values)
        self.slices = max(int(slices), 1)
        if min(sizes, default=1) < 1:
            raise ValueError("every table needs >= 1 bucket")
        if any(not k or min(k) < 0 for k in keys):
            raise ValueError("every relation needs >= 1 key column")
        # A relation with children appends its evictions to its own
        # list: feeds[r] is that list's slot plus 1, 0 for a leaf.
        depth, feeds, feeders = [0] * n_rel, [0] * n_rel, 0
        for r, p in enumerate(parent):
            if p >= r:
                raise ValueError("relations must come parents first")
            if p >= 0:
                depth[r] = depth[p] + 1
                if not feeds[p]:
                    feeders += 1
                    feeds[p] = feeders
        self.feeders = feeders
        self.fold_slot = fold_slot = [-1] * n_rel
        #: ``(relation, fold slot, key columns)`` of every emitting one.
        self.emitting = []
        for r, emits in enumerate(self.emit):
            if emits:
                fold_slot[r] = len(self.emitting)
                self.emitting.append((r, fold_slot[r], len(keys[r])))
        self.n_keys = sum(len(k) for k in keys)
        self.n_columns = max((max(k) + 1 for k in keys), default=0)
        self.max_buckets = max(sizes, default=1) * self.slices
        struct = self._struct = _ForestStruct(
            n_rel=n_rel, max_buckets=self.max_buckets, n_slices=self.slices)
        # The per-relation arrays side by side in one block of words:
        # one address read serves them all.
        words = {"parent": parent, "key_off": np.cumsum([0, *map(len, keys)]),
                 "key_col": [c for k in keys for c in k],
                 "salt": np.array([s & 0xFFFFFFFFFFFFFFFF for s in self.salts],
                                  dtype=np.uint64).view(np.int64),
                 "n_buckets": sizes, "depth": depth, "emit": self.emit,
                 "feeds": feeds, "fold_slot": fold_slot,
                 "columns": [0] * self.n_columns, "done": [0] * (n_rel + 1)}
        self._block = block = np.concatenate(
            [np.asarray(w, dtype=np.int64) for w in words.values()])
        base, offset, fields = library.address(block), 0, {}
        for name, w in words.items():
            fields[name] = block[offset:offset + len(w)]
            setattr(struct, name, base + 8 * offset)
            offset += len(w)
        self.done = fields["done"]
        #: The address of a lane call's stop word, ``done[n_rel]``.
        self._stop = struct.done + 8 * n_rel
        self._column_ptrs = fields["columns"].view(np.uintp)
        self._ref = ctypes.byref(struct)
        self.rows, self.columns, self.values, self.shards = 0, [], None, None

    def bind(self, columns: Sequence[np.ndarray],
             values: np.ndarray | None,
             shards: ShardIds | None = None) -> None:
        """Point every walk of the forest at a stream: its integer
        attribute columns (the ones ``keys`` index), its value column,
        or None, and its rows' checked shard ids, whose slice count must
        not pass the forest's, or None for slice 0."""
        if len(columns) < self.n_columns or \
                (values is not None) != self.has_values:
            raise ValueError("the stream does not have the forest's "
                             "columns")
        if shards is not None:
            if shards.slices > self.slices:
                raise ValueError(f"shard ids must lie in [0, "
                                 f"{self.slices})")
            shards = shards.ids
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


class Walk:
    """One thread's scratch for walks of a :class:`Forest`, for
    :func:`ingest_runs`: it walks whatever stream the forest is bound
    to.

    Scratch for epochs of up to ``longest`` records is allocated by the
    kernel (``repro_walk_reserve``) and grows in place (:meth:`reserve`),
    and so is the folds' group table, as large as the largest fold
    needs; both are released with the walk. :attr:`stats` holds the
    per-relation counters ``(arrivals_intra, arrivals_flush,
    evictions_intra, evictions_flush)`` summed over every call since it
    was last zeroed.
    """

    def __init__(self, forest: Forest, longest: int):
        lib = library.library()
        self.forest = forest
        n_rel = len(forest.parent)
        struct = self._struct = _WalkStruct(
            forest=ctypes.addressof(forest._struct))
        # Kept alive here for as long as the kernel may read them.
        self._arrays = arrays = {
            "keys": np.zeros(forest.n_keys, dtype=np.int64),
            "n_runs": np.zeros(n_rel, dtype=np.int64),
            "stats": np.zeros((n_rel, 4), dtype=np.int64),
            "slot_run": np.empty(forest.max_buckets, dtype=np.int64),
            "bucket_pos": np.empty(forest.max_buckets, dtype=np.int64)}
        for name, array in arrays.items():
            setattr(struct, name, library.address(array))
        self.n_runs, self.stats = arrays["n_runs"], arrays["stats"]
        self._folds = (_FoldStruct * len(forest.emitting))()
        self._fold_room = 0
        struct.folds = ctypes.addressof(self._folds)
        self._ref = ctypes.byref(struct)
        weakref.finalize(self, lib.repro_walk_free, self._ref)
        self.reserve(longest)
        self.reserve_folds(self.longest)

    @property
    def longest(self) -> int:
        """The longest epoch the held scratch takes."""
        return self._struct.longest

    def reserve(self, longest: int) -> None:
        """Scratch for epochs of up to ``longest`` records: the held
        scratch when it is enough, else new scratch in its place (the
        walk and its folds stay); :class:`MemoryError` when there is no
        memory for it."""
        longest = max(int(longest), 1)
        if longest > self.longest and library.library().repro_walk_reserve(
                self._ref, longest, self.forest.feeders,
                self.forest.has_values) < 0:
            raise MemoryError("no memory for a walk's scratch")

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


class Lanes:
    """Two walks of one forest that walk one epoch together
    (:func:`ingest_runs`'s ``lanes=``): :attr:`walks` is ``(first,
    second)``, the first walked on the calling thread and the second by
    a helper of the library's pool, relation ``r`` by walk ``lane[r]``
    (0 or 1), waiting for its parent when the other walk holds it.
    :attr:`ran` is the lane count of the last call through these lanes:
    2, or 1 when no helper was free."""

    def __init__(self, first: Walk, second: Walk, lane: Sequence[int]):
        self.lane = lane = tuple(int(x) for x in lane)
        if len(lane) != len(first.forest.parent) or not set(lane) <= {0, 1}:
            raise ValueError("every relation needs lane 0 or 1")
        self.walks, self.ran = (first, second), 1
        #: ``holder[r]``, the walk that walks relation ``r``.
        self._holder = np.array([ctypes.addressof(self.walks[x]._struct)
                                 for x in lane], dtype=np.uintp)
        #: The second lane's job.
        self._job = np.zeros(10, dtype=np.uint64)

    def _point(self, on: bool) -> None:
        """Point the forest at the lanes for a call, or back to one."""
        self.walks[0].forest._struct.holder = (
            library.address(self._holder) if on else None)


def _take(lib, own: Walk, relation: int | None = None) -> list[Fold]:
    """The folds of the relations ``own`` walked in its last call (or of
    ``relation`` alone), in walk order: one block per fold with a group,
    made here and filled by the kernel, which the Fold views."""
    out, folds = [], own._folds
    for r, slot, k in own.forest.emitting:
        groups = folds[slot].n_groups
        if groups and relation in (None, r):
            block = np.empty((4 + k, groups), dtype=np.int64)
            lib.repro_walk_take(own._ref, r, library.address(block))
            sums, mins, maxs = block[1:4].view(np.float64)
            out.append(Fold(r, block[0], sums, mins, maxs,
                            int(own.n_runs[r]), list(block[4:])))
    return out


#: Words of an epoch ahead of its seeds (its first row, length, times
#: and weights) and of one fold slot's seed (its group count and five
#: addresses): ``EPOCH_HEAD`` and ``SEED_WORDS`` of the library's source.
_EPOCH_HEAD, _SEED_WORDS = 4, 6


class _Epoch(NamedTuple):
    """One epoch of a call, checked (:func:`_checked`)."""

    start: int
    t: np.ndarray
    w: np.ndarray
    #: Its words as the library reads them: the head, then each fold
    #: slot's seed (all 0 for none).
    words: np.ndarray
    #: The fold room it needs: its records after its largest seed.
    room: int
    #: The seed arrays its words point into.
    held: list


def _checked(walks: Sequence[Walk], start: int, t: np.ndarray,
             w: np.ndarray, seeds: Mapping[int, Seed] | None,
             words: np.ndarray | None = None) -> _Epoch:
    """One epoch of a call, checked against the forest of ``walks`` and
    their scratch before any of them reads it, its words written into
    ``words`` (a row of the call's, or a new one)."""
    forest, n = walks[0].forest, int(t.shape[0])
    if not 0 <= start <= start + n <= forest.rows or \
            any(n > own.longest for own in walks):
        raise ValueError(f"epoch rows [{start}, {start + n}) outside the "
                         f"forest's stream or a walk's scratch")
    if w.shape != t.shape or t.dtype != np.int64 or w.dtype != np.int64 \
            or not (t.flags.c_contiguous and w.flags.c_contiguous):
        raise ValueError("t and w must be equal-length contiguous int64")
    if words is None:
        words = np.zeros(_EPOCH_HEAD + _SEED_WORDS * len(forest.emitting),
                         dtype=np.uint64)
    words[:_EPOCH_HEAD] = start, n, t.ctypes.data, w.ctypes.data
    held, largest = [], 0
    for r, seed in (seeds or {}).items():
        if not 0 <= r < len(forest.emit) or not forest.emit[r]:
            raise ValueError(f"relation {r} does not emit: nothing to seed")
        g, arrays, addresses = _seed_state(seed, len(forest.keys[r]))
        at = _EPOCH_HEAD + _SEED_WORDS * forest.fold_slot[r]
        words[at:at + _SEED_WORDS] = g, *addresses
        held.append(arrays)
        largest = max(largest, g)
    return _Epoch(start, t, w, words, n + largest, held)


def _arm(lib, walks: Sequence[Walk], epoch: _Epoch | None) -> None:
    """Point the folds of ``walks`` at ``epoch``'s seeds, or at none."""
    seeds = None if epoch is None else \
        epoch.words.ctypes.data + 8 * _EPOCH_HEAD
    for own in walks:
        lib.repro_walk_arm(own._ref, seeds)


def _room(walks: Sequence[Walk], epochs: Sequence[_Epoch]) -> None:
    """Fold outputs in every walk for the longest epoch after its
    seeds, made on the calling thread."""
    room = max((epoch.room for epoch in epochs), default=0)
    for own in walks:
        own.reserve_folds(room)


def _walk_lanes(lib, lanes: Lanes, epoch: _Epoch) -> list[Fold] | None:
    """Both lanes of one epoch, the second lane's walk a job of the
    library's pool and the first's here; None, with nothing walked, when
    no helper is free. This thread takes both walks' folds, its own
    while the second lane still walks and each of the second's as soon
    as the kernel marks its relation walked, so every block comes from
    this thread's malloc arena, as a one-lane take's do. The first
    lane's walk returns once its relations are marked or the stop word
    is set, so whatever this thread raises, the second lane's job ends
    and is waited for. Every fold in walk order, or :class:`MemoryError`
    once both lanes have stopped when a fold of either ran out of
    memory."""
    first, second = lanes.walks
    forest = first.forest
    start, t, w = epoch.start, epoch.t, epoch.w
    lanes.ran = 1
    forest.done[:] = 0
    lanes._point(True)
    try:
        job = library.job(lanes._job, library.JOB_WALK, forest._stop,
                          ctypes.addressof(second._struct), start,
                          t.ctypes.data, w.ctypes.data, t.shape[0])
        if lib.repro_pool_submit(job, native.cores() - 1) < 0:
            return None
        out = None
        try:
            if lib.repro_walk(first._ref, start, t.ctypes.data,
                              w.ctypes.data, t.shape[0]) == 0:
                out = _take(lib, first)
                for r, _, _ in forest.emitting:
                    if lanes.lane[r] == 1:
                        if lib.repro_walk_wait(forest._ref, r) < 0:
                            out = None
                            break
                        out += _take(lib, second, r)
        finally:
            if lib.repro_pool_wait(job) < 0:
                out = None
    finally:
        lanes._point(False)
    if out is None:
        raise MemoryError("no memory for the ingest walk's group table")
    lanes.ran = 2
    return sorted(out, key=lambda fold: fold.relation)


def ingest_runs(walk: Walk, start: int, t: np.ndarray, w: np.ndarray,
                seeds: Mapping[int, Seed] | None = None,
                lanes: Lanes | None = None) -> list[Fold]:
    """Run one epoch through every relation of ``walk`` in one call.

    Rows ``[start, start + len(t))`` of the forest's stream arrive at the
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

    With ``lanes`` (of ``walk`` and a second walk of its forest) the
    epoch is walked on two lanes at once, the second a job of the
    library's pool, each relation's counters in its lane's ``stats``;
    when no helper is free the call walks one lane (``lanes.ran``). The
    folds, the runs and the counters' sum are those of one lane, bit
    for bit. A fold that runs out of memory in either lane stops both
    and raises :class:`MemoryError`.
    """
    lib = library.library()
    walks = (walk,) if lanes is None else lanes.walks
    if walks[0] is not walk:
        raise ValueError("the lanes are another walk's")
    epoch = _checked(walks, start, t, w, seeds)
    _room(walks, [epoch])
    # a seed goes to the fold of whichever walk walks its relation
    _arm(lib, walks, epoch)
    try:
        out = None if lanes is None else _walk_lanes(lib, lanes, epoch)
        if out is None:
            if lib.repro_walk(walk._ref, start, t.ctypes.data,
                              w.ctypes.data, t.shape[0]) < 0:
                raise MemoryError(
                    "no memory for the ingest walk's group table")
            out = _take(lib, walk)
    finally:
        _arm(lib, walks, None)
    return out


class _EpochsStruct(ctypes.Structure):
    """``epochs_t`` of :data:`repro.native.library.SOURCE`: every pointer
    a ``void *`` on this side."""

    _fields_ = [(name, ctypes.c_int64) for name in
                ("n_epochs", "n_walks", "row")] + \
        [(name, ctypes.c_void_p) for name in
         ("epochs", "walks", "state", "idle")] + \
        [(name, ctypes.c_int64) for name in
         ("free", "next", "walked", "stop", "by_caller", "low")]


class _Epochs:
    """A call over several epochs as the threads that walk it see it: one
    descriptor (``epochs_t``) with each epoch's checked words, the walks
    and which of them are free, a claim counter, the call's stop word and
    one state word per epoch (:attr:`state`: 0 until it is walked, then
    1 + the walk holding its folds, then -1 once they are taken)."""

    def __init__(self, walks: Sequence[Walk], epochs: Sequence[tuple]):
        forest = walks[0].forest
        self.words = np.zeros(
            (len(epochs), _EPOCH_HEAD + _SEED_WORDS * len(forest.emitting)),
            dtype=np.uint64)
        self.epochs = [_checked(walks, *epoch, words)
                       for epoch, words in zip(epochs, self.words)]
        self.state = np.zeros(len(epochs), dtype=np.int64)
        self._idle = np.ones(len(walks), dtype=np.int64)
        self._walks = np.array([ctypes.addressof(own._struct)
                                for own in walks], dtype=np.uintp)
        self._struct = _EpochsStruct(
            n_epochs=len(epochs), n_walks=len(walks),
            row=self.words.shape[1], epochs=self.words.ctypes.data,
            walks=self._walks.ctypes.data, state=self.state.ctypes.data,
            idle=self._idle.ctypes.data, free=len(walks))
        self._ref = ctypes.byref(self._struct)

    def job(self, row: np.ndarray) -> int:
        """``row`` made a helper's job of the call."""
        at = ctypes.addressof(self._struct)
        return library.job(row, library.JOB_EPOCHS,
                           at + _EpochsStruct.stop.offset, at)


def ingest_epochs(walks: Sequence[Walk],
                  epochs: Sequence[tuple[int, np.ndarray, np.ndarray,
                                         Mapping[int, Seed] | None]]
                  ) -> tuple[list[list[Fold]], int]:
    """Several epochs, each ``(start, t, w, seeds)`` as
    :func:`ingest_runs` takes one, each walked on one of ``walks`` (kept
    walks of one forest, which is bound to the stream): every epoch's
    folds, in epoch order, and how many epochs the calling thread
    walked.

    The call is one descriptor that its threads pull epochs from: up to
    ``min(cores, epochs) - 1`` helpers of the library's pool, each one
    job that takes a free walk, claims the next epoch, arms the walk
    with the epoch's seeds, walks it and marks it walked, until no epoch
    is left; and the calling thread, which takes each epoch's folds as
    soon as it is walked, in the order epochs are walked, which frees
    its walk, and between takes claims and walks epochs itself. No
    thread waits for another to hand it an epoch, and with one more walk
    than threads a thread that finishes an epoch finds a free walk while
    the caller still walks or takes. The folds are returned in epoch
    order; the folds, runs and summed counters are those of one walk,
    bit for bit, and every block comes from the caller's malloc arena.
    A walk that fails sets the call's stop word: no further epoch is
    claimed, and once every job has run the call raises
    :class:`MemoryError` (an exception on the caller stops it so too,
    and is raised as itself). Whatever ends the call, no walk keeps a
    seed of it.
    """
    lib = library.library()
    call = _Epochs(walks, epochs)
    _room(walks, call.epochs)
    helpers = min(native.cores(), len(epochs), len(walks)) - 1
    rows = np.zeros((max(helpers, 0), 10), dtype=np.uint64)
    jobs, out, e = [], [None] * len(epochs), -1
    try:
        for row in rows:
            job = call.job(row)
            if lib.repro_pool_submit(job, helpers) < 0:
                break
            jobs.append(job)
        while 0 <= (e := lib.repro_epochs_next(call._ref, e)) < len(out):
            out[e] = _take(lib, walks[call.state[e] - 1])
    except BaseException:
        lib.repro_epochs_stop(call._ref)
        raise
    finally:
        for job in jobs:
            lib.repro_pool_wait(job)
        _arm(lib, walks, None)
    if call._struct.stop:
        raise MemoryError("no memory for the ingest walk's group table")
    return out, call._struct.by_caller
