"""Pipelined shared-memory executor: partitioner → shard workers → merge.

The process executor ships each shard's *whole* sub-stream through pickle
and runs partition → engine → merge as a hard barrier. This module
replaces that with the pipelined design of Gulisano et al. (*Efficient
data streaming multiway aggregation through concurrent algorithmic
designs*): one long-lived worker process per non-empty shard, fed
columnar epoch chunks through a :mod:`multiprocessing.shared_memory` ring
buffer, with a bounded free-slot semaphore providing backpressure and the
HFTA merge of epoch ``k`` overlapped with ingest of epoch ``k+1``.

Exactness is preserved by construction:

* The record-to-shard assignment is computed **once**, globally, before
  any chunking (``RoundRobinPartitioner`` and derived key-range bounds
  depend on the whole stream, so per-chunk assignment would diverge).
* Chunks are cut **at epoch boundaries**: a worker accumulates the chunks
  of one epoch and runs one engine pass over the assembled epoch —
  byte-identical to the pass a whole-shard run would make, because epochs
  are independent in the engine.
* Each worker ships one small HFTA per epoch, in stream order; the parent
  folds them into a per-shard partial with :class:`~repro.parallel.merge.
  EpochMerger` in receipt order, so each ``(relation, epoch)`` batch list
  ends up in the engine's own eviction order — the per-shard HFTA is
  batch-for-batch identical to a serial run of that shard, and the final
  :func:`~repro.parallel.merge.merge_results` is the unchanged exact
  merge.

Faults inject at the ring-buffer boundary (crash before the first read,
delay before ingest, corrupt on the final report), so the chaos matrix
exercises the same recovery ladder as the process executor: per-shard
retries on a fresh worker + ring, then the in-process serial fallback.
A timed-out or dead worker is torn down immediately — it cannot linger
as a zombie — and its accumulated partial is discarded before the retry.

Requires the POSIX ``fork`` start method: workers inherit the shared
memory mapping and the live :class:`~repro.core.configuration.
Configuration` directly, avoiding both per-batch pickling and the
double-registration bug of attaching to named shared memory from a
child's resource tracker (fixed only in 3.13's ``track=False``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _wait_connections
from typing import NamedTuple

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.errors import ConfigurationError, ReproError
from repro.gigascope.engine import simulate
from repro.gigascope.hfta import HFTA
from repro.gigascope.metrics import CostCounters, SimulationResult
from repro.gigascope.records import Dataset
from repro.observability import MetricsRegistry
from repro.parallel.merge import EpochMerger
from repro.parallel.sharded import _ShardJob, _validate_outcome
from repro.resilience.faults import CorruptResultError, InjectedFault

__all__ = ["PipelineCoordinator", "PipelineWorkerError",
           "require_fork"]

#: Poll granularity for backpressure stalls and the drain loop; bounds
#: how stale liveness/timeout checks can be while the parent is blocked.
_POLL_SECONDS = 0.02


class PipelineWorkerError(ReproError):
    """A pipeline worker died, misbehaved, or closed its channel."""


def require_fork() -> None:
    """Raise a typed error when POSIX ``fork`` is unavailable.

    The pipeline executor's shared-memory rings and engine setup are
    fork-inherited, so it cannot run under ``spawn``/``forkserver``-only
    platforms. :class:`~repro.parallel.ShardedStreamSystem` calls this at
    construction time so an unsupported ``executor='pipeline'`` request
    fails immediately with the platform's start method named, not deep
    in worker setup.
    """
    methods = mp.get_all_start_methods()
    if "fork" in methods:
        return
    default = mp.get_start_method(allow_none=True) or \
        (methods[0] if methods else "unknown")
    raise ConfigurationError(
        "the pipeline executor requires the 'fork' multiprocessing start "
        f"method (POSIX), but this platform ({sys.platform}) only offers "
        f"{methods} (default {default!r}); use executor='process' or "
        "'serial' instead")


def _fork_context():
    require_fork()
    return mp.get_context("fork")


class _EngineSetup(NamedTuple):
    """Everything a shard worker's engine passes need, fork-inherited."""

    configuration: Configuration
    buckets: dict[AttributeSet, int]
    epoch_seconds: float
    value_column: str | None
    salt_seed: int
    native: bool = True


class _ChunkLayout:
    """Fixed columnar slot layout: one int64 lane per grouping attribute
    plus one optional float64 value lane. Every lane is 8 bytes wide, so
    a slot is ``chunk_records * n_columns * 8`` bytes and column ``i``
    always starts at ``i * chunk_records * 8``.

    Per-record timestamps are deliberately **not** shipped: the parent
    cuts chunks at epoch boundaries and announces each epoch's id ahead
    of its chunks (punctuation), and the engine consumes timestamps only
    to find those same boundaries — so the worker synthesizes a constant
    in-epoch timestamp instead, saving a full lane of gather + copy
    bandwidth."""

    def __init__(self, schema, value_column: str | None, chunk_records: int):
        self.schema = schema
        self.attributes = tuple(schema.attributes)
        self.value_column = value_column
        self.chunk_records = int(chunk_records)
        self.dtypes = ([np.int64] * len(self.attributes)
                       + ([np.float64] if value_column else []))
        self.n_columns = len(self.dtypes)
        self.slot_bytes = self.chunk_records * self.n_columns * 8

    def stream_columns(self, dataset: Dataset) -> list[np.ndarray]:
        """The dataset's columns in slot order (attrs, then value)."""
        columns = [dataset.columns[name] for name in self.attributes]
        if self.value_column is not None:
            columns.append(dataset.values[self.value_column])
        return columns

    def dataset(self, merged: list[np.ndarray], epoch_id: int,
                epoch_seconds: float) -> Dataset:
        """Wrap one epoch's assembled column arrays as a Dataset, with a
        synthetic mid-epoch timestamp that floors back to ``epoch_id``
        under any positive ``epoch_seconds``."""
        columns = {name: merged[i]
                   for i, name in enumerate(self.attributes)}
        n = len(merged[0])
        timestamps = np.full(n, (epoch_id + 0.5) * epoch_seconds)
        values = ({self.value_column: merged[-1]}
                  if self.value_column is not None else {})
        return Dataset(self.schema, columns, timestamps, values)


class _ChunkRing:
    """Single-producer single-consumer ring of columnar chunk slots.

    The parent owns the shared-memory block (created and unlinked here);
    workers inherit the mapping via fork. Slot indices advance producer
    side as ``sequence % slots``; the consumer processes chunks FIFO and
    releases each slot after copying it out, so the free-slot semaphore
    alone is enough to keep the producer from overwriting live data.
    """

    def __init__(self, ctx, slots: int, layout: _ChunkLayout):
        self.slots = int(slots)
        self.layout = layout
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(8, self.slots * layout.slot_bytes))
        self.free = ctx.Semaphore(self.slots)
        self._destroyed = False

    def write(self, slot: int, columns: list[np.ndarray]) -> None:
        base = slot * self.layout.slot_bytes
        stride = self.layout.chunk_records * 8
        for i, column in enumerate(columns):
            view = np.frombuffer(self.shm.buf, dtype=self.layout.dtypes[i],
                                 count=len(column), offset=base + i * stride)
            view[:] = column

    def write_take(self, slot: int, columns: list[np.ndarray],
                   sel: np.ndarray) -> None:
        """Gather ``columns[sel]`` straight into the slot — one pass over
        the data instead of a temporary gather followed by a memcpy."""
        base = slot * self.layout.slot_bytes
        stride = self.layout.chunk_records * 8
        for i, column in enumerate(columns):
            view = np.frombuffer(self.shm.buf, dtype=self.layout.dtypes[i],
                                 count=len(sel), offset=base + i * stride)
            if column.dtype == view.dtype:
                np.take(column, sel, out=view)
            else:
                view[:] = column[sel]

    def views(self, slot: int, n: int) -> list[np.ndarray]:
        """Zero-copy views of a slot's columns. The consumer must copy
        the data out before releasing the slot's semaphore — after the
        release the producer is free to overwrite it."""
        base = slot * self.layout.slot_bytes
        stride = self.layout.chunk_records * 8
        return [np.frombuffer(self.shm.buf, dtype=dtype, count=n,
                              offset=base + i * stride)
                for i, dtype in enumerate(self.layout.dtypes)]

    def destroy(self) -> None:
        """Parent-side teardown: drop the mapping and the kernel object."""
        if self._destroyed:
            return
        self._destroyed = True
        try:
            self.shm.close()
        except BufferError:  # a stray view is still alive; leak the map,
            pass             # the unlink below still frees the name
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def _pipeline_worker(shard: int, attempt: int, ring: _ChunkRing,
                     layout: _ChunkLayout, chunks_rx, results_tx,
                     setup: _EngineSetup, fault_plan) -> None:
    """Worker loop: read epoch chunks off the ring, run the engine per
    epoch into accumulated counters, ship each epoch's HFTA immediately.

    Faults fire here, at the ring-buffer boundary, so injected crashes
    cross the real process boundary and corrupted reports flow through
    the parent's real outcome validation.
    """
    try:
        fault = (fault_plan.fault_for(shard, attempt)
                 if fault_plan is not None else None)
        if fault is not None:
            if fault.kind == "crash":
                raise InjectedFault(
                    f"injected crash: shard {shard}, attempt {attempt}")
            if fault.kind == "delay":
                time.sleep(fault.delay_seconds)
        registry = MetricsRegistry()
        counters = CostCounters(setup.configuration)
        epoch_arrays: list[np.ndarray] | None = None
        epoch_id = 0
        fill = 0
        n_records = 0
        n_epochs = 0
        while True:
            message = chunks_rx.recv()
            kind = message[0]
            if kind == "eos":
                break
            if kind == "begin":
                # The epoch's id and total size arrive ahead of its
                # chunks, so each chunk is copied out of the ring straight
                # into its final position — one pass, no temporaries.
                epoch_arrays = [np.empty(int(message[1]), dtype=dtype)
                                for dtype in layout.dtypes]
                epoch_id = int(message[2])
                fill = 0
                continue
            _, slot, n, epoch_end = message
            for dst, src in zip(epoch_arrays, ring.views(slot, n)):
                dst[fill:fill + n] = src
            ring.free.release()
            fill += n
            if not epoch_end:
                continue
            epoch = layout.dataset(epoch_arrays, epoch_id,
                                   setup.epoch_seconds)
            epoch_arrays = None
            epoch_hfta = HFTA()
            simulate(epoch, setup.configuration, setup.buckets,
                     setup.epoch_seconds, setup.value_column,
                     setup.salt_seed, counters=counters, hfta=epoch_hfta,
                     registry=registry, native=setup.native)
            n_records += len(epoch)
            n_epochs += 1
            results_tx.send(("epoch", n_epochs, epoch_hfta))
        if fault is not None and fault.kind == "corrupt":
            # Falsified record count, missing sub-registry: garbage the
            # parent's outcome validation must reject.
            results_tx.send(("done", n_records + 1, n_epochs, counters,
                             None))
        else:
            results_tx.send(("done", n_records, n_epochs, counters,
                             registry))
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        try:
            results_tx.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        os._exit(1)
    # send() has fully written the done message into the pipe, so skip
    # interpreter finalization: a normal exit would run a full GC over
    # the fork-inherited heap, copy-on-writing pages just to free them.
    os._exit(0)


class _Lane:
    """One shard's live attempt: worker process + ring + channels."""

    __slots__ = ("shard", "attempt", "proc", "ring", "chunks_tx",
                 "results_rx", "submitted", "sequence", "feeding", "done",
                 "failed", "error", "torn")

    def __init__(self, shard: int, attempt: int, proc, ring: _ChunkRing,
                 chunks_tx, results_rx):
        self.shard = shard
        self.attempt = attempt
        self.proc = proc
        self.ring = ring
        self.chunks_tx = chunks_tx
        self.results_rx = results_rx
        self.submitted = time.perf_counter()
        self.sequence = 0
        self.feeding = True
        self.done = False
        self.failed = False
        self.error: Exception | None = None
        self.torn = False


class PipelineCoordinator:
    """Drives one pipelined run for a :class:`ShardedStreamSystem`.

    Built fresh per run by ``ShardedStreamSystem._execute_pipeline`` with
    at least two non-empty shards; returns validated shard outcomes in
    ascending shard order (the same order the job-based executors use),
    applying the system's retry policy per shard — fresh worker + ring
    per attempt, serial fallback last.
    """

    def __init__(self, system, dataset: Dataset, shard_ids: np.ndarray,
                 live: list[int], resilience, rng):
        self.system = system
        self.dataset = dataset
        self.shard_ids = np.asarray(shard_ids)
        self.live = list(live)
        self.resilience = resilience
        self.rng = rng
        self.policy = system.retry_policy
        self.records = np.bincount(self.shard_ids, minlength=system.shards)
        self.layout = _ChunkLayout(dataset.schema, system.value_column,
                                   system.pipeline_chunk_records)
        self.slots = system.pipeline_ring_slots
        self.setup = _EngineSetup(
            system._single.configuration, system.shard_buckets,
            system.queries.epoch_seconds, system.value_column,
            system._single.salt_seed, system._single.native)
        self.ctx = _fork_context()
        self.merger = EpochMerger()
        self.lanes: dict[int, _Lane] = {}
        self.outcomes: dict[int, tuple] = {}
        self.chunks_sent = 0
        self.stalls = 0

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> list[tuple]:
        try:
            for shard in self.live:
                self.system._note_attempt(self.resilience, shard,
                                          int(self.records[shard]), 1,
                                          self.rng)
                self._start_lane(shard, 1)
            self._feed_main()
            self._drain()
            self._retry_failed()
        finally:
            for lane in list(self.lanes.values()):
                self._teardown_lane(lane, kill=True)
        self._publish_metrics()
        return [self.outcomes[shard] for shard in self.live]

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def _start_lane(self, shard: int, attempt: int) -> _Lane:
        ring = _ChunkRing(self.ctx, self.slots, self.layout)
        chunks_rx, chunks_tx = self.ctx.Pipe(duplex=False)
        results_rx, results_tx = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_pipeline_worker,
            args=(shard, attempt, ring, self.layout, chunks_rx, results_tx,
                  self.setup, self.system.fault_plan),
            name=f"repro-pipeline-shard{shard}", daemon=True)
        proc.start()
        # Close the worker-side handles in the parent so a dead worker
        # shows up as EOF instead of a silent hang.
        chunks_rx.close()
        results_tx.close()
        lane = _Lane(shard, attempt, proc, ring, chunks_tx, results_rx)
        self.lanes[shard] = lane
        return lane

    def _active(self) -> list[_Lane]:
        return [lane for lane in self.lanes.values()
                if not lane.done and not lane.failed]

    def _teardown_lane(self, lane: _Lane, kill: bool) -> None:
        if lane.torn:
            return
        lane.torn = True
        lane.feeding = False
        if kill and lane.proc.is_alive():
            lane.proc.terminate()
        lane.proc.join(timeout=2.0)
        if lane.proc.is_alive():
            lane.proc.kill()
            lane.proc.join(timeout=2.0)
        for channel in (lane.chunks_tx, lane.results_rx):
            try:
                channel.close()
            except OSError:
                pass
        lane.ring.destroy()

    def _fail_lane(self, lane: _Lane, exc: Exception) -> None:
        if lane.done or lane.failed:
            return
        lane.failed = True
        lane.error = exc
        self.system._note_failure(self.resilience, lane.shard,
                                  int(self.records[lane.shard]), exc,
                                  lane.submitted)
        # The shard restarts from scratch; its partial merge is garbage.
        self.merger.discard(lane.shard)
        self._teardown_lane(lane, kill=True)

    def _finish_lane(self, lane: _Lane, message: tuple) -> None:
        _, n_records, n_epochs, counters, registry = message
        records = int(self.records[lane.shard])
        result = SimulationResult(counters, self.merger.take(lane.shard),
                                  n_records, n_epochs)
        try:
            outcome = _validate_outcome((lane.shard, result, registry),
                                        index=lane.shard, records=records)
        except CorruptResultError as exc:
            self._fail_lane(lane, exc)
            return
        lane.done = True
        self.outcomes[lane.shard] = outcome
        self.resilience.outcome(lane.shard, records).succeeded = True
        self._teardown_lane(lane, kill=False)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """Service worker messages, then liveness, then timeouts."""
        for lane in self._active():
            self._service_lane(lane)
        for lane in self._active():
            if not lane.proc.is_alive():
                self._service_lane(lane)  # final messages already queued
                if not lane.done and not lane.failed:
                    self._fail_lane(lane, PipelineWorkerError(
                        f"shard {lane.shard} worker died with exit code "
                        f"{lane.proc.exitcode}"))
        timeout = self.policy.timeout_seconds
        if timeout is None:
            return
        now = time.perf_counter()
        for lane in self._active():
            if now - lane.submitted > timeout:
                self.resilience.cancelled_attempts += 1
                self._fail_lane(lane, TimeoutError(
                    f"attempt exceeded the {timeout:.3f}s per-attempt "
                    "timeout (measured from worker start)"))

    def _service_lane(self, lane: _Lane) -> None:
        while not lane.done and not lane.failed:
            try:
                if not lane.results_rx.poll(0):
                    return
                message = lane.results_rx.recv()
            except (EOFError, OSError):
                self._fail_lane(lane, PipelineWorkerError(
                    f"shard {lane.shard} worker closed its result channel"))
                return
            self._handle_message(lane, message)

    def _handle_message(self, lane: _Lane, message) -> None:
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "epoch" and len(message) == 3 \
                and isinstance(message[2], HFTA):
            self.merger.add(lane.shard, message[2])
        elif kind == "done" and len(message) == 5:
            self._finish_lane(lane, message)
        elif kind == "error" and len(message) == 2:
            self._fail_lane(lane, PipelineWorkerError(str(message[1])))
        else:
            self._fail_lane(lane, CorruptResultError(
                f"shard {lane.shard} sent a malformed pipeline message "
                f"({type(message).__name__})"))

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _feed_main(self) -> None:
        columns = self.layout.stream_columns(self.dataset)
        epoch_seconds = self.setup.epoch_seconds
        # One full-stream selection per shard, sliced per epoch below by
        # binary search — the per-(epoch, shard) mask scans would rescan
        # the id array live_shards times per epoch.
        selections = {shard: np.flatnonzero(self.shard_ids == shard)
                      for shard in self.live}
        for epoch_id, start, end in self.dataset.epoch_slices(epoch_seconds):
            for shard in self.live:
                lane = self.lanes[shard]
                if lane.failed or lane.done or not lane.feeding:
                    continue
                full = selections[shard]
                lo, hi = np.searchsorted(full, (start, end))
                if hi > lo:
                    self._send_epoch(lane, columns, full[lo:hi], epoch_id)
            self._tick()
        for shard in self.live:
            lane = self.lanes[shard]
            if not lane.failed and not lane.done and lane.feeding:
                self._send_eos(lane)

    def _send_epoch(self, lane: _Lane, columns: list[np.ndarray],
                    sel: np.ndarray, epoch_id: int) -> None:
        """Stream one epoch's records (``columns[sel]``) to one lane,
        chunk by chunk; the chunk carrying the epoch's tail is flagged so
        the worker knows the epoch is complete and can run its engine
        pass. The gather happens inside the shared-memory write, so the
        parent touches each record once."""
        n = len(sel)
        cap = self.layout.chunk_records
        try:
            lane.chunks_tx.send(("begin", n, epoch_id))
        except (BrokenPipeError, OSError):
            self._fail_lane(lane, PipelineWorkerError(
                f"shard {lane.shard} worker pipe closed mid-stream"))
            return
        pos = 0
        while pos < n and not lane.failed and not lane.done:
            take = min(cap, n - pos)
            if not self._acquire_slot(lane):
                return
            slot = lane.sequence % self.slots
            lane.ring.write_take(slot, columns, sel[pos:pos + take])
            try:
                lane.chunks_tx.send(("chunk", slot, take, pos + take == n))
            except (BrokenPipeError, OSError):
                self._fail_lane(lane, PipelineWorkerError(
                    f"shard {lane.shard} worker pipe closed mid-stream"))
                return
            lane.sequence += 1
            self.chunks_sent += 1
            pos += take

    def _acquire_slot(self, lane: _Lane) -> bool:
        """Backpressure: block on a free ring slot, but keep servicing the
        other lanes (overlapped merging) and liveness/timeout checks so a
        dead or slow worker cannot deadlock the feed."""
        while not lane.failed and not lane.done:
            if lane.ring.free.acquire(timeout=_POLL_SECONDS):
                return True
            self.stalls += 1
            self._tick()
        return False

    def _send_eos(self, lane: _Lane) -> None:
        lane.feeding = False
        try:
            lane.chunks_tx.send(("eos",))
        except (BrokenPipeError, OSError):
            self._fail_lane(lane, PipelineWorkerError(
                f"shard {lane.shard} worker pipe closed before eos"))

    def _drain(self) -> None:
        while True:
            active = self._active()
            if not active:
                return
            waitable = [lane.results_rx for lane in active]
            waitable += [lane.proc.sentinel for lane in active]
            _wait_connections(waitable, timeout=_POLL_SECONDS)
            self._tick()

    # ------------------------------------------------------------------
    # Retries
    # ------------------------------------------------------------------
    def _retry_failed(self) -> None:
        for shard in self.live:
            if shard not in self.outcomes:
                self._retry_shard(shard)

    def _retry_shard(self, shard: int) -> None:
        records = int(self.records[shard])
        row = self.resilience.outcome(shard, records)
        lane = self.lanes.get(shard)
        last_exc: Exception = (lane.error if lane is not None
                               and lane.error is not None
                               else PipelineWorkerError(
                                   f"shard {shard} never completed"))
        job = self._shard_job(shard)
        while row.attempts < self.policy.max_attempts:
            attempt = row.attempts + 1
            self.system._note_attempt(self.resilience, shard, records,
                                      attempt, self.rng)
            lane = self._start_lane(shard, attempt)
            self._feed_retry(lane, job)
            while not lane.done and not lane.failed:
                _wait_connections([lane.results_rx, lane.proc.sentinel],
                                  timeout=_POLL_SECONDS)
                self._tick()
            if lane.done:
                return
            last_exc = lane.error or last_exc
        self.outcomes[shard] = self.system._fallback_or_raise(
            job, self.resilience, self.rng, last_exc)

    def _shard_job(self, shard: int) -> _ShardJob:
        keep = self.shard_ids == shard
        dataset = self.dataset
        shard_dataset = Dataset(
            dataset.schema,
            {name: column[keep] for name, column in dataset.columns.items()},
            dataset.timestamps[keep],
            {name: column[keep] for name, column in dataset.values.items()})
        return _ShardJob(shard, shard_dataset, self.setup.configuration,
                         self.setup.buckets, self.setup.epoch_seconds,
                         self.setup.value_column, self.setup.salt_seed,
                         self.setup.native)

    def _feed_retry(self, lane: _Lane, job: _ShardJob) -> None:
        columns = self.layout.stream_columns(job.dataset)
        for epoch_id, start, end in job.dataset.epoch_slices(
                self.setup.epoch_seconds):
            if lane.failed or lane.done:
                return
            self._send_epoch(lane, columns, np.arange(start, end), epoch_id)
            self._tick()
        if not lane.failed and not lane.done:
            self._send_eos(lane)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _publish_metrics(self) -> None:
        registry = self.system.registry
        registry.counter("pipeline.chunks").inc(self.chunks_sent)
        registry.counter("pipeline.backpressure_stalls").inc(self.stalls)
        registry.counter("pipeline.epochs_merged").inc(
            self.merger.epochs_merged)
        registry.histogram("pipeline.merge_seconds").observe(
            self.merger.merge_seconds)
        registry.gauge("pipeline.ring_slots").set(self.slots)
        registry.gauge("pipeline.chunk_records").set(
            self.layout.chunk_records)
