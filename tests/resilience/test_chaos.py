"""A failing engine on the one sharded path.

Every run must end in one of exactly two states: answers identical to
the single-core oracle, or the engine's own error, raised as itself —
never a silent wrong answer. A sharded run is one walk over every
shard, so it fails as one, as an unsharded run does: nothing is
retried, nothing sleeps, and a failed run publishes no timings.
"""

import time

import numpy as np
import pytest

from repro import ShardedStreamSystem
from repro.errors import ConfigurationError
from repro.gigascope import engine as engine_module
from repro.parallel import HashPartitioner
from tests.references import KeyRange, RoundRobin

#: The built-in partitioner and two user ones; every shard of the
#: package's dataset gets records under each.
PARTITIONERS = {"hash": HashPartitioner(), "round-robin": RoundRobin(),
                "range": KeyRange("B", (25, 40))}


def sharded(dataset, queries, config, buckets, **kwargs):
    kwargs.setdefault("shards", 3)
    return ShardedStreamSystem(dataset, queries, config, buckets, **kwargs)


def assert_matches_oracle(report, single_report, queries):
    assert report.result.n_records == single_report.result.n_records
    assert report.result.n_epochs == single_report.result.n_epochs
    for query in queries:
        assert report.answers(query) == single_report.answers(query)


class TestCrashOnFirstAttempt:
    """A crash ends its run; the system stays usable for the next one."""

    def test_answers_match_fault_free_oracle(self, dataset, queries,
                                             config, buckets,
                                             single_report, fail_shards):
        crash = RuntimeError("crash")
        engine = fail_shards({1}, crash)
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(RuntimeError) as info:
            system.run()
        assert info.value is crash
        assert len(engine.calls) == 1
        report = system.run()
        assert len(engine.calls) == 2
        assert_matches_oracle(report, single_report, queries)

    def test_registry_counts_recovery(self, dataset, queries, config,
                                      buckets, fail_shards):
        """The failed run counts no engine work: after the rerun the
        registry counts exactly what one clean run counts."""
        clean = sharded(dataset, queries, config, buckets)
        clean.run()
        fail_shards({1}, RuntimeError("crash"))
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(RuntimeError, match="crash"):
            system.run()
        assert "engine.records" not in system.registry.counters
        system.run()
        counts = {name: counter.value
                  for name, counter in system.registry.counters.items()}
        assert counts == {name: counter.value
                          for name, counter in clean.registry.counters.items()}
        assert len([s for s in system.registry.spans
                    if s.name == "engine"]) == 1


class TestFailingShard:
    @pytest.mark.parametrize("cause", [
        ValueError("bad value"), KeyError("missing"), OSError("disk"),
        MemoryError("no room"), ConfigurationError("bad forest"),
    ], ids=lambda exc: type(exc).__name__)
    def test_engine_error_fails_the_run_as_itself(self, dataset, queries,
                                                  config, buckets,
                                                  fail_shards, sleeps,
                                                  cause):
        """Library errors included, the engine's one call raises and the
        run raises that error itself: nothing wraps it, nothing is
        retried or slept on."""
        engine = fail_shards({1}, cause)
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(type(cause)) as info:
            system.run()
        assert info.value is cause
        assert len(engine.calls) == 1
        assert system.last_timings is None
        assert sleeps == []

    @pytest.mark.parametrize("partition", list(PARTITIONERS))
    def test_run_fails_as_one_under_any_partition(self, dataset, queries,
                                                  config, buckets,
                                                  fail_shards, sleeps,
                                                  partition):
        """Whatever the partition, every shard is in the one failing
        call, and the partition it was handed stays published: no shard
        is singled out."""
        cause = ValueError("engine failed")
        engine = fail_shards({1}, cause)
        system = sharded(dataset, queries, config, buckets,
                         partitioner=PARTITIONERS[partition])
        with pytest.raises(ValueError) as info:
            system.run()
        assert info.value is cause
        assert all(system.partition_summary["records"])
        (ids,) = engine.calls
        assert np.array_equal(np.bincount(ids, minlength=3),
                              system.partition_summary["records"])
        assert system.last_timings is None
        assert sleeps == []

    def test_interrupt_is_not_wrapped(self, dataset, queries, config,
                                      buckets, fail_shards):
        """An interrupt stops the run as itself."""
        interrupt = KeyboardInterrupt()
        engine = fail_shards({1}, interrupt)
        with pytest.raises(KeyboardInterrupt) as info:
            sharded(dataset, queries, config, buckets).run()
        assert info.value is interrupt
        assert len(engine.calls) == 1

    def test_failed_run_publishes_no_shard_results(self, dataset, queries,
                                                   config, buckets,
                                                   fail_shards):
        fail_shards({1}, RuntimeError("crash"))
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(RuntimeError, match="crash"):
            system.run()
        assert system.shard_results is None
        assert system.last_timings is None
        assert system.registry.last_span("engine") is None
        assert system.registry.last_span("merge") is None
        assert "shards" not in system.registry.gauges

    def test_failed_rerun_unpublishes_the_previous_run(self, dataset,
                                                       queries, config,
                                                       buckets, fail_shards):
        """A run that fails after a successful one leaves nothing of the
        earlier run published: no timings that mix its engine span with
        the failed run's partition span."""
        system = sharded(dataset, queries, config, buckets)
        system.run()
        assert system.last_timings is not None
        fail_shards({1}, RuntimeError("crash"))
        with pytest.raises(RuntimeError, match="crash"):
            system.run()
        assert system.shard_results is None
        assert system.last_timings is None
        assert system.partition_summary["records"][1] > 0  # the failed run's
        system.run()  # the engine's second call on: no more failures
        registry = system.registry
        assert system.last_timings == {
            "partition_seconds": registry.last_span("partition").seconds,
            "engine_seconds": registry.last_span("engine").seconds,
        }
        assert system.shard_results is None


class TestDelayPastTimeout:
    def test_fast_shards_are_not_timed_out(self, dataset, queries, config,
                                           buckets, single_report,
                                           monkeypatch):
        """Nothing is ever timed out: a slow walk is waited for, its run
        counts like a fast one, and the engine span holds its time."""
        delay = 0.05
        for name in ("_walk_native", "_walk_numpy"):
            walk = getattr(engine_module, name)

            def slow_walk(*args, walk=walk, **kwargs):
                time.sleep(delay)
                return walk(*args, **kwargs)

            monkeypatch.setattr(engine_module, name, slow_walk)
        system = sharded(dataset, queries, config, buckets)
        assert_matches_oracle(system.run(), single_report, queries)
        assert system.last_timings["engine_seconds"] >= delay


class TestNoFaultBaseline:
    def test_resilience_report_attached_even_without_faults(
            self, dataset, queries, config, buckets, single_report):
        system = sharded(dataset, queries, config, buckets)
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        assert system.resilience_report is None
        assert not hasattr(report, "resilience")

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_one_engine_call_for_every_shard(self, dataset, queries,
                                             config, buckets,
                                             single_report, fail_shards,
                                             sleeps, shards):
        """Every shard is walked by one engine call: each record's id
        in ``[0, shards)``, each shard non-empty."""
        engine = fail_shards()
        report = sharded(dataset, queries, config, buckets,
                         shards=shards).run()
        (ids,) = engine.calls
        assert ids.shape == (len(dataset),)
        assert set(np.unique(ids).tolist()) == set(range(shards))
        assert sleeps == []
        assert_matches_oracle(report, single_report, queries)
