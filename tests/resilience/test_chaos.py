"""A failing shard on the one sharded path.

Every run must end in one of exactly two states: answers identical to
the single-core oracle, or a :class:`~repro.errors.ShardExecutionError`
that names the failing shard and chains the underlying exception —
never a silent wrong answer. A shard runs once: a failure is not
retried and nothing sleeps.
"""

import time

import pytest

from repro import ShardedStreamSystem
from repro.errors import ConfigurationError, ReproError, ShardExecutionError
from repro.parallel import HashPartitioner
from repro.parallel import sharded as sharded_module
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
        engine = fail_shards({1}, RuntimeError("crash"))
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(ShardExecutionError, match="shard 0"):
            system.run()
        assert len(engine.calls) == 1
        report = system.run()
        assert len(engine.calls) == 1 + 3
        assert_matches_oracle(report, single_report, queries)

    def test_registry_counts_recovery(self, dataset, queries, config,
                                      buckets, fail_shards):
        """The failed run merges no shard counters: after the rerun the
        registry counts exactly what one clean run counts."""
        clean = sharded(dataset, queries, config, buckets)
        clean.run()
        fail_shards({2}, RuntimeError("crash"))
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(ShardExecutionError, match="shard 1"):
            system.run()
        assert not any(name.startswith("shard")
                       for name in system.registry.counters)
        system.run()
        counts = {name: counter.value
                  for name, counter in system.registry.counters.items()}
        assert counts == {name: counter.value
                          for name, counter in clean.registry.counters.items()}
        for index in range(3):
            assert len([s for s in system.registry.spans
                        if s.name == f"shard{index}.engine"]) == 1


class TestCrashOnEveryAttempt:
    def test_exhausted_retries_name_the_shard(self, dataset, queries,
                                              config, buckets, fail_shards,
                                              sleeps):
        """Shard 1's engine call raises: one call per shard up to it, no
        sleep, and the typed error names shard 1 with the cause chained."""
        cause = ValueError("shard engine failed")
        # Every shard is non-empty, so the second call is shard 1.
        engine = fail_shards({2}, cause)
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(ShardExecutionError, match="shard 1") as info:
            system.run()
        assert info.value.shard == 1
        assert info.value.records is not None and info.value.records > 0
        assert f"{info.value.records} records" in str(info.value)
        assert "ValueError: shard engine failed" in str(info.value)
        assert info.value.__cause__ is cause
        assert len(engine.calls) == len(set(engine.calls)) == 2
        assert sleeps == []


class TestFailingShard:
    @pytest.mark.parametrize("failing", [0, 1, 2])
    @pytest.mark.parametrize("partition", list(PARTITIONERS))
    def test_error_names_the_failing_shard(self, dataset, queries, config,
                                           buckets, fail_shards, sleeps,
                                           partition, failing):
        """Whatever the partition, the error carries the failing shard's
        index and its partitioned record count; later shards never run."""
        cause = ValueError("engine failed")
        engine = fail_shards({failing + 1}, cause)
        system = sharded(dataset, queries, config, buckets,
                         partitioner=PARTITIONERS[partition])
        with pytest.raises(ShardExecutionError) as info:
            system.run()
        records = system.partition_summary["records"]
        assert all(records)
        assert info.value.shard == failing
        assert info.value.records == records[failing]
        assert str(info.value).startswith(
            f"shard {failing} ({records[failing]} records, "
            f"{len(config.relations)} relations) failed: ValueError: ")
        assert info.value.__cause__ is cause
        assert len(engine.calls) == failing + 1
        assert sleeps == []

    @pytest.mark.parametrize("cause", [
        ValueError("bad value"), KeyError("missing"), OSError("disk"),
        MemoryError("no room"), ConfigurationError("bad forest"),
    ], ids=lambda exc: type(exc).__name__)
    def test_any_engine_exception_is_wrapped(self, dataset, queries, config,
                                             buckets, fail_shards, cause):
        """Library errors included: the caller catches one type, and the
        original is the cause."""
        fail_shards({1}, cause)
        with pytest.raises(ShardExecutionError) as info:
            sharded(dataset, queries, config, buckets).run()
        assert isinstance(info.value, ReproError)
        assert f"failed: {type(cause).__name__}: {cause}" in str(info.value)
        assert info.value.__cause__ is cause

    def test_interrupt_is_not_wrapped(self, dataset, queries, config,
                                      buckets, fail_shards):
        """Only ``Exception`` becomes a shard error: an interrupt stops
        the run as itself."""
        interrupt = KeyboardInterrupt()
        engine = fail_shards({1}, interrupt)
        with pytest.raises(KeyboardInterrupt) as info:
            sharded(dataset, queries, config, buckets).run()
        assert info.value is interrupt
        assert len(engine.calls) == 1

    def test_failed_run_publishes_no_shard_results(self, dataset, queries,
                                                   config, buckets,
                                                   fail_shards):
        fail_shards({3}, RuntimeError("crash"))
        system = sharded(dataset, queries, config, buckets)
        with pytest.raises(ShardExecutionError, match="shard 2"):
            system.run()
        assert system.shard_results is None
        assert system.shard_registries is None
        assert system.registry.last_span("merge") is None
        assert "shards" not in system.registry.gauges

    def test_failed_rerun_unpublishes_the_previous_run(self, dataset,
                                                       queries, config,
                                                       buckets, fail_shards):
        """A run that fails after a successful one leaves nothing of the
        earlier run published: no shard results or registries, and no
        timings that mix its merge span with the failed run's spans."""
        system = sharded(dataset, queries, config, buckets)
        system.run()
        assert system.shard_results and system.shard_registries
        assert system.last_timings is not None
        fail_shards({2}, RuntimeError("crash"))
        with pytest.raises(ShardExecutionError, match="shard 1"):
            system.run()
        assert system.shard_results is None
        assert system.shard_registries is None
        assert system.last_timings is None
        assert system.partition_summary["records"][1] > 0  # the failed run's
        system.run()  # the engine's third call on: no more failures
        registry = system.registry
        assert system.last_timings == {
            "partition_seconds": registry.last_span("partition").seconds,
            "engine_seconds": registry.last_span("engine").seconds,
            "merge_seconds": registry.last_span("merge").seconds,
        }
        assert len(system.shard_results) == 3


class TestDelayPastTimeout:
    def test_fast_shards_are_not_timed_out(self, dataset, queries, config,
                                           buckets, single_report,
                                           monkeypatch):
        """No shard is ever timed out: a slow one is waited for and
        counts like the fast ones."""
        engine, delay, slowed = sharded_module.simulate, 0.05, []

        def slow_first_shard(*args, **kwargs):
            if not slowed:
                slowed.append(True)
                time.sleep(delay)
            return engine(*args, **kwargs)

        monkeypatch.setattr(sharded_module, "simulate", slow_first_shard)
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
    def test_one_engine_call_per_shard(self, dataset, queries, config,
                                       buckets, single_report, fail_shards,
                                       sleeps, shards):
        engine = fail_shards()
        report = sharded(dataset, queries, config, buckets,
                         shards=shards).run()
        assert len(engine.calls) == len(set(engine.calls)) == shards
        assert sleeps == []
        assert_matches_oracle(report, single_report, queries)
