"""The chaos matrix: every planned failure mode on the shard retry loop.

Every scenario must end in one of exactly two states: answers identical
to the fault-free single-core oracle, or a
:class:`~repro.errors.ShardExecutionError` that names the failing shard
— never a silent wrong answer, never the raw underlying exception.
"""

import pytest

from repro import ShardedStreamSystem
from repro.errors import ShardExecutionError
from repro.resilience import FaultPlan, FaultSpec

from tests.resilience.conftest import fast_retry


def sharded(dataset, queries, config, buckets, **kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("retry", fast_retry())
    return ShardedStreamSystem(dataset, queries, config, buckets, **kwargs)


def assert_matches_oracle(report, single_report, queries):
    assert report.result.n_records == single_report.result.n_records
    assert report.result.n_epochs == single_report.result.n_epochs
    for query in queries:
        assert report.answers(query) == single_report.answers(query)


class TestCrashOnFirstAttempt:
    """The acceptance scenario: crash-once on every shard, exact answers,
    exactly one retry per shard in the resilience report."""

    def test_answers_match_fault_free_oracle(self, dataset, queries,
                                             config, buckets,
                                             single_report):
        system = sharded(dataset, queries, config, buckets,
                         fault_plan=FaultPlan.crash_once(3))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        resilience = system.resilience_report
        assert resilience is report.resilience
        assert resilience.total_retries == 3
        assert [o.attempts for o in resilience.shards] == [2, 2, 2]
        assert resilience.fault_counts == {"crash": 3}
        assert resilience.total_fallbacks == 0
        assert all(o.succeeded for o in resilience.shards)

    def test_registry_counts_recovery(self, dataset, queries, config,
                                      buckets):
        system = sharded(dataset, queries, config, buckets,
                         fault_plan=FaultPlan.crash_once(3))
        system.run()
        counters = system.registry.counters
        assert counters["resilience.retries"].value == 3
        assert counters["resilience.faults.crash"].value == 3
        assert counters["resilience.fallbacks"].value == 0


class TestCrashOnEveryAttempt:
    def test_exhausted_retries_name_the_shard(self, dataset, queries,
                                              config, buckets):
        system = sharded(dataset, queries, config, buckets,
                         fault_plan=FaultPlan.crash_always(1),
                         retry=fast_retry(max_attempts=2))
        with pytest.raises(ShardExecutionError, match="shard 1") as info:
            system.run()
        assert info.value.shard == 1
        assert info.value.records is not None and info.value.records > 0
        assert "InjectedFault" in str(info.value)
        assert info.value.attempts == 2
        assert "failed after 2 attempts;" in str(info.value)


class TestDelayPastTimeout:
    def test_slow_attempt_times_out_and_retry_succeeds(
            self, dataset, queries, config, buckets, single_report):
        plan = FaultPlan((FaultSpec("delay", shard=0, attempt=1,
                                    delay_seconds=0.4),))
        system = sharded(dataset, queries, config, buckets, fault_plan=plan,
                         retry=fast_retry(timeout_seconds=0.05))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        row = next(o for o in system.resilience_report.shards
                   if o.shard == 0)
        assert row.attempts >= 2
        assert any("Timeout" in e for e in row.errors)

    def test_fast_shards_are_not_timed_out(self, dataset, queries, config,
                                           buckets, single_report):
        system = sharded(dataset, queries, config, buckets,
                         retry=fast_retry(timeout_seconds=30.0))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        assert system.resilience_report.total_retries == 0


class TestCorruptedResults:
    def test_corrupt_outcome_is_detected_and_retried(
            self, dataset, queries, config, buckets, single_report):
        plan = FaultPlan((FaultSpec("corrupt", shard=1, attempt=1),))
        system = sharded(dataset, queries, config, buckets, fault_plan=plan)
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        row = next(o for o in system.resilience_report.shards
                   if o.shard == 1)
        assert row.attempts == 2
        assert any("CorruptResultError" in e for e in row.errors)

    def test_corrupt_on_every_shard_still_exact(self, dataset, queries,
                                                config, buckets,
                                                single_report):
        plan = FaultPlan(tuple(FaultSpec("corrupt", shard=s, attempt=1)
                               for s in range(3)))
        system = sharded(dataset, queries, config, buckets, fault_plan=plan)
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        assert system.resilience_report.fault_counts == {"corrupt": 3}


class TestNoFaultBaseline:
    def test_resilience_report_attached_even_without_faults(
            self, dataset, queries, config, buckets, single_report):
        system = sharded(dataset, queries, config, buckets)
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        resilience = system.resilience_report
        assert resilience.total_retries == 0
        assert resilience.total_attempts == len(resilience.shards)
        assert resilience.overhead_seconds == 0.0
        assert report.resilience is resilience
