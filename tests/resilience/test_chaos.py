"""The chaos matrix: every planned failure mode, on every executor.

Every scenario must end in one of exactly two states: answers identical
to the fault-free single-core oracle, or a
:class:`~repro.errors.ShardExecutionError` that names the failing shard
— never a silent wrong answer, never a raw pool/pickling traceback.
"""

import os
import time

import pytest

from repro import ShardedStreamSystem
from repro.errors import ShardExecutionError
from repro.resilience import FaultPlan, FaultSpec

from tests.resilience.conftest import fast_retry

EXECUTORS = ("serial", "process", "pipeline")


def sharded(dataset, queries, config, buckets, **kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("retry", fast_retry())
    return ShardedStreamSystem(dataset, queries, config, buckets, **kwargs)


def assert_matches_oracle(report, single_report, queries):
    assert report.result.n_records == single_report.result.n_records
    assert report.result.n_epochs == single_report.result.n_epochs
    for query in queries:
        assert report.answers(query) == single_report.answers(query)


class _HardKillPlan(FaultPlan):
    """A plan whose fault check kills the worker process outright —
    produces a real ``BrokenProcessPool``, not a catchable exception.

    The parent also consults ``fault_for`` for bookkeeping, so the kill
    only fires in a process other than the one that built the plan.
    """

    def __init__(self, shard, attempt=1):
        super().__init__(())
        self.shard = shard
        self.attempt = attempt
        self.parent_pid = os.getpid()

    def fault_for(self, shard, attempt):
        if os.getpid() != self.parent_pid and shard == self.shard and \
                (self.attempt is None or attempt == self.attempt):
            os._exit(17)
        return None


class TestCrashOnFirstAttempt:
    """The acceptance scenario: crash-once on every shard, exact answers,
    exactly one retry per shard in the resilience report."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_answers_match_fault_free_oracle(self, dataset, queries,
                                             config, buckets,
                                             single_report, executor):
        system = sharded(dataset, queries, config, buckets,
                         executor=executor,
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

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_registry_counts_recovery(self, dataset, queries, config,
                                      buckets, executor):
        system = sharded(dataset, queries, config, buckets,
                         executor=executor,
                         fault_plan=FaultPlan.crash_once(3))
        system.run()
        counters = system.registry.counters
        assert counters["resilience.retries"].value == 3
        assert counters["resilience.faults.crash"].value == 3
        assert counters["resilience.fallbacks"].value == 0


class TestCrashOnEveryAttempt:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_exhausted_retries_name_the_shard(self, dataset, queries,
                                              config, buckets, executor):
        system = sharded(dataset, queries, config, buckets,
                         executor=executor,
                         fault_plan=FaultPlan.crash_always(1),
                         retry=fast_retry(max_attempts=2))
        with pytest.raises(ShardExecutionError, match="shard 1") as info:
            system.run()
        assert info.value.shard == 1
        assert info.value.records is not None and info.value.records > 0
        assert "InjectedFault" in str(info.value)

    def test_process_executor_tries_serial_fallback_first(self, dataset,
                                                          queries, config,
                                                          buckets):
        system = sharded(dataset, queries, config, buckets,
                         executor="process",
                         fault_plan=FaultPlan.crash_always(0),
                         retry=fast_retry(max_attempts=2))
        with pytest.raises(ShardExecutionError, match="serial fallback"):
            system.run()
        row = system.resilience_report.outcome(0, 0)
        assert row.fallback
        assert row.attempts == 3  # 2 pool attempts + 1 fallback

    def test_fallback_rescues_a_shard_the_pool_cannot_run(self, dataset,
                                                          queries, config,
                                                          buckets,
                                                          single_report):
        """Crash on pool attempts 1-2, succeed on the fallback (attempt
        3): graceful degradation produces exact answers."""
        plan = FaultPlan((FaultSpec("crash", shard=2, attempt=1),
                          FaultSpec("crash", shard=2, attempt=2)))
        system = sharded(dataset, queries, config, buckets,
                         executor="process", fault_plan=plan,
                         retry=fast_retry(max_attempts=2))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        row = next(o for o in system.resilience_report.shards
                   if o.shard == 2)
        assert row.fallback and row.succeeded and row.attempts == 3
        assert system.resilience_report.total_fallbacks == 1


class TestDelayPastTimeout:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_slow_attempt_times_out_and_retry_succeeds(
            self, dataset, queries, config, buckets, single_report,
            executor):
        plan = FaultPlan((FaultSpec("delay", shard=0, attempt=1,
                                    delay_seconds=0.4),))
        system = sharded(dataset, queries, config, buckets,
                         executor=executor, fault_plan=plan,
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
                         executor="serial",
                         retry=fast_retry(timeout_seconds=30.0))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        assert system.resilience_report.total_retries == 0


class TestTimeoutCancellation:
    """A timed-out attempt must be cancelled (or its worker torn down),
    never left running as a zombie that occupies a pool slot while its
    own retry serializes behind it."""

    def test_zombie_attempt_is_cancelled_and_pool_rebuilt(
            self, dataset, queries, config, buckets, single_report):
        plan = FaultPlan((FaultSpec("delay", shard=0, attempt=1,
                                    delay_seconds=4.0),))
        system = sharded(dataset, queries, config, buckets,
                         executor="process", max_workers=1,
                         fault_plan=plan,
                         retry=fast_retry(timeout_seconds=0.3))
        started = time.perf_counter()
        report = system.run()
        elapsed = time.perf_counter() - started
        assert_matches_oracle(report, single_report, queries)
        resilience = system.resilience_report
        assert resilience.cancelled_attempts >= 1
        row = next(o for o in resilience.shards if o.shard == 0)
        # The retry genuinely ran on the pool: with the zombie still
        # holding the only worker, it could only succeed via fallback.
        assert row.succeeded and not row.fallback
        assert elapsed < 3.0  # the 4 s sleeper no longer blocks the run

    def test_timeout_measured_from_submission_not_await(
            self, dataset, queries, config, buckets, single_report):
        """Two delayed shards share one worker under a 1 s budget: the
        later shard's queue wait must count against its timeout (an
        await-based clock would never expire), and the failed attempt is
        billed for its full submitted-to-failure lifetime."""
        plan = FaultPlan((FaultSpec("delay", shard=0, attempt=1,
                                    delay_seconds=0.6),
                          FaultSpec("delay", shard=1, attempt=1,
                                    delay_seconds=0.6)))
        system = sharded(dataset, queries, config, buckets,
                         executor="process", max_workers=1,
                         fault_plan=plan,
                         retry=fast_retry(timeout_seconds=1.0))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        resilience = system.resilience_report
        timed_out = [o for o in resilience.shards
                     if any("Timeout" in e for e in o.errors)]
        assert timed_out
        assert resilience.failed_attempt_seconds >= 0.9
        assert resilience.cancelled_attempts >= 1


class TestCorruptedResults:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_corrupt_outcome_is_detected_and_retried(
            self, dataset, queries, config, buckets, single_report,
            executor):
        plan = FaultPlan((FaultSpec("corrupt", shard=1, attempt=1),))
        system = sharded(dataset, queries, config, buckets,
                         executor=executor, fault_plan=plan)
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
        system = sharded(dataset, queries, config, buckets,
                         executor="serial", fault_plan=plan)
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        assert system.resilience_report.fault_counts == {"corrupt": 3}


class TestHardWorkerDeath:
    """A worker dying mid-flight breaks the whole pool; the runtime must
    rebuild it and still deliver exact answers — or a named error."""

    def test_broken_pool_is_rebuilt_and_run_completes(self, dataset,
                                                      queries, config,
                                                      buckets,
                                                      single_report):
        system = sharded(dataset, queries, config, buckets,
                         executor="process",
                         fault_plan=_HardKillPlan(shard=0, attempt=1))
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        assert system.resilience_report.total_retries >= 1

    def test_unrecoverable_death_is_wrapped_with_attribution(
            self, dataset, queries, config, buckets):
        """Never a raw BrokenProcessPool: the error names the shard."""
        system = sharded(dataset, queries, config, buckets,
                         executor="process",
                         fault_plan=_HardKillPlan(shard=0, attempt=None),
                         retry=fast_retry(max_attempts=1,
                                          serial_fallback=False))
        with pytest.raises(ShardExecutionError, match="shard 0"):
            system.run()


class TestNoFaultBaseline:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_resilience_report_attached_even_without_faults(
            self, dataset, queries, config, buckets, single_report,
            executor):
        system = sharded(dataset, queries, config, buckets,
                         executor=executor)
        report = system.run()
        assert_matches_oracle(report, single_report, queries)
        resilience = system.resilience_report
        assert resilience.total_retries == 0
        assert resilience.total_attempts == len(resilience.shards)
        assert resilience.overhead_seconds == 0.0
        assert report.resilience is resilience
