"""RunManifest carries the resilience story, round-trippable to JSON."""

import json

import pytest

from repro import ShardedStreamSystem
from repro.observability import RunManifest
from repro.resilience import FaultPlan, RetryPolicy

from tests.resilience.conftest import fast_retry


@pytest.fixture(scope="module")
def chaotic_system(dataset, queries, config, buckets):
    system = ShardedStreamSystem(dataset, queries, config, buckets,
                                 shards=3,
                                 retry=fast_retry(max_attempts=3, seed=5),
                                 fault_plan=FaultPlan.crash_once(3))
    system.report = system.run()
    return system


class TestManifestResilience:
    def test_collect_picks_resilience_off_the_report(self, chaotic_system):
        manifest = RunManifest.collect(chaotic_system.report,
                                       registry=chaotic_system.registry)
        section = manifest.resilience
        assert section["total_retries"] == 3
        assert section["total_fallbacks"] == 0
        assert section["fault_counts"] == {"crash": 3}
        assert len(section["shards"]) == 3
        assert all(row["succeeded"] for row in section["shards"])

    def test_fault_plan_survives_the_json_round_trip(self, chaotic_system):
        manifest = RunManifest.collect(chaotic_system.report)
        text = manifest.to_json()
        loaded = json.loads(text)
        assert loaded["manifest_version"] == 1
        replayed = FaultPlan.from_dict(loaded["resilience"]["fault_plan"])
        assert replayed == FaultPlan.crash_once(3)

    def test_retry_policy_survives_the_json_round_trip(self,
                                                       chaotic_system):
        manifest = RunManifest.collect(chaotic_system.report)
        loaded = json.loads(manifest.to_json())
        policy = RetryPolicy.from_dict(loaded["resilience"]["policy"])
        assert policy == fast_retry(max_attempts=3, seed=5)

    def test_write_and_reload_from_disk(self, chaotic_system, tmp_path):
        manifest = RunManifest.collect(chaotic_system.report,
                                       registry=chaotic_system.registry)
        path = manifest.write(tmp_path / "manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded["resilience"] == manifest.resilience
        assert loaded["metrics"]["counters"]["resilience.retries"] == 3

    def test_explicit_resilience_argument_wins(self, chaotic_system):
        manifest = RunManifest.collect(chaotic_system.report,
                                       resilience={"total_retries": 9})
        assert manifest.resilience == {"total_retries": 9}

    def test_fault_free_run_reports_empty_history(self, dataset, queries,
                                                  config, buckets):
        system = ShardedStreamSystem(dataset, queries, config, buckets,
                                     shards=2)
        report = system.run()
        manifest = RunManifest.collect(report)
        assert manifest.resilience["total_retries"] == 0
        assert manifest.resilience["fault_plan"] is None
