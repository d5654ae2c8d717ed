"""A sharded run's RunManifest: the partition's per-shard record counts,
no recovery section."""

import json

import pytest

from repro import ShardedStreamSystem
from repro.observability import RunManifest


class TestManifestResilience:
    def test_write_and_reload_from_disk(self, dataset, queries, config,
                                        buckets, tmp_path):
        system = ShardedStreamSystem(dataset, queries, config, buckets,
                                     shards=3)
        report = system.run()
        manifest = RunManifest.collect(
            report, registry=system.registry,
            extra={"partition": system.partition_summary})
        path = manifest.write(tmp_path / "manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(manifest.to_json())
        counters = loaded["metrics"]["counters"]
        assert counters["engine.records"] == len(dataset) == sum(
            loaded["extra"]["partition"]["records"])
        assert [s["name"] for s in loaded["metrics"]["spans"]] == [
            "partition.assign", "partition.rows", "partition", "engine"]

    def test_collect_takes_no_resilience_argument(self, single_report):
        with pytest.raises(TypeError):
            RunManifest.collect(single_report, resilience={})

    def test_fault_free_run_reports_empty_history(self, dataset, queries,
                                                  config, buckets):
        system = ShardedStreamSystem(dataset, queries, config, buckets,
                                     shards=2)
        report = system.run()
        manifest = RunManifest.collect(
            report, extra={"partition": system.partition_summary})
        loaded = json.loads(manifest.to_json())
        assert "resilience" not in loaded
        assert "shards" not in loaded
        records = loaded["extra"]["partition"]["records"]
        assert len(records) == 2 and sum(records) == len(dataset)
