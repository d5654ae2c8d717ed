"""A sharded run's RunManifest: per-shard sections, no recovery section."""

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
            shard_results=system.shard_results,
            shard_registries=system.shard_registries)
        path = manifest.write(tmp_path / "manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(manifest.to_json())
        counters = loaded["metrics"]["counters"]
        for index, shard in enumerate(loaded["shards"]):
            assert counters[f"shard{index}.engine.records"] == \
                shard["n_records"]
            assert [s["name"] for s in shard["spans"]] == ["engine"]

    def test_collect_takes_no_resilience_argument(self, single_report):
        with pytest.raises(TypeError):
            RunManifest.collect(single_report, resilience={})

    def test_fault_free_run_reports_empty_history(self, dataset, queries,
                                                  config, buckets):
        system = ShardedStreamSystem(dataset, queries, config, buckets,
                                     shards=2)
        report = system.run()
        manifest = RunManifest.collect(
            report, shard_results=system.shard_results,
            shard_registries=system.shard_registries)
        loaded = json.loads(manifest.to_json())
        assert "resilience" not in loaded
        assert [shard["index"] for shard in loaded["shards"]] == [0, 1]
        assert sum(shard["n_records"] for shard in loaded["shards"]) == \
            len(dataset)
