"""Tests for RunManifest assembly and serialization."""

import json

import pytest

from repro import (
    MetricsRegistry,
    QuerySet,
    RunManifest,
    ShardedStreamSystem,
    StreamSystem,
    plan,
)
from repro.core.feeding_graph import FeedingGraph
from repro.observability.manifest import current_git_sha
from repro.workloads import measure_statistics, paper_like_trace


@pytest.fixture(scope="module")
def executed():
    dataset = paper_like_trace(n_records=6_000, duration=21.0, seed=13)
    queries = QuerySet.counts(["AB", "BC"], epoch_seconds=10.0)
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    the_plan = plan(queries, stats, memory=2_000)
    return dataset, queries, the_plan


class TestRunManifest:
    def test_collect_from_single_core_run(self, executed):
        dataset, queries, the_plan = executed
        registry = MetricsRegistry()
        report = StreamSystem.from_plan(dataset, queries, the_plan).run(
            registry=registry)
        manifest = RunManifest.collect(report, plan=the_plan,
                                       queries=queries, registry=registry,
                                       created_unix=123.0)
        doc = manifest.to_dict()
        assert doc["created_unix"] == 123.0
        assert doc["n_records"] == len(dataset)
        assert doc["n_epochs"] == report.result.n_epochs
        assert doc["plan"]["algorithm"] == the_plan.algorithm
        assert doc["configuration"] == str(the_plan.configuration)
        assert set(doc["buckets"]) == {
            rel.label() for rel in the_plan.allocation.buckets}
        assert doc["params"] == {"probe_cost": 1.0, "evict_cost": 50.0}
        assert doc["queries"] == [str(q) for q in queries]
        assert doc["costs"]["total"] == pytest.approx(report.total_cost)
        assert doc["metrics"]["counters"]["engine.records"] == len(dataset)
        json.dumps(doc)

    def test_relations_match_measured_counters(self, executed):
        dataset, queries, the_plan = executed
        report = StreamSystem.from_plan(dataset, queries, the_plan).run()
        manifest = RunManifest.collect(report, git_sha=None)
        counters = report.result.counters
        assert set(manifest.relations) == {
            rel.label() for rel in counters.relations}
        for rel, c in counters.relations.items():
            entry = manifest.relations[rel.label()]
            assert entry["arrivals_intra"] == c.arrivals_intra
            assert entry["evictions_flush"] == c.evictions_flush

    def test_sharded_manifest_counters_sum_to_merged(self, executed):
        dataset, queries, the_plan = executed
        registry = MetricsRegistry()
        system = ShardedStreamSystem.from_plan(
            dataset, queries, the_plan, shards=3, registry=registry)
        report = system.run()
        manifest = RunManifest.collect(
            report, plan=the_plan, queries=queries, registry=registry,
            extra={"partition": system.partition_summary})
        doc = manifest.to_dict()
        assert list(doc["machine"]["kernels"]) == ["engine_ingest"]
        assert set(doc["machine"]["kernels"]["engine_ingest"]) >= {
            "available", "error"}
        assert "partition.kernel" not in doc["metrics"]["gauges"]
        # one walk: the run's counters are the manifest's, and the
        # per-shard view is the partition's record counts
        assert "shards" not in doc
        counters = report.result.counters.relations
        for rel, c in counters.items():
            assert doc["relations"][rel.label()]["arrivals_intra"] == \
                c.arrivals_intra
        records = doc["extra"]["partition"]["records"]
        assert len(records) == 3 and sum(records) == doc["n_records"]
        assert doc["metrics"]["counters"]["engine.records"] == sum(records)

    def test_write_round_trip(self, executed, tmp_path):
        dataset, queries, the_plan = executed
        report = StreamSystem.from_plan(dataset, queries, the_plan).run()
        manifest = RunManifest.collect(report, plan=the_plan)
        path = manifest.write(tmp_path / "nested" / "manifest.json")
        loaded = json.loads(path.read_text())
        assert loaded["manifest_version"] == 1
        assert loaded["n_records"] == len(dataset)

    def test_git_sha_control(self, executed):
        dataset, queries, the_plan = executed
        report = StreamSystem.from_plan(dataset, queries, the_plan).run()
        pinned = RunManifest.collect(report, git_sha="abc123")
        assert pinned.git_sha == "abc123"
        skipped = RunManifest.collect(report, git_sha=None)
        assert skipped.git_sha is None

    def test_current_git_sha_in_repo(self):
        sha = current_git_sha()
        if sha is not None:  # not all test environments are git checkouts
            assert len(sha) == 40

    def test_epoch_reports_and_reconfigurations(self, executed):
        _, queries, the_plan = executed

        class FakeEpochReport:
            epoch, records, intra_cost, flush_cost = 0, 10, 1.0, 2.0
            predicted_cost = 0.5
            configuration = the_plan.configuration

        manifest = RunManifest.collect(
            epoch_reports=[FakeEpochReport()],
            reconfigurations=[(1, the_plan.configuration)], git_sha=None)
        assert manifest.epochs[0]["records"] == 10
        assert manifest.epochs[0]["predicted_cost"] == 0.5
        assert manifest.reconfigurations[0]["epoch"] == 1
        json.dumps(manifest.to_dict())
