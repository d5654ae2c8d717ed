"""CLI surface for resilience: flags, fault-plan replay, checkpoint dirs."""

import json

import pytest

from repro import StreamSchema
from repro.cli import main
from repro.resilience import FaultPlan
from repro.workloads import make_group_universe, uniform_dataset
from repro.workloads.io import save_npz

QUERY = "select A, count(*) from R group by A, time/3"


@pytest.fixture(scope="module")
def npz_path(tmp_path_factory):
    schema = StreamSchema(("A", "B", "C"))
    universe = make_group_universe(schema, (8, 24, 60), value_pool=64,
                                   seed=3)
    data = uniform_dataset(universe, 3000, duration=9.0, seed=4)
    path = tmp_path_factory.mktemp("data") / "trace.npz"
    save_npz(data, path)
    return str(path)


class TestFlagValidation:
    def test_negative_max_retries_rejected(self, npz_path, capsys):
        with pytest.raises(SystemExit):
            main(["--data", npz_path, "--execute", "--max-retries", "-1",
                  QUERY])
        assert "--max-retries must be >= 0" in capsys.readouterr().err

    def test_fault_plan_requires_sharding(self, npz_path, tmp_path,
                                          capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FaultPlan.crash_once(2).to_dict()))
        with pytest.raises(SystemExit):
            main(["--data", npz_path, "--execute",
                  "--fault-plan", str(plan_path), QUERY])
        assert "--fault-plan requires --shards > 1" \
            in capsys.readouterr().err

    def test_checkpoint_dir_conflicts_with_shards(self, npz_path,
                                                  tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--data", npz_path, "--execute", "--shards", "2",
                  "--checkpoint-dir", str(tmp_path), QUERY])
        assert "drop --shards" in capsys.readouterr().err


class TestFaultPlanReplay:
    def test_injected_crashes_recover_and_land_in_manifest(
            self, npz_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FaultPlan.crash_once(2).to_dict()))
        manifest_path = tmp_path / "manifest.json"
        code = main(["--data", npz_path, "--execute", "--shards", "2",
                     "--fault-plan", str(plan_path),
                     "--metrics-json", str(manifest_path), QUERY])
        assert code == 0
        out = capsys.readouterr().out
        assert "records processed : 3000" in out
        assert "shard retries     : 2" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["resilience"]["total_retries"] == 2
        replayed = FaultPlan.from_dict(
            manifest["resilience"]["fault_plan"])
        assert replayed == FaultPlan.crash_once(2)

    def test_manifest_itself_is_a_valid_fault_plan_source(
            self, npz_path, tmp_path, capsys):
        """The loop closes: a manifest written by one run replays the
        same faults in the next."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FaultPlan.crash_once(2).to_dict()))
        manifest_path = tmp_path / "manifest.json"
        main(["--data", npz_path, "--execute", "--shards", "2",
              "--fault-plan", str(plan_path),
              "--metrics-json", str(manifest_path), QUERY])
        capsys.readouterr()
        code = main(["--data", npz_path, "--execute", "--shards", "2",
                     "--fault-plan", str(manifest_path), QUERY])
        assert code == 0
        assert "shard retries     : 2" in capsys.readouterr().out

    def test_exhausted_plan_reports_clean_error(self, npz_path, tmp_path,
                                                capsys):
        plan_path = tmp_path / "always.json"
        plan_path.write_text(json.dumps(
            FaultPlan.crash_always(0).to_dict()))
        code = main(["--data", npz_path, "--execute", "--shards", "2",
                     "--max-retries", "1",
                     "--fault-plan", str(plan_path), QUERY])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: shard 0" in err
        assert "failed after 2 attempts" in err

    def test_unreadable_plan_is_a_clean_error(self, npz_path, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        code = main(["--data", npz_path, "--execute", "--shards", "2",
                     "--fault-plan", str(bad), QUERY])
        assert code == 2
        assert "fault plan" in capsys.readouterr().err


class TestCheckpointDir:
    def test_run_writes_checkpoint_and_resumes(self, npz_path, tmp_path,
                                               capsys):
        ckpt_dir = tmp_path / "ckpts"
        code = main(["--data", npz_path, "--execute",
                     "--checkpoint-dir", str(ckpt_dir), QUERY])
        assert code == 0
        first = capsys.readouterr().out
        assert "records processed : 3000" in first
        assert (ckpt_dir / "live.ckpt").exists()

        # Second invocation resumes from the completed checkpoint: it
        # replays nothing but still reports the full-stream totals.
        code = main(["--data", npz_path, "--execute",
                     "--checkpoint-dir", str(ckpt_dir), QUERY])
        assert code == 0
        second = capsys.readouterr().out
        assert "records processed : 3000" in second

    def test_interrupted_run_resumes_to_identical_answers(
            self, npz_path, tmp_path, capsys):
        """Pre-seed the checkpoint dir with a half-stream snapshot (the
        'crash'), then let the CLI resume and finish."""
        from repro import QuerySet, plan
        from repro.core.feeding_graph import FeedingGraph
        from repro.gigascope.online import LiveStreamSystem
        from repro.workloads import measure_statistics
        from repro.workloads.io import load_npz

        dataset = load_npz(npz_path)
        queries = QuerySet.counts(["A"], epoch_seconds=3.0)
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        the_plan = plan(queries, stats, memory=40_000)

        half = len(dataset) // 2
        live = LiveStreamSystem(dataset.schema, queries, the_plan)
        cols = {a: dataset.columns[a][:half]
                for a in dataset.schema.attributes}
        live.push(cols, dataset.timestamps[:half])
        ckpt_dir = tmp_path / "resume"
        ckpt_dir.mkdir()
        live.checkpoint(ckpt_dir / "live.ckpt")

        code = main(["--data", npz_path, "--execute",
                     "--checkpoint-dir", str(ckpt_dir), QUERY])
        assert code == 0
        out = capsys.readouterr().out
        assert "records processed : 3000" in out

        oracle = LiveStreamSystem(dataset.schema, queries, the_plan)
        oracle.push_dataset(dataset)
        oracle.finish()
        resumed = LiveStreamSystem.restore(ckpt_dir / "live.ckpt")
        assert resumed.epoch_reports == oracle.epoch_reports
        for query in queries:
            assert resumed.answers(query) == oracle.answers(query)
