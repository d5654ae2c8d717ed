"""CLI surface for resilience: removed flags, shard failures, checkpoint
dirs."""

import pytest

from repro import StreamSchema
from repro.cli import main
from repro.errors import ConfigurationError
from repro.gigascope.online import LiveStreamSystem
from repro.workloads import make_group_universe, uniform_dataset
from repro.workloads.io import save_npz

QUERY = "select A, count(*) from R group by A, time/3"


def write_npz(path, attributes, n_records):
    schema = StreamSchema(attributes)
    universe = make_group_universe(schema, (8, 24, 60), value_pool=64,
                                   seed=3)
    save_npz(uniform_dataset(universe, n_records, duration=9.0, seed=4),
             path)
    return str(path)


@pytest.fixture(scope="module")
def npz_path(tmp_path_factory):
    return write_npz(tmp_path_factory.mktemp("data") / "trace.npz",
                     ("A", "B", "C"), 3000)


def assert_unrecognised(flag, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestFlagValidation:
    def test_negative_max_retries_rejected(self, npz_path, capsys):
        """A shard runs once: there is no retry budget to set."""
        assert_unrecognised("--max-retries", [
            "--data", npz_path, "--execute", "--shards", "2",
            "--max-retries", "1", QUERY], capsys)

    def test_fault_plan_requires_sharding(self, npz_path, tmp_path,
                                          capsys):
        """There is no fault injection to drive from a plan file."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text("{\"faults\": []}")
        assert_unrecognised("--fault-plan", [
            "--data", npz_path, "--execute", "--shards", "2",
            "--fault-plan", str(plan_path), QUERY], capsys)

    def test_checkpoint_dir_conflicts_with_shards(self, npz_path,
                                                  tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--data", npz_path, "--execute", "--shards", "2",
                  "--checkpoint-dir", str(tmp_path), QUERY])
        assert "drop --shards" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--max-retries", "2"),
                                             ("--fault-plan", "plan.json")])
    def test_removed_flags_rejected_without_shards(self, npz_path, capsys,
                                                   flag, value):
        assert_unrecognised(flag, ["--data", npz_path, "--execute", flag,
                                   value, QUERY], capsys)


class TestFaultPlanReplay:
    """A sharded run fails as one, as an unsharded run does: a library
    error reaches the operator as one clean error line."""

    def test_exhausted_plan_reports_clean_error(self, npz_path,
                                                fail_shards, capsys):
        fail_shards({1}, ConfigurationError("engine failed"))
        code = main(["--data", npz_path, "--execute", "--shards", "2",
                     QUERY])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: engine failed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shards", [1, 3])
    def test_failing_run_is_one_error_line(self, npz_path, fail_shards,
                                           monkeypatch, capsys, shards):
        """Sharded or not, the engine's one failing call is the one
        error line, and no report is printed."""
        from repro.gigascope import runtime

        engine = fail_shards({1}, ConfigurationError("engine failed"))
        monkeypatch.setattr(runtime, "simulate", engine)
        code = main(["--data", npz_path, "--execute", "--shards",
                     str(shards), QUERY])
        assert code == 2
        captured = capsys.readouterr()
        [line] = captured.err.strip().splitlines()
        assert line == "error: engine failed"
        assert "records processed" not in captured.out
        assert len(engine.calls) == 1


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
        oracle.push(dataset.columns, dataset.timestamps)
        oracle.finish()
        resumed = LiveStreamSystem.restore(ckpt_dir / "live.ckpt")
        assert resumed.epoch_reports == oracle.epoch_reports
        for query in queries:
            assert resumed.answers(query) == oracle.answers(query)

    def test_foreign_checkpoint_is_refused(self, npz_path, tmp_path,
                                           capsys):
        """A snapshot written for another query set, schema or longer
        stream is refused naming the file, and left as it was."""
        ckpt_dir = tmp_path / "ckpts"
        assert main(["--data", npz_path, "--execute",
                     "--checkpoint-dir", str(ckpt_dir), QUERY]) == 0
        capsys.readouterr()
        ckpt = ckpt_dir / "live.ckpt"
        cases = [
            (write_npz(tmp_path / "b.npz", ("A", "B", "C"), 1000),
             "select B, C, count(*) from R group by B, C, time/3",
             "queries"),
            (write_npz(tmp_path / "abd.npz", ("A", "B", "D"), 3000),
             QUERY, "schema attributes ['A', 'B', 'C']"),
            (write_npz(tmp_path / "short.npz", ("A", "B", "C"), 1000),
             QUERY, "3000 ingested records, the dataset has 1000"),
        ]
        for data, query, mismatch in cases:
            code = main(["--data", data, "--execute",
                         "--checkpoint-dir", str(ckpt_dir), query])
            captured = capsys.readouterr()
            assert code == 2
            assert f"error: checkpoint {ckpt}" in captured.err
            assert mismatch in captured.err
            assert "records processed" not in captured.out
            assert LiveStreamSystem.restore(ckpt).records_seen == 3000

    @pytest.mark.parametrize("queries", [
        ["select A, count(*) from R group by A, time/5"],
        ["select B, count(*) from R group by B, time/3"],
        [QUERY, "select B, count(*) from R group by B, time/3"],
    ], ids=["epoch", "grouping", "extra-query"])
    def test_checkpoint_for_other_queries_is_refused(self, npz_path,
                                                     tmp_path, capsys,
                                                     queries):
        """Same dataset, another workload: the snapshot's queries differ
        from the ones asked for, so nothing resumes."""
        ckpt_dir = tmp_path / "ckpts"
        assert main(["--data", npz_path, "--execute",
                     "--checkpoint-dir", str(ckpt_dir), QUERY]) == 0
        capsys.readouterr()
        ckpt = ckpt_dir / "live.ckpt"
        code = main(["--data", npz_path, "--execute",
                     "--checkpoint-dir", str(ckpt_dir), *queries])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: checkpoint {ckpt} belongs to another run: it " \
            "holds queries" in captured.err
        assert "records processed" not in captured.out
        restored = LiveStreamSystem.restore(ckpt)
        assert restored.records_seen == 3000
        assert [q.group_by.label() for q in restored.queries] == ["A"]
