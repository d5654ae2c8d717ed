"""Tests for the ``repro-plan`` command-line tool."""

import pytest

from repro.cli import main
from repro.workloads import make_group_universe, uniform_dataset
from repro import StreamSchema
from repro.workloads.io import save_csv, save_npz


@pytest.fixture(scope="module")
def npz_path(tmp_path_factory):
    schema = StreamSchema(("A", "B", "C"), value_columns=("len",))
    universe = make_group_universe(schema, (8, 24, 60), value_pool=64,
                                   seed=3)
    data = uniform_dataset(universe, 4000, duration=9.0, seed=4,
                           value_column="len")
    path = tmp_path_factory.mktemp("data") / "trace.npz"
    save_npz(data, path)
    return str(path), data


class TestPlanCli:
    def test_plan_from_npz(self, npz_path, capsys):
        path, _ = npz_path
        code = main(["--data", path, "--memory", "2000",
                     "select A, count(*) from R group by A, time/3",
                     "select B, count(*) from R group by B, time/3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "per-record cost" in out
        assert "2 queries" in out

    def test_execute_reports_measured_costs(self, npz_path, capsys):
        path, _ = npz_path
        code = main(["--data", path, "--memory", "2000", "--execute",
                     "select A, count(*) from R group by A, time/3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "records processed : 4000" in out
        assert "sustainable rate" in out

    def test_shard_argument_validation(self, npz_path, capsys):
        path, _ = npz_path
        query = "select A, count(*) from R group by A, time/3"
        with pytest.raises(SystemExit):
            main(["--data", path, "--execute", "--shards", "0", query])
        assert "--shards must be >= 1" in capsys.readouterr().err
        # There is one LFTA data path, one way to run shards and one way
        # to partition them, and no flag to pick another.
        for flag, value in (("--strategy", "sort"),
                            ("--shard-executor", "serial"),
                            ("--partition", "hash"),
                            ("--partition-column", "A")):
            with pytest.raises(SystemExit) as exit_info:
                main(["--data", path, "--execute", "--shards", "2",
                      flag, value, query])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err

    def test_execute_sharded(self, npz_path, capsys):
        path, _ = npz_path
        code = main(["--data", path, "--memory", "2000", "--execute",
                     "--shards", "2",
                     "select A, count(*) from R group by A, time/3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards            : 2" in out.splitlines()
        assert "records processed : 4000" in out

    def test_sharded_answers_match_single_core(self, npz_path, capsys):
        path, _ = npz_path
        query = "select A, B, count(*) from R group by A, B, time/3"
        outputs = {}
        for extra in ([], ["--shards", "3"]):
            code = main(["--data", path, "--memory", "2000", "--execute",
                         *extra, query])
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            outputs[bool(extra)] = [ln for ln in lines
                                    if "records processed" in ln
                                    or "epochs" in ln]
        assert outputs[False] == outputs[True]

    def test_metrics_json_writes_sharded_manifest(self, npz_path, tmp_path,
                                                  capsys):
        """The acceptance scenario: --metrics-json with --shards 4 emits
        per-shard phase spans and counters summing to the merged ones."""
        import json
        path, data = npz_path
        out = tmp_path / "out.json"
        code = main(["--data", path, "--memory", "2000",
                     "--shards", "4", "--metrics-json", str(out),
                     "select A, count(*) from R group by A, time/3"])
        assert code == 0
        assert "metrics manifest" in capsys.readouterr().out
        manifest = json.loads(out.read_text())
        assert manifest["n_records"] == len(data)
        assert manifest["plan"]["algorithm"]
        assert manifest["shards"]
        for shard in manifest["shards"]:
            assert any(span["name"] == "engine"
                       for span in shard["spans"])
        for rel, merged in manifest["relations"].items():
            for key, value in merged.items():
                assert value == sum(
                    shard["relations"].get(rel, {}).get(key, 0)
                    for shard in manifest["shards"])
        assert any(span["name"] == "partition"
                   for span in manifest["metrics"]["spans"])

    def test_metrics_json_implies_execute(self, npz_path, tmp_path,
                                          capsys):
        import json
        path, data = npz_path
        out = tmp_path / "single.json"
        code = main(["--data", path, "--memory", "2000",
                     "--metrics-json", str(out),
                     "select A, count(*) from R group by A, time/3"])
        assert code == 0
        assert "records processed" in capsys.readouterr().out
        manifest = json.loads(out.read_text())
        assert manifest["n_records"] == len(data)
        assert manifest["metrics"]["counters"]["engine.records"] == \
            len(data)
        assert not [key for key in manifest if key.startswith("strateg")]

    def test_trace_prints_phase_spans(self, npz_path, capsys):
        path, _ = npz_path
        code = main(["--data", path, "--memory", "2000",
                     "--shards", "2", "--trace",
                     "select A, count(*) from R group by A, time/3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace (phase spans):" in out
        assert "engine" in out and "merge" in out

    def test_where_clause_filters(self, npz_path, capsys):
        path, data = npz_path
        threshold = int(data.columns["B"].max())  # keeps a strict subset
        code = main(["--data", path, "--memory", "2000", "--execute",
                     f"select A, count(*) from R where B != {threshold} "
                     "group by A, time/3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "where:" in out
        assert "records processed : 4000" not in out

    def test_csv_with_value_columns(self, npz_path, tmp_path, capsys):
        _, data = npz_path
        csv_path = tmp_path / "trace.csv"
        save_csv(data, csv_path)
        code = main(["--data", str(csv_path), "--memory", "2000",
                     "--value-columns", "len", "--execute",
                     "select A, avg(len) from R group by A, time/3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-record cost" in out

    def test_execute_min_max(self, npz_path, capsys, monkeypatch):
        """min/max read the run's value column like sum/avg do, and
        answer exactly."""
        import numpy as np

        from repro.gigascope.runtime import StreamSystem
        path, data = npz_path
        reports = []
        run = StreamSystem.run
        monkeypatch.setattr(StreamSystem, "run", lambda self, registry=None:
                            reports.append(run(self, registry)) or reports[-1])
        code = main(["--data", path, "--memory", "2000", "--execute",
                     "select A, max(len) from R group by A, time/3"])
        assert code == 0
        assert "records processed : 4000" in capsys.readouterr().out
        (query,) = reports[0].queries
        epochs = np.floor(data.timestamps / 3.0).astype(int)
        for epoch, answer in reports[0].answers(query).items():
            rows = epochs == epoch
            assert answer == {
                (a,): data.values["len"][rows & (data.columns["A"] == a)]
                .max() for a in np.unique(data.columns["A"][rows])}

    def test_missing_file(self, capsys):
        code = main(["--data", "/nonexistent.npz", "--memory", "2000",
                     "select A, count(*) from R group by A"])
        assert code == 2
        assert "no such dataset" in capsys.readouterr().err

    def test_bad_extension(self, tmp_path, capsys):
        path = tmp_path / "trace.parquet"
        path.write_text("x")
        code = main(["--data", str(path), "--memory", "2000",
                     "select A, count(*) from R group by A"])
        assert code == 2
        assert "unsupported dataset format" in capsys.readouterr().err

    def test_bad_query(self, npz_path, capsys):
        path, _ = npz_path
        code = main(["--data", path, "--memory", "2000",
                     "select nothing sensible"])
        assert code == 2

    def test_unknown_attribute(self, npz_path, capsys):
        path, _ = npz_path
        code = main(["--data", path, "--memory", "2000",
                     "select Z, count(*) from R group by Z"])
        assert code == 2
        # So is a value column the data does not declare.
        for queries in (["select A, max(ttl) from R group by A"],
                        ["select A, sum(len) from R group by A",
                         "select B, min(B) from R group by B"]):
            assert main(["--data", path, "--memory", "2000", "--execute",
                         *queries]) == 2
            assert "error:" in capsys.readouterr().err
