"""Unit tests for the experiment registry and CLI plumbing."""

import pytest

from repro.harness import EXPERIMENTS, get_experiment, run_experiment
from repro.harness.__main__ import main as cli_main


class TestRegistry:
    def test_all_artifacts_registered(self):
        ids = EXPERIMENTS.ids()
        assert sorted(ids) == sorted(
            ["t2_1", "t3_1", "t3_2", "f3_3", "f3_4",
             "f4_2", "t4_1", "f4_4", "f4_5", "f4_6", "r1"]
        )

    def test_contains(self):
        assert "t3_1" in EXPERIMENTS
        assert "t9_9" not in EXPERIMENTS

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("f0_0")

    def test_lazy_loading_caches(self):
        a = get_experiment("t2_1")
        b = get_experiment("t2_1")
        assert a is b

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            run_experiment("t2_1", scale="galactic")

    def test_every_experiment_has_title(self):
        for eid in EXPERIMENTS.ids():
            exp = get_experiment(eid)
            assert exp.experiment_id == eid
            assert exp.title

    def test_faults_rejected_by_paper_artifacts(self):
        # only experiments that opt in (accepts_faults) take a --faults
        # spec; the paper artifacts model a fail-free cluster
        with pytest.raises(ValueError, match="does not accept"):
            run_experiment("t2_1", faults="loss:prob=0.5")
        assert get_experiment("r1").accepts_faults


class TestRunExperiment:
    def test_t2_1_runs_instantly(self):
        result = run_experiment("t2_1")
        assert result.shape_ok
        assert result.rows[0]["Machine Name"] == "Lehman"

    def test_t3_1_quick(self):
        result = run_experiment("t3_1", scale="quick")
        assert result.shape_ok
        assert len(result.rows) == 4


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "t3_1" in out and "f4_6" in out

    def test_run_one(self, capsys):
        assert cli_main(["t2_1"]) == 0
        out = capsys.readouterr().out
        assert "Platform Characteristics" in out
        assert "Shape check: OK" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert cli_main(["t2_1", "--out", str(target)]) == 0
        assert "Lehman" in target.read_text()

    def test_no_experiments_errors(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_unknown_id_is_a_usage_error_before_any_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["t2_1", "nosuch"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Platform Characteristics" not in captured.out
        assert "unknown experiment 'nosuch'" in captured.err

    def test_run_token_is_an_unknown_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "t2_1"])
        assert exc.value.code == 2
        assert "unknown experiment 'run'" in capsys.readouterr().err

    def test_faults_acceptance_checked_before_any_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["r1", "t2_1", "--faults", "loss:prob=0.01"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Shape check" not in captured.out
        assert "'t2_1' does not accept a --faults spec" in captured.err

    @pytest.mark.parametrize("argv", [
        ["t2_1", "--list"], ["--all", "--list"],
        ["t2_1", "--status", "cache"], ["--all", "--status"],
    ])
    def test_ids_with_list_or_status_are_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "take no experiment ids or --all" in captured.err

    def test_bad_faults_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["r1", "--no-cache", "--faults", "crash:node=zz"])
        assert exc.value.code == 2
        assert "--faults: bad node='zz'" in capsys.readouterr().err


class TestCliTracing:
    def test_trace_writes_valid_json(self, tmp_path, capsys):
        import json

        from repro.obs.validate import validate_document

        target = tmp_path / "trace.json"
        assert cli_main(["t3_1", "--trace", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert validate_document(doc) == []
        assert f"trace written to {target}" in capsys.readouterr().out

    def test_trace_rejects_multiple_experiments(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["t2_1", "t3_1", "--trace", str(tmp_path / "t.json")])

    def test_report_breakdown_prints_attribution(self, capsys):
        assert cli_main(["t3_1", "--report-breakdown"]) == 0
        out = capsys.readouterr().out
        assert "Simulated-time breakdown" in out
        assert "compute" in out and "network" in out
        assert "total" in out

    def test_traces_deterministic_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["t3_1", "--trace", str(a)]) == 0
        assert cli_main(["t3_1", "--trace", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
