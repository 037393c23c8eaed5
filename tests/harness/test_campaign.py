"""Campaign pipeline tests: planning, executors, caching, CLI flags.

The heavyweight acceptance tests — every experiment byte-identical to
its pre-refactor golden report at ``--jobs 1``, and parallel execution
producing the same ``ExperimentResult`` — live in
``test_golden_reports.py``; this module covers the pipeline mechanics
with small synthetic experiments plus the cheapest real ones.
"""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.campaign import Campaign
from repro.harness.executor import (
    ExecutionBatch,
    InlineExecutor,
    execute_spec,
    make_executor,
)
from repro.harness.queue import QueueExecutor
from repro.harness.reporting import ExperimentResult
from repro.harness.runner import EXPERIMENTS, Experiment, get_experiment
from repro.harness.spec import RunSpec


def _toy_experiment(accepts_faults=False):
    """A 3-point experiment over the real uts adapter (cheapest app)."""
    def points(scale, faults=None):
        specs = [
            RunSpec.make("uts", scale=scale, policy="local", preset="pyramid",
                         nodes=2, threads=t, threads_per_node=max(1, t // 2),
                         tree="tiny", faults=faults)
            for t in (1, 2, 4)
        ]
        return specs

    def collate(scale, outputs, faults=None):
        return ExperimentResult(
            experiment_id="toy", title="toy", scale=scale,
            rows=[{"threads": 1 << i, "elapsed_s": o["elapsed_s"]}
                  for i, o in enumerate(outputs)],
        )

    if accepts_faults:
        return Experiment("toy", "toy", points, collate, accepts_faults=True)
    return Experiment("toy", "toy",
                      lambda scale: points(scale),
                      lambda scale, outputs: collate(scale, outputs))


class TestExecuteSpec:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="no adapter"):
            execute_spec(RunSpec.make("nonesuch"))

    def test_dotted_app_uses_prefix_package(self):
        out = execute_spec(RunSpec.make(
            "microbench.latency", preset="lehman", nodes=2, conduit="ib-ddr",
            link_pairs=1, backend="processes", sizes=[8]))
        assert out["by_size"][0][0] == 8


class TestExecutors:
    def test_make_executor_selects_by_jobs(self):
        assert isinstance(make_executor(1), InlineExecutor)
        fanned = make_executor(4)
        assert isinstance(fanned, QueueExecutor)
        assert fanned.journal_dir is None   # a plain --jobs run: no journal

    def test_parallel_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            QueueExecutor(0)

    def test_empty_batch(self):
        for executor in (InlineExecutor(), QueueExecutor(2)):
            batch = executor.run([])
            assert isinstance(batch, ExecutionBatch)
            assert batch.outputs == [] and batch.tracers == []

    def test_parallel_outputs_in_spec_order(self):
        specs = _toy_experiment().points("quick")
        inline = InlineExecutor().run(specs)
        parallel = QueueExecutor(3).run(specs)
        assert parallel.outputs == inline.outputs

    def test_parallel_trace_renumbers_run_index(self):
        specs = _toy_experiment().points("quick")
        batch = QueueExecutor(2).run(specs, trace=True)
        assert [t.run_index for t in batch.tracers] == [1, 2, 3]
        assert all(t.sim is None for t in batch.tracers)


class TestCampaign:
    def test_plan_matches_points(self):
        exp = _toy_experiment()
        campaign = Campaign(exp, scale="quick")
        assert campaign.plan() == list(exp.points("quick"))

    def test_faults_forwarded_only_when_accepted(self):
        exp = _toy_experiment(accepts_faults=True)
        campaign = Campaign(exp, scale="quick", faults="loss:prob=0.01;seed=3")
        assert all(s.faults == "loss:prob=0.01;seed=3"
                   for s in campaign.plan())

    def test_uncached_result_has_no_campaign_counters(self):
        outcome = Campaign(_toy_experiment()).run()
        assert outcome.result.campaign == {}
        assert "Campaign:" not in outcome.result.render()

    def test_cold_then_warm_cache(self, tmp_path):
        exp = _toy_experiment()
        cache = ResultCache(tmp_path)
        cold = Campaign(exp, cache=cache).run()
        assert (cold.points, cold.executed, cold.cache_hits) == (3, 3, 0)
        warm = Campaign(exp, cache=cache).run()
        assert (warm.points, warm.executed, warm.cache_hits) == (3, 0, 3)
        # the artifact itself is identical; only the counters move
        cold_d, warm_d = cold.result.to_dict(), warm.result.to_dict()
        assert cold_d.pop("campaign") == {"points": 3, "executed": 3,
                                          "cache_hits": 0}
        assert warm_d.pop("campaign") == {"points": 3, "executed": 0,
                                          "cache_hits": 3}
        assert cold_d == warm_d
        assert "3 cache hit(s)" in warm.result.render()

    def test_traced_run_bypasses_cache_reads_but_still_writes(self, tmp_path):
        exp = _toy_experiment()
        cache = ResultCache(tmp_path)
        Campaign(exp, cache=cache).run()
        traced = Campaign(exp, cache=cache).run(trace=True)
        # a hit would silently drop that point from the trace
        assert traced.cache_hits == 0 and traced.executed == 3
        assert len(traced.batch.tracers) == 3
        warm = Campaign(exp, cache=cache).run()
        assert warm.cache_hits == 3

    def test_parallel_campaign_same_result(self):
        inline = Campaign(_toy_experiment()).run()
        fanned = Campaign(_toy_experiment(), executor=make_executor(3)).run()
        assert fanned.result.to_dict() == inline.result.to_dict()


class TestExperimentCall:
    def test_faults_rejected_without_opt_in(self):
        # satellite fix: __call__ must reject faults on fault-free
        # experiments instead of silently dropping the plan
        exp = _toy_experiment(accepts_faults=False)
        with pytest.raises(ValueError, match="does not accept"):
            exp(faults="loss:prob=0.5")

    def test_real_paper_artifact_rejects_faults(self):
        with pytest.raises(ValueError, match="does not accept"):
            get_experiment("t3_1")(faults="loss:prob=0.5")

    def test_faults_accepted_when_opted_in(self):
        exp = _toy_experiment(accepts_faults=True)
        result = exp(faults="loss:prob=0.01;seed=3")
        assert result.rows


class TestRegistryTitles:
    def test_list_does_not_import_experiment_modules(self, capsys, monkeypatch):
        # --list must work from the static title table alone
        from repro.harness.__main__ import main as cli_main
        from repro.harness.runner import _Registry

        def boom(self, eid):
            raise AssertionError(f"--list imported experiment {eid!r}")

        monkeypatch.setattr(_Registry, "get", boom)
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENTS.ids():
            assert eid in out

    def test_static_titles_match_experiment_titles(self):
        for eid in EXPERIMENTS.ids():
            assert EXPERIMENTS.title(eid) == get_experiment(eid).title

    def test_unknown_title_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            EXPERIMENTS.title("f0_0")


class TestCliCampaignFlags:
    def test_jobs_must_be_positive(self):
        from repro.harness.__main__ import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["t2_1", "--jobs", "0"])

    def test_no_cache_omits_campaign_line(self, capsys):
        from repro.harness.__main__ import main as cli_main

        assert cli_main(["t3_1", "--no-cache"]) == 0
        assert "Campaign:" not in capsys.readouterr().out

    def test_second_cached_invocation_executes_zero_points(
            self, tmp_path, capsys):
        from repro.harness.__main__ import main as cli_main

        args = ["t3_1", "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(args) == 0
        cold = capsys.readouterr().out
        assert "Campaign: 4 point(s), 4 executed, 0 cache hit(s)" in cold
        assert cli_main(args) == 0
        warm = capsys.readouterr().out
        assert "Campaign: 4 point(s), 0 executed, 4 cache hit(s)" in warm

    def test_parallel_cli_run(self, capsys):
        from repro.harness.__main__ import main as cli_main

        assert cli_main(["t3_1", "--jobs", "2", "--no-cache"]) == 0
        assert "Shape check: OK" in capsys.readouterr().out

    def test_parallel_trace_byte_identical_to_inline(self, tmp_path):
        from repro.harness.__main__ import main as cli_main

        inline, fanned = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["t3_1", "--no-cache", "--trace", str(inline)]) == 0
        assert cli_main(["t3_1", "--no-cache", "--jobs", "3",
                         "--trace", str(fanned)]) == 0
        assert inline.read_bytes() == fanned.read_bytes()
