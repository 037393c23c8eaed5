"""Harness profiling end to end: artifacts, zero perturbation, degradation.

The contracts under test mirror CI's profile-smoke job: ``--profile``
writes both artifact pairs without touching the rendered report, cost
profiles are byte-identical across executors, worker points ship their
host samples back, and a degraded (durable, chaos-quarantined) campaign
excludes the poisoned point from both the campaign summary and the
merged profiles while the healthy remainder stays byte-deterministic.
"""

import json

from repro.harness.__main__ import main
from repro.harness.campaign import Campaign
from repro.harness.executor import make_executor
from repro.harness.runner import get_experiment, run_experiment
from repro.obs.analytics import load_summary
from repro.obs.profile import validate_profile, write_profiles
from repro.obs.profile.host import HostSampler

# Host samples need CPU: the kernel fires ITIMER_PROF on its own tick
# (4 ms at 250 Hz), so a t3_1 point, which burns a few ms, may take no
# sample at all.  Every r1 point burns over 50 ms of CPU at quick scale,
# so host-sample checks run on r1.
SAMPLED = "r1"


def _run(tmp_path, name, experiment="t3_1", **kwargs):
    out = tmp_path / name
    result = run_experiment(experiment, scale="quick", cache_dir=None,
                            profile_dir=str(out), **kwargs)
    return result, out


class TestArtifacts:
    def test_profile_dir_writes_both_valid_pairs(self, tmp_path):
        result, out = _run(tmp_path, "p", SAMPLED)
        assert result.shape_ok
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"{SAMPLED}-{mode}.{ext}"
                         for mode in ("cost", "host")
                         for ext in ("folded", "json")]
        for mode in ("host", "cost"):
            doc = json.loads((out / f"{SAMPLED}-{mode}.json").read_text())
            assert validate_profile(doc) == []
            assert doc["runs"] == 4  # one snapshot per campaign point
            assert doc["top"], "a real campaign must rank at least one layer"

    def test_profiling_leaves_report_byte_identical(self, tmp_path):
        plain = run_experiment("t3_1", scale="quick", cache_dir=None)
        profiled, _ = _run(tmp_path, "p")
        assert profiled.render() == plain.render()
        assert profiled.notes == plain.notes

    def test_cost_profile_byte_identical_inline_vs_jobs2(self, tmp_path):
        _, inline = _run(tmp_path, "inline")
        _, fanned = _run(tmp_path, "fanned", jobs=2)
        for name in ("t3_1-cost.json", "t3_1-cost.folded"):
            assert (inline / name).read_bytes() == (fanned / name).read_bytes()

    def test_host_samples_from_every_point_at_jobs2(self, tmp_path):
        campaign = Campaign(get_experiment(SAMPLED),
                            executor=make_executor(2))
        snapshots = campaign.run(profile=True).batch.profiles
        assert len(snapshots) == 4
        for snapshot in snapshots:  # each worker point ships its samples
            assert snapshot["host"], "a worker point took no host sample"
            assert all(samples > 0 for _, samples, _ in snapshot["host"])
        write_profiles(str(tmp_path), SAMPLED, snapshots)
        doc = json.loads((tmp_path / f"{SAMPLED}-host.json").read_text())
        assert validate_profile(doc) == []
        assert doc["runs"] == 4
        assert sum(weight for _, weight in doc["top"]) > 0


class TestDegradedCampaign:
    def _degraded(self, tmp_path, name):
        root = tmp_path / name
        result = run_experiment(
            "t3_1", scale="quick", cache_dir=None, jobs=2,
            chaos="fail:point=1", max_attempts=1,
            journal_dir=str(root / "journal"),
            summary_dir=str(root / "summaries"),
            profile_dir=str(root / "profiles"))
        (campaign_dir,) = [d for d in (root / "summaries").iterdir()
                           if d.is_dir()]
        return result, campaign_dir, root / "profiles"

    def test_quarantined_point_excluded_from_summary(self, tmp_path):
        result, campaign_dir, _ = self._degraded(tmp_path, "deg")
        assert not result.shape_ok  # degraded campaigns are not clean
        degraded = load_summary(campaign_dir)
        assert degraded["campaign"]["quarantined"] == [1]
        assert [p["index"] for p in degraded["points"]] == [0, 2, 3]

    def test_healthy_points_match_clean_run_byte_for_byte(self, tmp_path):
        _, campaign_dir, _ = self._degraded(tmp_path, "deg")
        run_experiment("t3_1", scale="quick", cache_dir=None,
                       summary_dir=str(tmp_path / "clean"))
        (clean_dir,) = [d for d in (tmp_path / "clean").iterdir()
                        if d.is_dir()]
        assert clean_dir.name == campaign_dir.name  # same fingerprint
        clean = {p["index"]: p for p in load_summary(clean_dir)["points"]}
        for point in load_summary(campaign_dir)["points"]:
            assert point == clean[point["index"]]

    def test_quarantined_point_excluded_from_profiles(self, tmp_path):
        _, _, profiles = self._degraded(tmp_path, "deg")
        doc = json.loads((profiles / "t3_1-cost.json").read_text())
        assert validate_profile(doc) == []
        assert doc["runs"] == 3  # the poisoned point contributed nothing

    def test_degraded_cost_profile_is_still_deterministic(self, tmp_path):
        _, _, profiles_a = self._degraded(tmp_path, "a")
        _, _, profiles_b = self._degraded(tmp_path, "b")
        for name in ("t3_1-cost.json", "t3_1-cost.folded"):
            assert ((profiles_a / name).read_bytes()
                    == (profiles_b / name).read_bytes())


class TestEmptyHostProfile:
    """The CLI says so when ``--profile`` took no host sample."""

    @staticmethod
    def _cli(tmp_path, name, capsys):
        out = tmp_path / f"{name}.md"
        assert main(["t3_1", "--no-cache", "--profile", str(tmp_path / name),
                     "--out", str(out)]) == 0
        report = [line for line in out.read_text().splitlines()
                  if not line.startswith("(wall time")]
        return report, capsys.readouterr()

    def test_empty_host_profile_warns_on_stderr(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setattr(HostSampler, "rows", lambda self: [])
        report, captured = self._cli(tmp_path, "empty", capsys)
        assert "warning: t3_1: the host profile holds no samples" in captured.err
        assert "1 ms SIGPROF sampler" in captured.err
        assert "warning" not in captured.out
        monkeypatch.setattr(HostSampler, "rows",
                            lambda self: [["sim.engine", 3, 0.012]])
        sampled, captured = self._cli(tmp_path, "sampled", capsys)
        assert captured.err == ""
        assert report == sampled  # the warning leaves the report alone
