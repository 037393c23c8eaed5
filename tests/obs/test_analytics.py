"""Campaign analytics: summaries, diff verdicts, scaling checks.

Unit-level coverage of :mod:`repro.obs.analytics` — real traced runs
feed the summarizer; the diff and check engines are also exercised on
synthetic summaries where the expected verdict is known by construction.
"""

import copy
import json

import pytest

from repro.obs import names
from repro.obs.analytics import (
    SCHEMA_VERSION,
    canonical_dumps,
    check_summary,
    diff_summaries,
    find_campaign_dirs,
    load_summary,
    merge_campaign,
    point_summary,
    summarize_campaign_dir,
    summarize_tracers,
    write_campaign,
)
from repro.obs.analytics.__main__ import main as analytics_main
from repro.obs.session import instrument
from repro.upc.runtime import UpcProgram


def _app(upc):
    yield from upc.compute(1e-6)
    yield from upc.memput((upc.MYTHREAD + 1) % upc.THREADS, 1 << 14)
    yield from upc.barrier()


def _tracers(threads=4):
    with instrument("test", trace=True) as sess:
        UpcProgram(threads=threads).run(_app)
    return list(sess.tracers)


def _point(index=0, threads=4, elapsed=None, app="uts", **spec_extra):
    """A synthetic point summary with a known shape."""
    point = {
        "schema": SCHEMA_VERSION, "index": index, "app": app,
        "fingerprint": f"f{index:063x}",
        "spec": {"app": app, "threads": threads, "scale": "quick",
                 "extras": {}, **spec_extra},
        "runs": 1,
        "elapsed_s": elapsed if elapsed is not None else 1.0 / threads,
        "breakdown": {"categories": {names.CAT_COMPUTE: 0.8,
                                     names.CAT_NETWORK: 0.2},
                      "total_seconds": 1.0},
        "phases": {"search": {"count": 1, "seconds": 0.5}},
        "comm": [{"src_node": 0, "dst_node": 1,
                  "messages": 100, "bytes": 4096.0}],
        "links": [{"link": "nic.tx0", "busy_seconds": 0.1,
                   "utilization": 0.1}],
        "barriers": {"waits": 4, "wait_seconds": 0.05,
                     "max_wait_seconds": 0.02,
                     "by_name": {"barrier": {"count": 4, "seconds": 0.05}}},
        "steals": {"count": 2, "seconds": 0.01},
        "engine": {names.ENGINE_EVENTS_POPPED: 1000,
                   names.ENGINE_HEAP_PEAK: 40,
                   names.ENGINE_CONTEXT_SWITCHES: 500,
                   names.ENGINE_COSTED_CYCLES: 300},
    }
    return point


def _summary(points, experiment="f3_3"):
    header = {"fingerprint": "a" * 64, "experiment": experiment,
              "scale": "quick", "points": len(points), "version": "0"}
    return merge_campaign(header, points)


class TestSummarizeTracers:
    def test_covers_every_section(self):
        summary = summarize_tracers(_tracers())
        assert summary["runs"] == 1
        assert summary["elapsed_s"] > 0
        assert set(summary["breakdown"]["categories"]) == set(
            names.BREAKDOWN_CATEGORIES)
        assert summary["comm"], "inter-node puts must land in the matrix"
        assert summary["links"], "NIC pipes must report busy time"
        assert summary["barriers"]["waits"] > 0
        assert summary["engine"][names.ENGINE_EVENTS_POPPED] > 0
        assert summary["engine"]["spans"] > 0

    def test_breakdown_consistent_with_elapsed(self):
        summary = summarize_tracers(_tracers())
        parts = sum(summary["breakdown"]["categories"].values())
        assert parts == pytest.approx(summary["elapsed_s"], rel=0.01)

    def test_deterministic_across_runs(self):
        a = canonical_dumps(summarize_tracers(_tracers()))
        b = canonical_dumps(summarize_tracers(_tracers()))
        assert a == b


class TestCampaignArtifacts:
    def _write(self, root):
        points = [point_summary(i, {"app": "uts",
                                    "fingerprint": f"f{i:063x}",
                                    "spec": {"app": "uts"}},
                                _tracers())
                  for i in range(2)]
        header = {"fingerprint": "b" * 64, "experiment": "t3_1",
                  "scale": "quick", "points": 2, "version": "0"}
        return write_campaign(root, header, points)

    def test_layout_and_roundtrip(self, tmp_path):
        directory = self._write(tmp_path)
        assert directory == tmp_path / ("b" * 16)
        assert (directory / "campaign.json").exists()
        assert len(list((directory / "points").glob("*.json"))) == 2
        summary = load_summary(directory)
        assert summary["schema"] == SCHEMA_VERSION
        assert len(summary["points"]) == 2
        assert summary["totals"]["runs"] == 2

    def test_resummarize_is_byte_identical(self, tmp_path):
        directory = self._write(tmp_path)
        first = (directory / "campaign-summary.json").read_bytes()
        summarize_campaign_dir(directory)
        assert (directory / "campaign-summary.json").read_bytes() == first

    def test_find_campaign_dirs(self, tmp_path):
        directory = self._write(tmp_path)
        assert find_campaign_dirs(tmp_path) == [directory]
        assert find_campaign_dirs(directory) == [directory]
        assert find_campaign_dirs(tmp_path / "nope") == []

    def test_load_summary_rejects_other_schema(self, tmp_path):
        directory = self._write(tmp_path)
        path = directory / "campaign-summary.json"
        doc = json.loads(path.read_text())
        doc["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_summary(path)

    def test_load_summary_missing_is_helpful(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="summarize"):
            load_summary(tmp_path)


class TestDiff:
    def test_self_diff_clean(self):
        summary = _summary([_point(0), _point(1, threads=8)])
        report = diff_summaries(summary, copy.deepcopy(summary))
        assert report.ok
        assert report.deltas == []
        assert report.compared > 0

    def test_localizes_regressed_phase(self):
        base = _summary([_point(0), _point(1, threads=8)])
        worse = copy.deepcopy(base)
        worse["points"][1]["phases"]["search"]["seconds"] = 0.9
        report = diff_summaries(base, worse)
        assert not report.ok
        assert [(d.point, d.metric) for d in report.regressions] == [
            (1, "phase 'search'")]

    def test_small_changes_below_floor_ignored(self):
        base = _summary([_point(0)])
        near = copy.deepcopy(base)
        near["points"][0]["phases"]["search"]["seconds"] += 1e-6
        assert diff_summaries(base, near).ok

    def test_improvement_is_not_a_regression(self):
        base = _summary([_point(0)])
        better = copy.deepcopy(base)
        better["points"][0]["elapsed_s"] *= 0.5
        report = diff_summaries(base, better)
        assert report.ok
        assert [d.metric for d in report.improvements] == ["time"]

    def test_count_metric_uses_absolute_floor(self):
        base = _summary([_point(0)])
        worse = copy.deepcopy(base)
        worse["points"][0]["engine"][names.ENGINE_EVENTS_POPPED] += 10
        assert diff_summaries(base, worse).ok  # +10 < count floor
        worse["points"][0]["engine"][names.ENGINE_EVENTS_POPPED] += 500
        report = diff_summaries(base, worse)
        assert [d.metric for d in report.regressions] == ["engine events"]

    def test_zero_baseline_seconds_does_not_autoflag_noise(self):
        # elapsed 0 on both sides degenerates the share floor to 0; the
        # absolute fallback must still swallow sub-floor noise on a
        # metric whose baseline is exactly 0.
        base = _summary([_point(0, elapsed=0.0)])
        base["points"][0]["phases"]["search"]["seconds"] = 0.0
        near = copy.deepcopy(base)
        near["points"][0]["phases"]["search"]["seconds"] = 0.005
        assert diff_summaries(base, near).ok

    def test_zero_baseline_flags_only_above_floor(self):
        # 0 -> 0.5s is a real regression ("new" cost), not a divide-by-
        # zero crash or a silently skipped cell.
        base = _summary([_point(0)])
        base["points"][0]["phases"]["search"]["seconds"] = 0.0
        worse = copy.deepcopy(base)
        worse["points"][0]["phases"]["search"]["seconds"] = 0.5
        report = diff_summaries(base, worse)
        assert [d.metric for d in report.regressions] == ["phase 'search'"]
        assert "new" in report.regressions[0].render()

    def test_metric_collapsing_to_zero_is_improvement(self):
        # the opposite direction: X -> 0 is an improvement, never an error
        base = _summary([_point(0)])
        gone = copy.deepcopy(base)
        gone["points"][0]["phases"]["search"]["seconds"] = 0.0
        report = diff_summaries(base, gone)
        assert report.ok
        assert [d.metric for d in report.improvements] == ["phase 'search'"]

    def test_structural_mismatch_is_an_error(self):
        a = _summary([_point(0)], experiment="t3_1")
        b = _summary([_point(0)], experiment="f3_3")
        report = diff_summaries(a, b)
        assert not report.ok
        assert any("experiments differ" in e for e in report.errors)

    def test_render_names_the_verdict(self):
        summary = _summary([_point(0)])
        assert "CLEAN" in diff_summaries(summary, summary).render()
        worse = copy.deepcopy(summary)
        worse["points"][0]["elapsed_s"] *= 10
        assert "REGRESSED" in diff_summaries(summary, worse).render()


class TestCheck:
    def test_healthy_scaling_is_ok(self):
        # halving time per doubling: monotone speedup, gentle efficiency
        points = [_point(i, threads=t, elapsed=1.0 / t ** 0.8)
                  for i, t in enumerate((4, 8, 16))]
        report = check_summary(_summary(points))
        assert report.ok
        assert len(report.series) == 1

    def test_non_monotone_speedup_flagged(self):
        points = [_point(0, threads=4, elapsed=1.0),
                  _point(1, threads=8, elapsed=0.5),
                  _point(2, threads=16, elapsed=0.8)]   # slower again
        report = check_summary(_summary(points))
        assert [a.kind for a in report.anomalies] == ["non-monotone-speedup"]
        assert report.anomalies[0].threads_after == 16

    def test_efficiency_cliff_flagged(self):
        # 4->8 scales well (eff 0.91); 8->16 collapses: speedup 1.82 ->
        # 1.43 (within rel_tol=0.5) but efficiency 0.91 -> 0.36 < 0.4x.
        points = [_point(0, threads=4, elapsed=1.0),
                  _point(1, threads=8, elapsed=0.55),
                  _point(2, threads=16, elapsed=0.70)]
        report = check_summary(_summary(points), rel_tol=0.5)
        assert [a.kind for a in report.anomalies] == ["efficiency-cliff"]

    def test_short_series_skipped_not_silent(self):
        points = [_point(0, threads=4), _point(1, threads=8)]
        report = check_summary(_summary(points))
        assert report.ok
        assert report.skipped

    def test_distinct_configs_make_distinct_series(self):
        points = ([_point(i, threads=t, policy="local")
                   for i, t in enumerate((4, 8, 16))]
                  + [_point(i + 3, threads=t, policy="baseline")
                     for i, t in enumerate((4, 8, 16))])
        report = check_summary(_summary(points))
        assert len(report.series) == 2
        assert len({s["key"] for s in report.series}) == 2


class TestCli:
    def _campaign(self, tmp_path, points):
        header = {"fingerprint": "c" * 64, "experiment": "f3_3",
                  "scale": "quick", "points": len(points), "version": "0"}
        return write_campaign(tmp_path, header, points)

    def test_summarize_diff_check_roundtrip(self, tmp_path, capsys):
        directory = self._campaign(
            tmp_path, [_point(i, threads=t, elapsed=1.0 / t)
                       for i, t in enumerate((4, 8, 16))])
        assert analytics_main(["summarize", str(tmp_path)]) == 0
        assert analytics_main(["diff", str(directory), str(directory)]) == 0
        assert analytics_main(["check", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out and "OK" in out

    def test_diff_exits_nonzero_on_regression(self, tmp_path, capsys):
        base = self._campaign(tmp_path / "a", [_point(0)])
        worse_points = [_point(0, elapsed=10.0)]
        worse = self._campaign(tmp_path / "b", worse_points)
        assert analytics_main(["diff", str(base), str(worse)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_json_output_is_canonical(self, tmp_path, capsys):
        directory = self._campaign(tmp_path, [_point(0)])
        assert analytics_main(
            ["diff", str(directory), str(directory), "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["ok"] is True
        assert out == canonical_dumps(json.loads(out))

    def test_missing_summary_is_a_clean_error(self, tmp_path, capsys):
        assert analytics_main(["summarize", str(tmp_path / "nope")]) == 2
        assert analytics_main(["check", str(tmp_path / "nope")]) == 2
