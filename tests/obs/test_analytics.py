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
    diff_sequence,
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


def _series(tmp_path, elapsed, events=None):
    """One summary file per value, written r0.json, r1.json, ... in order."""
    paths = []
    for i, value in enumerate(elapsed):
        doc = _summary([_point(0, elapsed=value)])
        if events is not None:
            doc["points"][0]["engine"][names.ENGINE_EVENTS_POPPED] = events[i]
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def _fold(paths):
    return diff_sequence([(p, load_summary(p)) for p in paths])


class TestDiffSequence:
    """``diff REF CAND [CAND ...]``: an ordered run against its first input."""

    def test_two_inputs_are_exactly_diff_summaries(self, tmp_path):
        base, worse = _series(tmp_path, (1.0, 2.0))
        fold = _fold([base, worse])
        plain = diff_summaries(load_summary(base), load_summary(worse))
        assert fold.render() == plain.render()
        assert fold.to_json() == plain.to_json()

    def test_fewer_than_two_inputs_is_an_error(self, tmp_path):
        (only,) = _series(tmp_path, (1.0,))
        with pytest.raises(ValueError, match="at least one candidate"):
            _fold([only])

    def test_steady_sequence_is_clean(self, tmp_path):
        report = _fold(_series(tmp_path, (1.0, 1.02, 0.98)))
        assert report.ok
        assert report.deltas == []

    def test_first_bad_input_is_named(self, tmp_path):
        # r1 runs 50% longer than the reference and r2 stays there
        paths = _series(tmp_path, (1.0, 1.5, 1.6))
        report = _fold(paths)
        assert not report.ok
        (delta,) = report.regressions
        assert (delta.metric, delta.first) == ("time", paths[1])
        assert delta.trail == (1.0, 1.5, 1.6)

    def test_renders_the_trajectory(self, tmp_path):
        paths = _series(tmp_path, (1.0, 1.5, 1.6))
        lines = _fold(paths).render().splitlines()
        head = "f3_3/quick aaaaaaaaaaaa"
        assert lines[0] == f"campaign diff: {head} -> {head} -> {head}"
        assert lines[1] == (f"  point 0 (uts): time +60.0% (1 -> 1.5 -> 1.6) "
                            f"[regression, first at {paths[1]}]")
        assert lines[2].startswith("verdict: REGRESSED — 1 regression(s)")

    def test_recovered_dip_passes_and_is_listed(self, tmp_path):
        paths = _series(tmp_path, (1.0, 2.0, 1.02))
        report = _fold(paths)
        assert report.ok  # the last input is back within threshold
        assert report.regressions == []
        (delta,) = report.deltas
        assert (delta.kind, delta.first) == ("recovered", paths[1])
        assert "recovered" in report.render()

    def test_decrease_never_fails(self, tmp_path):
        report = _fold(_series(tmp_path, (1.0, 0.5, 0.1),
                               events=(1000, 100, 10)))
        assert report.ok
        assert {d.kind for d in report.deltas} == {"improvement"}

    def test_count_metric_flags_on_increase(self, tmp_path):
        report = _fold(_series(tmp_path, (1.0, 1.0, 1.0),
                               events=(1000, 1000, 2000)))
        assert [d.metric for d in report.regressions] == ["engine events"]

    def test_zero_cell_flags_once_it_clears_the_floor(self, tmp_path):
        # engine events 0 -> 10 stays under the count floor (16); 0 -> 100
        # is new cost, named at the input where it first cleared it
        paths = _series(tmp_path, (1.0, 1.0, 1.0), events=(0, 10, 100))
        report = _fold(paths)
        (delta,) = report.regressions
        assert (delta.metric, delta.first) == ("engine events", paths[2])
        assert "new" in delta.render()

    def test_structural_error_at_any_input_fails(self, tmp_path):
        base, same = _series(tmp_path, (1.0, 1.0))
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            _summary([_point(0, elapsed=1.0)], experiment="t3_1")))
        report = _fold([base, str(other), same])
        assert not report.ok
        assert report.errors == [
            f"{other}: experiments differ: 'f3_3' vs 't3_1'"]

    def test_missing_point_shows_as_nan(self):
        base = _summary([_point(0), _point(1, elapsed=1.0)])
        worse = copy.deepcopy(base)
        worse["points"][1]["elapsed_s"] = 2.0
        short = _summary([_point(0)])
        report = diff_sequence([("base", base), ("worse", worse),
                                ("short", short)])
        assert report.errors == [
            "short: point counts differ: 2 vs 1; comparing the common prefix"]
        (delta,) = report.deltas
        assert delta.kind == "recovered"
        assert "(1 -> 2 -> nan)" in delta.render()

    def test_malformed_point_is_a_value_error(self):
        base = _summary([_point(0)])
        bad = copy.deepcopy(base)
        del bad["points"][0]["breakdown"]
        with pytest.raises(ValueError, match="after point 0 .*'breakdown'"):
            diff_summaries(base, bad)


class TestDiffSequenceCli:
    def test_summaries_keep_argument_order(self, tmp_path, capsys):
        r0, r1, r2 = _series(tmp_path, (1.0, 2.0, 3.0))
        # r2 is the reference: both candidates improve on it, r0 first
        assert analytics_main(["diff", r2, r0, r1, "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["deltas"]
        assert (row["trail"], row["first"]) == ([3.0, 1.0, 2.0], r0)
        assert row["kind"] == "improvement"

    def test_campaign_dir_means_its_summary(self, tmp_path, capsys):
        (path,) = _series(tmp_path, (1.0,))
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        (campaign / "campaign-summary.json").write_text(
            (tmp_path / "r0.json").read_text())
        assert analytics_main(["diff", str(campaign), path, path]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_empty_directory_is_a_usage_error(self, tmp_path, capsys):
        (path,) = _series(tmp_path, (1.0,))
        empty = tmp_path / "empty"
        empty.mkdir()
        assert analytics_main(["diff", path, str(empty)]) == 2
        assert "campaign-summary.json" in capsys.readouterr().err

    def test_old_baseline_shape_is_not_a_summary(self, tmp_path, capsys):
        (path,) = _series(tmp_path, (1.0,))
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"experiments": {}}))
        assert analytics_main(["diff", str(old), path, path]) == 2
        assert "not a campaign summary" in capsys.readouterr().err

    def test_unknown_shape_is_a_usage_error(self, tmp_path, capsys):
        (path,) = _series(tmp_path, (1.0,))
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"neither": 1}))
        assert analytics_main(["diff", path, path, str(junk)]) == 2
        assert "not a campaign summary" in capsys.readouterr().err

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        assert analytics_main(["diff", str(tmp_path / "nope.json"),
                               str(tmp_path / "nope2.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fewer_than_two_inputs_is_a_usage_error(self, tmp_path):
        (path,) = _series(tmp_path, (1.0,))
        with pytest.raises(SystemExit) as exc:
            analytics_main(["diff", path])
        assert exc.value.code == 2

    def test_last_input_sets_the_exit_code(self, tmp_path, capsys):
        r0, r1, r2 = _series(tmp_path, (1.0, 2.5, 1.0))
        assert analytics_main(["diff", r0, r1]) == 1
        assert analytics_main(["diff", r0, r1, r2]) == 0
        assert analytics_main(["diff", r0, r2, r1]) == 1
        out = capsys.readouterr().out
        assert f"[recovered, first at {r1}]" in out
        assert f"[regression, first at {r1}]" in out

    def test_rel_loosens_the_gate(self, tmp_path):
        paths = _series(tmp_path, (1.0, 1.0, 1.4))
        assert analytics_main(["diff", *paths, "--rel", "0.2"]) == 1
        assert analytics_main(["diff", *paths, "--rel", "0.5"]) == 0

    def test_json_output_is_canonical(self, tmp_path, capsys):
        paths = _series(tmp_path, (1.0, 2.0, 1.0))
        assert analytics_main(["diff", *paths, "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [row["kind"] for row in doc["deltas"]] == ["recovered"]
        assert out == canonical_dumps(doc)

    def test_malformed_summary_is_a_usage_error(self, tmp_path, capsys):
        # a schema-1 summary whose point lacks every section but engine
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({
            "schema": SCHEMA_VERSION,
            "campaign": {"experiment": "t3_1", "scale": "quick",
                         "fingerprint": "d" * 64},
            "points": [{"elapsed_s": 1.0, "engine": {}}]}))
        assert analytics_main(["diff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "point 0" in err and "'breakdown'" in err
