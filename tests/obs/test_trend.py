"""Cross-revision trend tracking: loading, crossings, bisect hints, CLI."""

import json

import pytest

from repro.obs import names
from repro.obs.analytics import canonical_dumps
from repro.obs.analytics.__main__ import main as analytics_main
from repro.obs.analytics.trend import load_trend_points, trend_report


def _summary(experiment="t3_1", elapsed=1.0, events=1000, switches=500,
             fingerprint="d" * 64):
    return {
        "schema": 1,
        "campaign": {"experiment": experiment, "scale": "quick",
                     "fingerprint": fingerprint},
        "points": [{"elapsed_s": elapsed,
                    "engine": {names.ENGINE_EVENTS_POPPED: events,
                               names.ENGINE_CONTEXT_SWITCHES: switches}}],
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _series(tmp_path, elapsed, events=None):
    """One summary per value, fingerprinted r0, r1, ... in that order."""
    events = events or [1000] * len(elapsed)
    return [_write(tmp_path, f"r{i}.json",
                   _summary(elapsed=value, events=count,
                            fingerprint=f"r{i}".ljust(64, "0")))
            for i, (value, count) in enumerate(zip(elapsed, events))]


def _label(i):
    return f"t3_1@{f'r{i}'.ljust(12, '0')}"


class TestLoading:
    def test_summaries_keep_argument_order(self, tmp_path):
        later, earlier = _series(tmp_path, (2.0, 1.0))
        points = load_trend_points([earlier, later])
        assert [p.label for p in points] == [_label(1), _label(0)]

    def test_campaign_dir_falls_back_to_its_summary(self, tmp_path):
        _write(tmp_path, "campaign-summary.json", _summary())
        (point,) = load_trend_points([str(tmp_path)])
        assert point.label == "t3_1@dddddddddddd"
        assert point.metrics["t3_1 sim_s"] == 1.0
        assert point.metrics["t3_1 engine_events"] == 1000.0
        assert point.metrics["t3_1 engine_switches"] == 500.0

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="campaign-summary.json"):
            load_trend_points([str(tmp_path)])

    def test_unknown_shape_is_an_error(self, tmp_path):
        path = _write(tmp_path, "junk.json", {"neither": 1})
        with pytest.raises(ValueError, match="not a campaign summary"):
            load_trend_points([path])

    def test_old_baseline_shape_is_not_a_summary(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", {"experiments": {}})
        new = _write(tmp_path, "new.json", _summary())
        with pytest.raises(ValueError, match="not a campaign summary"):
            load_trend_points([old])
        assert analytics_main(["trend", old, new]) == 2
        assert "not a campaign summary" in capsys.readouterr().err

    def test_fewer_than_two_points_is_an_error(self, tmp_path):
        path = _write(tmp_path, "only.json", _summary())
        with pytest.raises(ValueError, match="at least 2"):
            trend_report([path])


class TestCrossings:
    def test_steady_trend_is_clean(self, tmp_path):
        report = trend_report(_series(tmp_path, (1.0, 0.95, 1.05)), rel=0.2)
        assert report.ok
        assert report.crossings == []

    def test_first_bad_revision_is_named(self, tmp_path):
        # r1 runs 50% longer than the reference and r2 stays there
        report = trend_report(_series(tmp_path, (1.0, 1.5, 1.6)), rel=0.2)
        assert not report.ok
        (crossing,) = report.crossings
        assert crossing.metric == "t3_1 sim_s"
        assert crossing.first_bad == _label(1)
        assert crossing.latest_crossed
        rendered = report.render()
        assert "REGRESSED" in rendered and _label(1) in rendered

    def test_recovered_dip_is_history_not_regression(self, tmp_path):
        report = trend_report(_series(tmp_path, (1.0, 2.0, 1.02)), rel=0.2)
        assert report.ok  # latest point is back within threshold
        (crossing,) = report.crossings
        assert crossing.first_bad == _label(1)
        assert not crossing.latest_crossed
        assert "recovered" in report.render()

    def test_lower_better_metric_flags_on_increase(self, tmp_path):
        report = trend_report(
            _series(tmp_path, (1.0, 1.0), events=(1000, 2000)), rel=0.2)
        crossed = {c.metric for c in report.crossings if c.latest_crossed}
        assert crossed == {"t3_1 engine_events"}

    def test_decrease_never_flags(self, tmp_path):
        report = trend_report(
            _series(tmp_path, (1.0, 0.1), events=(1000, 10)), rel=0.2)
        assert report.ok
        assert report.crossings == []

    def test_zero_reference_guard(self, tmp_path):
        # events 0 -> 100: no relative anchor, so becoming nonzero flags
        report = trend_report(
            _series(tmp_path, (1.0, 1.0), events=(0, 100)), rel=0.2)
        crossed = {c.metric for c in report.crossings}
        assert crossed == {"t3_1 engine_events"}


class TestCli:
    def _pair(self, tmp_path, second_elapsed):
        return _series(tmp_path, (1.0, second_elapsed))

    def test_trend_renders_table(self, tmp_path, capsys):
        paths = self._pair(tmp_path, 1.0)
        assert analytics_main(["trend", *paths]) == 0
        out = capsys.readouterr().out
        assert f"perf trend across 2 point(s): {_label(0)} -> {_label(1)}" in out
        assert "t3_1 sim_s" in out and "CLEAN" in out

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        paths = self._pair(tmp_path, 2.5)
        assert analytics_main(["trend", *paths]) == 0  # report-only
        assert analytics_main(["trend", *paths, "--check"]) == 1
        assert f"first bad revision(s): {_label(1)}" in capsys.readouterr().out

    def test_rel_loosens_the_gate(self, tmp_path):
        paths = self._pair(tmp_path, 1.4)
        assert analytics_main(["trend", *paths, "--check", "--rel", "0.2"]) == 1
        assert analytics_main(["trend", *paths, "--check", "--rel", "0.5"]) == 0

    def test_json_output_is_canonical(self, tmp_path, capsys):
        paths = self._pair(tmp_path, 1.0)
        assert analytics_main(["trend", *paths, "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["ok"] is True
        assert out == canonical_dumps(doc)

    def test_bad_input_is_a_clean_error(self, tmp_path, capsys):
        assert analytics_main(["trend", str(tmp_path / "nope.json"),
                               str(tmp_path / "nope2.json")]) == 2
        assert "error:" in capsys.readouterr().err
