"""Cross-revision perf trends: N-way trajectories with bisect hints.

``diff`` compares exactly two campaign summaries; :func:`trend_report`
ingests an ordered *sequence* of perf points — committed
``BENCH_<rev>.json`` baselines (:mod:`benchmarks.emit_baseline`) and/or
campaign summaries — and answers the longitudinal questions the ≥5x
engine-throughput campaign needs:

* **trajectory** — every metric's value at every revision, as one table;
* **crossing detection** — a metric *crosses* when it moves beyond
  ``rel`` in its bad direction relative to the **first** point (the
  reference revision).  Normalized throughput is higher-better;
  wall-clock, event and switch counts are lower-better.
* **bisect hints** — for each crossed metric, the *first* revision at
  which it crossed: the place to start a bisect, named explicitly.

``--check`` (exit 1) fires only when the **latest** point is in a
crossed state — a metric that dipped and recovered is history, not a
regression.  A zero reference value cannot anchor a relative threshold:
such metrics flag (lower-better) only when they become nonzero, and
never flag when higher-better (nothing below zero to drop to).

Points are classified by shape: a JSON object with ``experiments`` is a
BENCH baseline (labelled by its ``rev``, ordered by ``generated`` then
``rev``); one with ``points`` is a campaign summary (labelled by
experiment + fingerprint, kept in argument order after the baselines).
A directory argument expands to the sorted ``BENCH_*.json`` files in it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import names

__all__ = ["TrendPoint", "TrendReport", "load_trend_points", "trend_report"]

#: Metric-name suffixes whose *increase* is good; everything else is
#: lower-better (times, event counts, switches).
_HIGHER_BETTER = ("normalized", "events_per_s")


def _direction(metric: str) -> int:
    """+1 if higher is better, -1 if lower is better."""
    return +1 if metric.endswith(_HIGHER_BETTER) else -1


@dataclass
class TrendPoint:
    """One revision's worth of metric values."""

    label: str                     #: rev (baselines) or experiment@fp
    kind: str                      #: "baseline" | "summary"
    order: Tuple[str, str]         #: sort key within its kind
    metrics: Dict[str, float] = field(default_factory=dict)


def baseline_order(doc: Dict[str, Any], path: Path) -> Tuple[str, str]:
    """A BENCH baseline's age key: ``generated`` stamp, then rev.

    The one ordering of baselines; file mtimes are no substitute, since a
    git checkout gives every file the same one.
    """
    return (str(doc.get("generated", "")), str(doc.get("rev", path.stem)))


def _point_from_bench(doc: Dict[str, Any], path: Path) -> TrendPoint:
    order = baseline_order(doc, path)
    point = TrendPoint(label=order[1], kind="baseline", order=order)
    for exp, row in sorted(doc.get("experiments", {}).items()):
        for key in ("normalized", "wall_s", "events"):
            if key in row:
                point.metrics[f"{exp} {key}"] = float(row[key])
    return point


def _point_from_summary(doc: Dict[str, Any], path: Path) -> TrendPoint:
    head = doc.get("campaign", {})
    label = (f"{head.get('experiment', path.stem)}"
             f"@{str(head.get('fingerprint', ''))[:12]}")
    point = TrendPoint(label=label, kind="summary", order=("", label))
    elapsed = 0.0
    events = 0
    switches = 0
    for row in doc.get("points", []):
        elapsed += float(row.get("elapsed_s", 0.0))
        engine = row.get("engine", {})
        events += int(engine.get(names.ENGINE_EVENTS_POPPED, 0))
        switches += int(engine.get(names.ENGINE_CONTEXT_SWITCHES, 0))
    exp = head.get("experiment", path.stem)
    point.metrics[f"{exp} sim_s"] = elapsed
    point.metrics[f"{exp} engine_events"] = float(events)
    point.metrics[f"{exp} engine_switches"] = float(switches)
    return point


def load_trend_points(inputs: List[str]) -> List[TrendPoint]:
    """Classify and order the CLI's input paths into trend points.

    Baselines come first (ordered by generation time then rev, however
    they were passed); campaign summaries follow in argument order.
    """
    baselines: List[TrendPoint] = []
    summaries: List[TrendPoint] = []
    paths: List[Path] = []
    for name in inputs:
        path = Path(name)
        if path.is_dir():
            bench_files = sorted(path.glob("BENCH_*.json"))
            candidate = path / "campaign-summary.json"
            if bench_files:
                paths.extend(bench_files)
            elif candidate.is_file():
                paths.append(candidate)
            else:
                raise ValueError(
                    f"{path}: no BENCH_*.json or campaign-summary.json found")
        else:
            paths.append(path)
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: not a JSON object")
        if "experiments" in doc:
            baselines.append(_point_from_bench(doc, path))
        elif "points" in doc:
            summaries.append(_point_from_summary(doc, path))
        else:
            raise ValueError(
                f"{path}: neither a BENCH baseline (no 'experiments' key) "
                "nor a campaign summary (no 'points' key)")
    baselines.sort(key=lambda p: p.order)
    return baselines + summaries


@dataclass
class Crossing:
    """One metric's threshold crossing along the trend."""

    metric: str
    first_bad: str                 #: label of the first crossed revision
    reference: float               #: the metric at the first point
    latest: float                  #: the metric at the last point
    latest_crossed: bool           #: still beyond threshold at the end?


class TrendReport:
    """Trajectories plus crossings over an ordered revision sequence."""

    def __init__(self, points: List[TrendPoint], rel: float):
        self.points = points
        self.rel = rel
        self.crossings: List[Crossing] = []
        self._analyse()

    # -- analysis ----------------------------------------------------------

    def _series(self) -> Dict[str, List[Optional[float]]]:
        metrics = sorted({m for p in self.points for m in p.metrics})
        return {m: [p.metrics.get(m) for p in self.points] for m in metrics}

    def _crossed(self, metric: str, ref: float, value: float) -> bool:
        direction = _direction(metric)
        if ref == 0.0:
            # No relative anchor: lower-better metrics flag on becoming
            # nonzero; higher-better ones have nothing to drop from.
            return direction < 0 and value > 0.0
        if direction > 0:
            return value < (1.0 - self.rel) * ref
        return value > (1.0 + self.rel) * ref

    def _analyse(self) -> None:
        if len(self.points) < 2:
            return
        for metric, values in self._series().items():
            anchored = [(i, v) for i, v in enumerate(values) if v is not None]
            if len(anchored) < 2:
                continue
            ref = anchored[0][1]
            first_bad = None
            for i, value in anchored[1:]:
                if first_bad is None and self._crossed(metric, ref, value):
                    first_bad = self.points[i].label
            if first_bad is not None:
                latest = anchored[-1][1]
                self.crossings.append(Crossing(
                    metric=metric, first_bad=first_bad, reference=ref,
                    latest=latest,
                    latest_crossed=self._crossed(metric, ref, latest)))

    # -- verdicts ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True unless the *latest* revision is in a crossed state."""
        return not any(c.latest_crossed for c in self.crossings)

    def to_json(self) -> Dict[str, Any]:
        return {
            "rel": self.rel,
            "points": [{"label": p.label, "kind": p.kind,
                        "metrics": dict(sorted(p.metrics.items()))}
                       for p in self.points],
            "crossings": [{
                "metric": c.metric, "first_bad": c.first_bad,
                "reference": c.reference, "latest": c.latest,
                "latest_crossed": c.latest_crossed,
            } for c in self.crossings],
            "ok": self.ok,
        }

    def render(self) -> str:
        labels = [p.label for p in self.points]
        series = self._series()
        lines = [f"perf trend across {len(self.points)} point(s): "
                 + " -> ".join(labels)]
        if not series:
            lines.append("(no comparable metrics)")
            return "\n".join(lines)
        name_w = max(len(m) for m in series)
        widths = [max(len(label), 10) for label in labels]
        header = "  " + " ".join(
            f"{label:>{w}}" for label, w in zip(labels, widths))
        lines.append(f"{'metric':<{name_w}}{header}")
        for metric, values in series.items():
            arrow = "^" if _direction(metric) > 0 else "v"
            cells = " ".join(
                f"{'-' if v is None else format(v, '.6g'):>{w}}"
                for v, w in zip(values, widths))
            lines.append(f"{metric:<{name_w}}  {cells}  [{arrow}]")
        for crossing in self.crossings:
            state = ("STILL REGRESSED" if crossing.latest_crossed
                     else "recovered")
            lines.append(
                f"crossing: {crossing.metric} first crossed at "
                f"{crossing.first_bad} (ref {crossing.reference:.6g} -> "
                f"latest {crossing.latest:.6g}, {state})")
        if self.ok:
            lines.append(
                f"verdict: CLEAN — latest point within ±{self.rel:.0%} of "
                "reference on every metric")
        else:
            worst = [c for c in self.crossings if c.latest_crossed]
            lines.append(
                f"verdict: REGRESSED — {len(worst)} metric(s) beyond "
                f"±{self.rel:.0%}; first bad revision(s): "
                + ", ".join(sorted({c.first_bad for c in worst})))
        return "\n".join(lines)


def trend_report(inputs: List[str], *, rel: float = 0.2) -> TrendReport:
    """Load every input point and analyse the sequence; see module doc."""
    points = load_trend_points(inputs)
    if len(points) < 2:
        raise ValueError(
            f"trend needs at least 2 points, got {len(points)} — pass more "
            "BENCH_*.json baselines and/or campaign summaries")
    return TrendReport(points, rel)
