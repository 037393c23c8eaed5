"""Campaign perf trends: N-way trajectories with bisect hints.

``diff`` compares exactly two campaign summaries; :func:`trend_report`
ingests an ordered *sequence* of them and answers the longitudinal
questions:

* **trajectory** — every metric's value at every point, as one table;
* **crossing detection** — a metric *crosses* when it rises beyond
  ``rel`` above the **first** point (the reference).  Every metric —
  simulated seconds, engine events, context switches — is lower-better.
* **bisect hints** — for each crossed metric, the *first* point at which
  it crossed: the place to start a bisect, named explicitly.

``--check`` (exit 1) fires only when the **latest** point is in a
crossed state — a metric that rose and recovered is history, not a
regression.  A zero reference value cannot anchor a relative threshold:
such a metric flags only when it becomes nonzero.

Points stay in argument order, each labelled by experiment +
fingerprint; a directory argument means its ``campaign-summary.json``.
Host wall clocks are not trended here: they are host-dependent and live
in the cold-CLI benchmark under ``benchmarks/e2e/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import names
from repro.obs.analytics.summary import load_summary

__all__ = ["TrendPoint", "TrendReport", "load_trend_points", "trend_report"]


@dataclass
class TrendPoint:
    """One campaign summary's worth of metric values."""

    label: str                     #: experiment@fingerprint
    metrics: Dict[str, float] = field(default_factory=dict)


def _point_from_summary(doc: Dict[str, Any], name: str) -> TrendPoint:
    head = doc.get("campaign", {})
    exp = head.get("experiment", Path(name).stem)
    elapsed = 0.0
    events = 0
    switches = 0
    for row in doc["points"]:
        elapsed += float(row.get("elapsed_s", 0.0))
        engine = row.get("engine", {})
        events += int(engine.get(names.ENGINE_EVENTS_POPPED, 0))
        switches += int(engine.get(names.ENGINE_CONTEXT_SWITCHES, 0))
    return TrendPoint(
        label=f"{exp}@{str(head.get('fingerprint', ''))[:12]}",
        metrics={f"{exp} sim_s": elapsed,
                 f"{exp} engine_events": float(events),
                 f"{exp} engine_switches": float(switches)})


def load_trend_points(inputs: List[str]) -> List[TrendPoint]:
    """Load the CLI's input paths, in argument order, as trend points."""
    return [_point_from_summary(load_summary(name), name) for name in inputs]


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

    def _crossed(self, ref: float, value: float) -> bool:
        if ref == 0.0:
            # No relative anchor: flag on becoming nonzero.
            return value > 0.0
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
                if first_bad is None and self._crossed(ref, value):
                    first_bad = self.points[i].label
            if first_bad is not None:
                latest = anchored[-1][1]
                self.crossings.append(Crossing(
                    metric=metric, first_bad=first_bad, reference=ref,
                    latest=latest,
                    latest_crossed=self._crossed(ref, latest)))

    # -- verdicts ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True unless the *latest* revision is in a crossed state."""
        return not any(c.latest_crossed for c in self.crossings)

    def to_json(self) -> Dict[str, Any]:
        return {
            "rel": self.rel,
            "points": [{"label": p.label,
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
            cells = " ".join(
                f"{'-' if v is None else format(v, '.6g'):>{w}}"
                for v, w in zip(values, widths))
            lines.append(f"{metric:<{name_w}}  {cells}")
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
            "campaign summaries")
    return TrendReport(points, rel)
