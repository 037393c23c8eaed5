"""Campaign-summary diff: localize *what* regressed between two runs.

:func:`diff_summaries` compares two campaign summaries point by point
(points match by campaign index — the spec order is deterministic, so
index ``i`` names the same experiment cell on both sides even when the
specs themselves differ, e.g. a FaultPlan was added) and emits a
:class:`Delta` per metric whose change clears the thresholds:

* **seconds metrics** (simulated time, breakdown categories, per-phase
  times, per-link busy time, barrier waits, steal time) regress when the
  increase is both *relatively* large (``rel``, default +5%) and *large
  enough to matter* — at least ``share_floor`` (default 1%) of the
  point's total simulated time, so microscopic phases cannot page anyone.
* **count metrics** (engine events, messages, bytes) regress when the
  relative change clears ``rel`` and the absolute change clears
  ``count_floor`` — cheap guards against off-by-a-few noise.

Decreases beyond the same thresholds are reported as improvements;
structural mismatches (different experiments, point counts, apps or
schema) are *errors*, not silently skipped cells.  The rendered report
and JSON form are deterministic: rows sort by point index then metric.

:func:`diff_sequence` folds an ordered run of summaries (oldest first)
into one report: every candidate is compared with the first summary
under the same rules, the last candidate sets the verdict, and each
flagged cell carries its value at every input plus the first input that
flagged it (where to start a bisect).  A regression seen only at an
intermediate input is listed as ``recovered`` and does not fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.obs import names
from repro.obs.analytics.summary import SCHEMA_VERSION

__all__ = ["Delta", "DiffReport", "diff_sequence", "diff_summaries"]

_REGRESSION = "regression"
_IMPROVEMENT = "improvement"
_RECOVERED = "recovered"


@dataclass(frozen=True)
class Delta:
    """One flagged metric change at one campaign point."""

    point: int            #: campaign point index (-1 for campaign-level)
    label: str            #: point label, e.g. "uts" (the spec's app)
    metric: str           #: what moved, e.g. "phase 'search'"
    before: float
    after: float
    kind: str             #: "regression" | "improvement" | "recovered"
    #: N-way only: the value at every input, and the first input to flag it
    trail: Tuple[float, ...] = ()
    first: str = ""

    @property
    def rel_change(self) -> float:
        if self.before == 0:
            return float("inf") if self.after > 0 else 0.0
        return (self.after - self.before) / self.before

    def row(self) -> Dict[str, Any]:
        row = {
            "point": self.point, "label": self.label, "metric": self.metric,
            "before": self.before, "after": self.after, "kind": self.kind,
        }
        if self.trail:
            row.update(trail=list(self.trail), first=self.first)
        return row

    def render(self) -> str:
        rel = self.rel_change
        pct = "new" if rel == float("inf") else f"{100.0 * rel:+.1f}%"
        values = " -> ".join(
            f"{v:.6g}" for v in self.trail or (self.before, self.after))
        tag = f"{self.kind}, first at {self.first}" if self.trail else self.kind
        return (f"point {self.point} ({self.label}): {self.metric} {pct} "
                f"({values}) [{tag}]")


class DiffReport:
    """The verdicts of one campaign-summary comparison."""

    def __init__(self, title: str):
        self.title = title
        self.deltas: List[Delta] = []
        self.errors: List[str] = []
        self.compared = 0      #: metric cells examined

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.kind == _REGRESSION]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas if d.kind == _IMPROVEMENT]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.errors

    def to_json(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "compared": self.compared,
            "errors": list(self.errors),
            "deltas": [d.row() for d in self.deltas],
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [f"campaign diff: {self.title}"]
        for err in self.errors:
            lines.append(f"  ! {err}")
        for delta in self.deltas:
            lines.append(f"  {delta.render()}")
        n_reg = len(self.regressions)
        n_imp = len(self.improvements)
        if self.ok and not self.deltas:
            lines.append(
                f"verdict: CLEAN — no regressions across {self.compared} "
                "compared metric(s)"
            )
        elif self.ok:
            lines.append(
                f"verdict: CLEAN — 0 regression(s), {n_imp} improvement(s) "
                f"across {self.compared} compared metric(s)"
            )
        else:
            what = f"{n_reg} regression(s), {n_imp} improvement(s)"
            if self.errors:
                what += f", {len(self.errors)} error(s)"
            lines.append(
                f"verdict: REGRESSED — {what} across {self.compared} "
                "compared metric(s)"
            )
        return "\n".join(lines)


def _point_metrics(point: Dict[str, Any],
                   where: str) -> Dict[str, Tuple[float, str]]:
    """Map every comparable cell's metric name to ``(value, basis)``.

    ``basis`` is ``"seconds"`` (thresholded against the point's total
    simulated time) or ``"count"`` (thresholded absolutely).  A point
    missing a summary field is a :class:`ValueError` naming ``where``.
    """
    try:
        return {m: (v, basis) for m, v, basis in _cells(point)}
    except KeyError as exc:
        raise ValueError(
            f"{where} is malformed: no {exc.args[0]!r} field") from None


def _cells(point: Dict[str, Any]) -> Iterator[Tuple[str, float, str]]:
    yield "time", point["elapsed_s"], "seconds"
    for cat in sorted(point["breakdown"]["categories"]):
        yield (f"breakdown {cat}", point["breakdown"]["categories"][cat],
               "seconds")
    for name in sorted(point["phases"]):
        yield f"phase {name!r}", point["phases"][name]["seconds"], "seconds"
    for row in point["links"]:
        yield f"link {row['link']}", row["busy_seconds"], "seconds"
    yield "barrier wait", point["barriers"]["wait_seconds"], "seconds"
    for name in sorted(point["barriers"]["by_name"]):
        yield (f"barrier {name!r}",
               point["barriers"]["by_name"][name]["seconds"], "seconds")
    yield "steal time", point["steals"]["seconds"], "seconds"
    engine = point.get("engine", {})
    yield "engine events", float(engine.get(names.ENGINE_EVENTS_POPPED, 0)), "count"
    yield ("engine context switches",
           float(engine.get(names.ENGINE_CONTEXT_SWITCHES, 0)), "count")
    messages = sum(row["messages"] for row in point["comm"])
    nbytes = sum(row["bytes"] for row in point["comm"])
    yield "comm messages", float(messages), "count"
    yield "comm bytes", float(nbytes), "count"


def _head(summary: Dict[str, Any]) -> str:
    head = summary.get("campaign", {})
    return (f"{head.get('experiment', '?')}/{head.get('scale', '?')} "
            f"{head.get('fingerprint', '?')[:12]}")


def diff_summaries(before: Dict[str, Any], after: Dict[str, Any], *,
                   rel: float = 0.05, share_floor: float = 0.01,
                   count_floor: float = 16.0) -> DiffReport:
    """Compare two campaign summaries; see the module docstring for rules."""
    head_a = before.get("campaign", {})
    head_b = after.get("campaign", {})
    report = DiffReport(f"{_head(before)} -> {_head(after)}")
    for side, summary in (("before", before), ("after", after)):
        if summary.get("schema") != SCHEMA_VERSION:
            report.errors.append(
                f"{side} summary has schema {summary.get('schema')!r}, "
                f"this build compares {SCHEMA_VERSION}"
            )
    if report.errors:
        return report
    if head_a.get("experiment") != head_b.get("experiment"):
        report.errors.append(
            f"experiments differ: {head_a.get('experiment')!r} vs "
            f"{head_b.get('experiment')!r}"
        )
    if head_a.get("scale") != head_b.get("scale"):
        report.errors.append(
            f"scales differ: {head_a.get('scale')!r} vs "
            f"{head_b.get('scale')!r}"
        )
    points_a = before.get("points", [])
    points_b = after.get("points", [])
    if len(points_a) != len(points_b):
        report.errors.append(
            f"point counts differ: {len(points_a)} vs {len(points_b)}; "
            "comparing the common prefix"
        )
    for index, (pa, pb) in enumerate(zip(points_a, points_b)):
        if pa.get("app") != pb.get("app"):
            report.errors.append(
                f"point {index}: apps differ ({pa.get('app')!r} vs "
                f"{pb.get('app')!r}); skipped"
            )
            continue
        label = str(pa.get("app", "?"))
        metrics_a = _point_metrics(pa, f"before point {index}")
        metrics_b = _point_metrics(pb, f"after point {index}")
        time_scale = max(metrics_a["time"][0], metrics_b["time"][0], 0.0)
        for metric in sorted(set(metrics_a) | set(metrics_b)):
            value_a, basis = metrics_a.get(
                metric, (0.0, metrics_b.get(metric, (0.0, "count"))[1]))
            value_b, _ = metrics_b.get(metric, (0.0, basis))
            report.compared += 1
            delta = value_b - value_a
            floor = (share_floor * time_scale if basis == "seconds"
                     else count_floor)
            if floor <= 0.0:
                # Degenerate time scale (both sides idle, or a summary
                # with elapsed_s 0): fall back to an absolute floor so a
                # zero-baseline metric cannot auto-flag on noise.
                floor = share_floor
            if abs(delta) <= floor:
                continue
            # Relative guard with a positive denominator: an absent or
            # zero baseline compares against the floor instead, so the
            # 0 -> X direction still flags once X clears the floor and
            # the division can never blow up.
            if abs(delta) / max(value_a, floor) <= rel:
                continue
            kind = _REGRESSION if delta > 0 else _IMPROVEMENT
            report.deltas.append(
                Delta(index, label, metric, value_a, value_b, kind)
            )
    return report


def diff_sequence(inputs: Sequence[Tuple[str, Dict[str, Any]]],
                  **thresholds: float) -> DiffReport:
    """Compare every named summary after the first with the first.

    ``inputs`` are ``(name, summary)`` pairs, oldest first; ``thresholds``
    are :func:`diff_summaries`'s.  Two inputs give exactly its report.
    With more, the last candidate's regressions set the verdict, every
    comparison's errors count, and each flagged cell shows its value at
    every input and the name of the first input that flagged it.
    """
    if len(inputs) < 2:
        raise ValueError(
            "diff needs a reference and at least one candidate summary, "
            f"got {len(inputs)} input(s)")
    (_, reference), *candidates = inputs
    reports = [diff_summaries(reference, doc, **thresholds)
               for _, doc in candidates]
    if len(reports) == 1:
        return reports[0]
    fold = DiffReport(" -> ".join(_head(doc) for _, doc in inputs))
    fold.compared = reports[-1].compared
    first: Dict[Tuple[int, str, str], str] = {}
    for (name, _), report in zip(candidates, reports):
        fold.errors += [f"{name}: {err}" for err in report.errors]
        for d in report.deltas:
            first.setdefault((d.point, d.metric, d.kind), name)
    rows = {(d.point, d.metric): (d, d.kind) for d in reports[-1].deltas}
    for report in reports[:-1]:
        for d in report.regressions:
            rows.setdefault((d.point, d.metric), (d, _RECOVERED))
    for (point, metric), (d, kind) in sorted(rows.items()):
        trail = tuple(_value(name, doc, point, metric) for name, doc in inputs)
        fold.deltas.append(Delta(point, d.label, metric, trail[0], trail[-1],
                                 kind, trail, first[point, metric, d.kind]))
    return fold


def _value(name: str, summary: Dict[str, Any], point: int,
           metric: str) -> float:
    """One cell of one summary; NaN when the summary lacks the point."""
    points = summary["points"]
    if point >= len(points):
        return float("nan")
    cells = _point_metrics(points[point], f"{name} point {point}")
    return cells.get(metric, (0.0,))[0]
