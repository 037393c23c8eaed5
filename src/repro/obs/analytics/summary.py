"""Per-point trace summaries and the merged campaign summary artifact.

A campaign directory (written by the harness under ``--summary-dir``, or
assembled by hand) is laid out content-addressed by the campaign
fingerprint::

    <summary-root>/<campaign-fp[:16]>/
        campaign.json              # header: fingerprint, experiment, ...
        points/0000-<point-fp12>.json
        points/0001-<point-fp12>.json
        campaign-summary.json      # the merge of the above

Every artifact is canonical JSON (sorted keys, compact separators, one
trailing newline), and every number in it is a pure function of the
simulation — simulated seconds, event counts, matrix cells — never wall
clocks.  That is what makes ``campaign-summary.json`` byte-identical
across re-runs, executors and job counts, and therefore diffable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.obs import names
from repro.obs.critical_path import (
    AttributionReport,
    comm_matrix_rows,
    link_utilization_rows,
)

__all__ = [
    "SCHEMA_VERSION",
    "canonical_dumps",
    "campaign_dir",
    "find_campaign_dirs",
    "load_summary",
    "merge_campaign",
    "point_summary",
    "summarize_campaign_dir",
    "summarize_tracers",
    "write_campaign",
]

#: Bump when the summary JSON shape changes; diff/check refuse to compare
#: artifacts across schema versions rather than misread them.
SCHEMA_VERSION = 1

_CAMPAIGN_FILE = "campaign.json"
_SUMMARY_FILE = "campaign-summary.json"
_POINTS_DIR = "points"


def canonical_dumps(obj: Any) -> str:
    """The one serialization every artifact uses: byte-stable JSON."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_canonical(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_dumps(obj))


# -- ingest: tracers -> one point summary ---------------------------------

def _span_stats(tracers, category: str) -> Tuple[int, float, float,
                                                 Dict[str, List[float]]]:
    """(count, total seconds, max seconds, by-name {count, seconds})."""
    count = 0
    total = 0.0
    longest = 0.0
    by_name: Dict[str, List[float]] = {}
    for tracer in tracers:
        for span in tracer.spans:
            if span.category != category:
                continue
            dur = span.duration
            count += 1
            total += dur
            if dur > longest:
                longest = dur
            cell = by_name.setdefault(span.name, [0, 0.0])
            cell[0] += 1
            cell[1] += dur
    return count, total, longest, by_name


def summarize_tracers(tracers) -> Dict[str, Any]:
    """Fold one campaign point's tracers into its summary content.

    A point may run several simulated programs (warmups, reference runs);
    all of its tracers are merged here, mirroring how the breakdown
    report aggregates them.
    """
    tracers = list(tracers)
    attribution = AttributionReport.from_tracers(tracers)
    _, _, _, phases = _span_stats(tracers, names.CAT_PHASE)
    bar_count, bar_total, bar_max, bar_names = _span_stats(
        tracers, names.CAT_BARRIER)
    steal_count, steal_total, _, _ = _span_stats(tracers, names.CAT_STEAL)

    engine: Dict[str, int] = {n: 0 for n in names.ENGINE_METRICS}
    spans = instants = samples = 0
    for tracer in tracers:
        spans += len(tracer.spans)
        instants += len(tracer.instants)
        samples += len(tracer.samples)
        for metric, value in getattr(tracer, "engine_metrics", {}).items():
            if metric == names.ENGINE_HEAP_PEAK:
                engine[metric] = max(engine[metric], value)
            else:
                engine[metric] = engine.get(metric, 0) + value
    engine["spans"] = spans
    engine["instants"] = instants
    engine["samples"] = samples

    return {
        "runs": len(tracers),
        "elapsed_s": sum(t.end_time for t in tracers),
        "breakdown": attribution.to_json(),
        "phases": {name: {"count": cell[0], "seconds": cell[1]}
                   for name, cell in sorted(phases.items())},
        "comm": comm_matrix_rows(tracers),
        "links": link_utilization_rows(tracers),
        "barriers": {
            "waits": bar_count,
            "wait_seconds": bar_total,
            "max_wait_seconds": bar_max,
            "by_name": {name: {"count": cell[0], "seconds": cell[1]}
                        for name, cell in sorted(bar_names.items())},
        },
        "steals": {"count": steal_count, "seconds": steal_total},
        "engine": engine,
    }


def point_summary(index: int, meta: Dict[str, Any],
                  tracers) -> Dict[str, Any]:
    """One point's artifact: identity (``meta``) plus summarized content.

    ``meta`` carries at least ``app``, ``fingerprint`` and the canonical
    ``spec`` dict; the harness builds it from the point's RunSpec.
    """
    out = {"schema": SCHEMA_VERSION, "index": index}
    out.update(meta)
    out.update(summarize_tracers(tracers))
    return out


# -- merge: point summaries -> campaign summary ---------------------------

def merge_campaign(header: Dict[str, Any],
                   points: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-point summaries into the campaign summary document."""
    totals: Dict[str, Any] = {
        "elapsed_s": 0.0,
        "breakdown": {c: 0.0 for c in names.BREAKDOWN_CATEGORIES},
        "messages": 0,
        "bytes": 0.0,
        "barrier_waits": 0,
        "barrier_wait_seconds": 0.0,
        "steals": 0,
        "steal_seconds": 0.0,
        "engine": {n: 0 for n in names.ENGINE_METRICS},
        "runs": 0,
    }
    for p in points:
        totals["elapsed_s"] += p["elapsed_s"]
        totals["runs"] += p["runs"]
        for cat, sec in p["breakdown"]["categories"].items():
            totals["breakdown"][cat] = totals["breakdown"].get(cat, 0.0) + sec
        for row in p["comm"]:
            totals["messages"] += row["messages"]
            totals["bytes"] += row["bytes"]
        totals["barrier_waits"] += p["barriers"]["waits"]
        totals["barrier_wait_seconds"] += p["barriers"]["wait_seconds"]
        totals["steals"] += p["steals"]["count"]
        totals["steal_seconds"] += p["steals"]["seconds"]
        for metric in names.ENGINE_METRICS:
            value = p["engine"].get(metric, 0)
            if metric == names.ENGINE_HEAP_PEAK:
                totals["engine"][metric] = max(totals["engine"][metric], value)
            else:
                totals["engine"][metric] += value
    return {
        "schema": SCHEMA_VERSION,
        "campaign": dict(header),
        "totals": totals,
        "points": points,
    }


# -- filesystem layout ----------------------------------------------------

def campaign_dir(root, fingerprint: str) -> Path:
    """The content-addressed directory for one campaign fingerprint."""
    return Path(root) / fingerprint[:16]


def _point_path(directory: Path, index: int, fingerprint: str) -> Path:
    return directory / _POINTS_DIR / f"{index:04d}-{fingerprint[:12]}.json"


def write_campaign(root, header: Dict[str, Any],
                   point_summaries: List[Dict[str, Any]]) -> Path:
    """Write a campaign's artifacts; returns the campaign directory.

    Writes ``campaign.json``, every ``points/NNNN-<fp>.json``, then
    derives ``campaign-summary.json`` through the same
    :func:`summarize_campaign_dir` path the offline CLI uses — one code
    path, so the harness hook and a later re-summarize cannot diverge.
    """
    directory = campaign_dir(root, header["fingerprint"])
    _write_canonical(directory / _CAMPAIGN_FILE, dict(header))
    for point in point_summaries:
        _write_canonical(
            _point_path(directory, point["index"], point["fingerprint"]),
            point,
        )
    summarize_campaign_dir(directory)
    return directory


def summarize_campaign_dir(directory) -> Tuple[Dict[str, Any], Path]:
    """(Re)build ``campaign-summary.json`` from a campaign directory."""
    directory = Path(directory)
    header_path = directory / _CAMPAIGN_FILE
    if not header_path.exists():
        raise FileNotFoundError(
            f"{directory} is not a campaign directory (no {_CAMPAIGN_FILE})"
        )
    header = json.loads(header_path.read_text())
    points_dir = directory / _POINTS_DIR
    points: List[Dict[str, Any]] = []
    if points_dir.is_dir():
        for path in sorted(points_dir.glob("*.json")):
            points.append(json.loads(path.read_text()))
    points.sort(key=lambda p: p.get("index", 0))
    for point in points:
        schema = point.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"{directory}: point {point.get('index')} has schema "
                f"{schema!r}, this build reads {SCHEMA_VERSION}"
            )
    summary = merge_campaign(header, points)
    out = directory / _SUMMARY_FILE
    _write_canonical(out, summary)
    return summary, out


def find_campaign_dirs(root) -> List[Path]:
    """Campaign directories under ``root`` (or ``root`` itself), sorted."""
    root = Path(root)
    if (root / _CAMPAIGN_FILE).exists():
        return [root]
    return sorted(
        child for child in root.iterdir()
        if child.is_dir() and (child / _CAMPAIGN_FILE).exists()
    ) if root.is_dir() else []


def load_summary(path) -> Dict[str, Any]:
    """Load a campaign summary from its file or its campaign directory."""
    path = Path(path)
    if path.is_dir():
        path = path / _SUMMARY_FILE
    try:
        summary = json.loads(path.read_text())
    except OSError as exc:
        raise FileNotFoundError(
            f"no campaign summary at {path} (run `python -m "
            "repro.obs.analytics summarize` first?)"
        ) from exc
    if not isinstance(summary, dict) or "points" not in summary:
        raise ValueError(f"{path}: not a campaign summary (no 'points' key)")
    schema = summary.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: summary schema {schema!r} does not match this "
            f"build's {SCHEMA_VERSION}"
        )
    return summary
