"""Profile documents: canonical JSON and folded-stack (flamegraph) export.

One profiled run yields per-point **snapshots** (plain JSON-able lists,
picklable across executor workers); this module merges them and renders
the two artifact pairs the subsystem promises:

* ``<label>-host.json`` / ``<label>-host.folded`` — sampled host CPU per
  layer.  Rows carry the sample count and the self seconds derived from
  it; folded lines are one-frame ``layer samples`` stacks.  Statistical:
  the big layers rank alike across runs, the counts differ.
* ``<label>-cost.json`` / ``<label>-cost.folded`` — simulated-cost
  profile.  Entirely a function of the simulation: byte-identical
  across runs, executors and job counts.  Folded lines carry three
  synthetic roots (``events``, ``cycles``, ``switches``) over
  ``<phase>;<layer>`` stacks.

JSON documents are canonical (:func:`canonical_dumps`: sorted keys,
compact separators, trailing newline) and self-describing::

    {"schema": 2, "mode": "host"|"cost", "label": ..., "runs": N,
     "layers"|"phases": [...], "top": [[layer, weight], ...]}

Row metric keys are the registered :mod:`repro.obs.names` ``PROF_*``
names, and every layer must appear in ``LAYERS`` —
:func:`validate_profile` enforces both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import names
from repro.obs.analytics.summary import canonical_dumps
from repro.obs.profile.layers import LAYERS

__all__ = [
    "PROFILE_SCHEMA",
    "host_document",
    "cost_document",
    "merge_snapshots",
    "folded_lines",
    "validate_profile",
    "write_profiles",
]

PROFILE_SCHEMA = 2


def merge_snapshots(
    snapshots: Iterable[Optional[Dict[str, Any]]],
) -> Tuple[Dict[str, List[Any]], Dict[Tuple[str, str], List[int]], int]:
    """Sum per-point snapshots; returns (host layers, cost tallies, runs).

    ``None`` entries (quarantined/failed points) are skipped so a
    degraded campaign's profile covers exactly the healthy remainder.
    """
    host: Dict[str, List[Any]] = {}
    cost: Dict[Tuple[str, str], List[int]] = {}
    runs = 0
    for snap in snapshots:
        if snap is None:
            continue
        runs += 1
        for layer, samples, self_s in snap.get("host", ()):
            cell = host.setdefault(layer, [0, 0.0])
            cell[0] += samples
            cell[1] += self_s
        for row in snap.get("cost", ()):
            phase, layer = row[0], row[1]
            cell = cost.setdefault((phase, layer), [0, 0, 0])
            cell[0] += row[2]
            cell[1] += row[3]
            cell[2] += row[4]
    return host, cost, runs


def _top(weights: Dict[str, int]) -> List[List[Any]]:
    ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return [[layer, weight] for layer, weight in ranked]


def host_document(label: str,
                  stats: Dict[str, List[Any]],
                  runs: int = 1) -> Dict[str, Any]:
    """Canonical host-profile document from layer -> [samples, self_s]."""
    rows = [{
        "layer": layer,
        names.PROF_HOST_SAMPLES: samples,
        names.PROF_HOST_SELF_S: round(self_s, 6),
    } for layer, (samples, self_s) in sorted(stats.items())]
    return {
        "schema": PROFILE_SCHEMA,
        "mode": "host",
        "label": label,
        "runs": runs,
        "layers": rows,
        "top": _top({layer: samples
                     for layer, (samples, _) in stats.items()}),
    }


def cost_document(label: str,
                  tallies: Dict[Tuple[str, str], List[int]],
                  runs: int = 1) -> Dict[str, Any]:
    """Canonical cost-profile document from CostProfiler tallies."""
    rows = []
    by_layer: Dict[str, int] = {}
    for (phase, layer), (events, cycles, switches) in sorted(tallies.items()):
        rows.append({
            "phase": phase,
            "layer": layer,
            names.PROF_COST_EVENTS: events,
            names.PROF_COST_CYCLES: cycles,
            names.PROF_COST_SWITCHES: switches,
        })
        by_layer[layer] = by_layer.get(layer, 0) + cycles
    return {
        "schema": PROFILE_SCHEMA,
        "mode": "cost",
        "label": label,
        "runs": runs,
        "phases": rows,
        "top": _top(by_layer),
    }


def folded_lines(doc: Dict[str, Any]) -> List[str]:
    """Flamegraph-ready ``stack;frames weight`` lines, sorted."""
    lines: List[str] = []
    if doc["mode"] == "host":
        for row in doc["layers"]:
            samples = row[names.PROF_HOST_SAMPLES]
            if samples:
                lines.append(f"{row['layer']} {samples}")
    else:
        for row in doc["phases"]:
            base = f"{row['phase']};{row['layer']}"
            for root, key in (("events", names.PROF_COST_EVENTS),
                              ("cycles", names.PROF_COST_CYCLES),
                              ("switches", names.PROF_COST_SWITCHES)):
                weight = row[key]
                if weight:
                    lines.append(f"{root};{base} {weight}")
    return sorted(lines)


def _check_rows(rows_key: str, rows: List[Any], metrics: Sequence[str],
                errors: List[str]) -> None:
    for i, row in enumerate(rows):
        where = f"{rows_key}[{i}]"
        if rows_key == "phases" and not isinstance(row.get("phase"), str):
            errors.append(f"{where}: missing phase")
        if row.get("layer") not in LAYERS:
            errors.append(f"{where}: unknown layer {row.get('layer')!r}")
        for key in metrics:
            value = row.get(key)
            kinds = (int, float) if key == names.PROF_HOST_SELF_S else int
            if not isinstance(value, kinds) or value < 0:
                errors.append(f"{where}: bad {key}: {value!r}")


def validate_profile(doc: Any) -> List[str]:
    """Schema-check one profile document; returns a list of problems."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        errors.append(f"schema: expected {PROFILE_SCHEMA}, got {doc.get('schema')!r}")
    mode = doc.get("mode")
    if mode not in ("host", "cost"):
        errors.append(f"mode: expected host|cost, got {mode!r}")
        return errors
    if not isinstance(doc.get("label"), str):
        errors.append("label: missing or not a string")
    runs = doc.get("runs")
    if not isinstance(runs, int) or runs < 0:
        errors.append(f"runs: bad value {runs!r}")
    rows_key, metrics = (("layers", names.PROF_HOST_METRICS) if mode == "host"
                         else ("phases", names.PROF_COST_METRICS))
    if not isinstance(doc.get(rows_key), list):
        errors.append(f"{rows_key}: missing or not a list")
        return errors
    _check_rows(rows_key, doc[rows_key], metrics, errors)
    top = doc.get("top")
    if not isinstance(top, list):
        errors.append("top: missing or not a list")
    else:
        for i, entry in enumerate(top):
            if (not isinstance(entry, list) or len(entry) != 2
                    or entry[0] not in LAYERS
                    or not isinstance(entry[1], int)):
                errors.append(f"top[{i}]: bad entry {entry!r}")
    return errors


def write_profiles(out_dir, label: str,
                   snapshots: Sequence[Optional[Dict[str, Any]]]) -> List[Path]:
    """Merge point snapshots and write both artifact pairs; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    host_stats, cost_tallies, runs = merge_snapshots(snapshots)
    written: List[Path] = []
    for doc in (host_document(label, host_stats, runs),
                cost_document(label, cost_tallies, runs)):
        problems = validate_profile(doc)
        if problems:  # a bug in this package, not in the run
            raise ValueError(f"invalid {doc['mode']} profile: {problems}")
        base = out / f"{label}-{doc['mode']}"
        json_path = base.with_suffix(".json")
        json_path.write_text(canonical_dumps(doc), encoding="utf-8")
        folded_path = base.with_suffix(".folded")
        folded_path.write_text(
            "".join(line + "\n" for line in folded_lines(doc)),
            encoding="utf-8")
        written.extend([json_path, folded_path])
    return written
