"""Harness → analytics bridge: write campaign summaries on completion.

When a campaign runs with ``--summary-dir``, the harness traces every
point and, as a completion hook, folds each point's tracers into the
content-addressed summary artifacts of :mod:`repro.obs.analytics`::

    <summary-dir>/<campaign-fp16>/
        campaign.json
        points/NNNN-<point-fp12>.json
        campaign-summary.json

The campaign fingerprint is the same one the durable journal uses
(:func:`repro.harness.journal.campaign_fingerprint`), so a campaign's
journal and its summary are keyed identically and can be correlated
across the cache directory and the summary root.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

from repro.harness.journal import campaign_fingerprint
from repro.obs.analytics.summary import point_summary, write_campaign

__all__ = ["summarize_outcome"]


def campaign_header(specs, experiment_id: str, scale: str) -> Dict[str, Any]:
    """The summary header shared with ``campaign.json``."""
    from repro._version import __version__

    return {
        "fingerprint": campaign_fingerprint(specs),
        "experiment": experiment_id,
        "scale": scale,
        "points": len(specs),
        "version": __version__,
    }


def summarize_outcome(outcome, experiment_id: str, scale: str,
                      summary_root) -> Path:
    """Write one finished campaign's summary artifacts; returns the dir.

    Requires the campaign to have run traced: the per-point tracer
    groups on the batch are the raw material.  Quarantined points are
    **excluded** — an empty group would summarize to zeros, and a zero
    row is indistinguishable from a genuinely idle point, which poisons
    ``diff`` baselines.  Their indices are recorded in the
    header's ``quarantined`` list instead, and the healthy points keep
    their campaign-global indices (hence byte-identical artifacts to the
    same points summarized from a fully healthy run).
    """
    specs = outcome.specs
    groups = outcome.batch.tracer_groups
    if len(groups) != len(specs):
        raise ValueError(
            f"campaign has {len(specs)} point(s) but {len(groups)} tracer "
            "group(s) — summaries need a traced run (--summary-dir forces "
            "tracing; was the batch executed untraced?)"
        )
    quarantined = sorted(f["point"] for f in outcome.failures)
    skip = set(quarantined)
    points = []
    for index, (spec, tracers) in enumerate(zip(specs, groups)):
        if index in skip:
            continue
        meta = {
            "app": spec.app,
            "fingerprint": spec.fingerprint(),
            "spec": spec.as_dict(),
        }
        points.append(point_summary(index, meta, tracers))
    header = campaign_header(specs, experiment_id, scale)
    if quarantined:
        header["quarantined"] = quarantined
    return write_campaign(summary_root, header, points)
