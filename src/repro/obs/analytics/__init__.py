"""Campaign-scale trace analytics: ingest, merge, diff, check.

One Perfetto trace is inspectable by hand; a campaign emits hundreds.
This package turns them into a dataset, following the simulate →
merge-summary → cross-run-analysis shape of etanalyzer:

* :mod:`repro.obs.analytics.summary` — batch-ingests the tracers a
  campaign point produced into a compact per-point summary (critical-path
  breakdown, per-phase times, comm matrix, link utilization, barrier-wait
  and steal statistics, engine self-measurement) and merges all points
  into one content-addressed ``campaign-summary.json`` keyed by the
  campaign fingerprint.
* :mod:`repro.obs.analytics.diff` — compares two campaign summaries and
  localizes *which point/phase/link/barrier* regressed, with thresholded
  verdicts (the regression-detection engine the perf roadmap needs).
* :mod:`repro.obs.analytics.check` — flags scaling-curve anomalies
  (non-monotone speedup, efficiency cliffs) in a single summary.
* :mod:`repro.obs.analytics.trend` — N-way trajectories across campaign
  summaries, with first-bad bisect hints when a metric crosses its
  threshold.

Everything here is a pure function of the summary artifacts: summarizing
the same campaign twice — or the same campaign executed at ``--jobs 2``
— produces byte-identical JSON, so summaries can be diffed, cached and
committed like any other content-addressed artifact.  Wall-clock numbers
deliberately live *outside* this schema (see ``benchmarks/e2e/``): they
are host-dependent and would break the determinism contract.

Run as a CLI::

    python -m repro.obs.analytics summarize .summaries
    python -m repro.obs.analytics diff old/ new/
    python -m repro.obs.analytics check new/campaign-summary.json
    python -m repro.obs.analytics trend old/ new/ --check
"""

from repro.obs.analytics.check import CheckReport, check_summary
from repro.obs.analytics.diff import DiffReport, diff_summaries
from repro.obs.analytics.summary import (
    SCHEMA_VERSION,
    canonical_dumps,
    find_campaign_dirs,
    load_summary,
    merge_campaign,
    point_summary,
    summarize_campaign_dir,
    summarize_tracers,
    write_campaign,
)
from repro.obs.analytics.trend import TrendReport, trend_report

__all__ = [
    "SCHEMA_VERSION",
    "CheckReport",
    "DiffReport",
    "TrendReport",
    "canonical_dumps",
    "check_summary",
    "diff_summaries",
    "find_campaign_dirs",
    "load_summary",
    "merge_campaign",
    "point_summary",
    "summarize_campaign_dir",
    "summarize_tracers",
    "trend_report",
    "write_campaign",
]
