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
* :mod:`repro.obs.analytics.diff` — compares campaign summaries and
  localizes *which point/phase/link/barrier* regressed, with thresholded
  verdicts: two summaries, or an ordered run of them where each flagged
  cell shows its trajectory and the first input that flagged it.
* :mod:`repro.obs.analytics.check` — flags scaling-curve anomalies
  (non-monotone speedup, efficiency cliffs) in a single summary.

Everything here is a pure function of the summary artifacts: summarizing
the same campaign twice — or the same campaign executed at ``--jobs 2``
— produces byte-identical JSON, so summaries can be diffed, cached and
committed like any other content-addressed artifact.  Wall-clock numbers
deliberately live *outside* this schema (see ``benchmarks/e2e/``): they
are host-dependent and would break the determinism contract.

Run as a CLI::

    python -m repro.obs.analytics summarize .summaries
    python -m repro.obs.analytics diff old/ new/
    python -m repro.obs.analytics diff old/ mid/ new/
    python -m repro.obs.analytics check new/campaign-summary.json
"""

from repro.obs.analytics.check import CheckReport, check_summary
from repro.obs.analytics.diff import DiffReport, diff_sequence, diff_summaries
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

__all__ = [
    "SCHEMA_VERSION",
    "CheckReport",
    "DiffReport",
    "canonical_dumps",
    "check_summary",
    "diff_sequence",
    "diff_summaries",
    "find_campaign_dirs",
    "load_summary",
    "merge_campaign",
    "point_summary",
    "summarize_campaign_dir",
    "summarize_tracers",
    "write_campaign",
]
