"""CLI for campaign analytics: summarize / diff / check / trend.

Examples::

    # (re)build campaign-summary.json for every campaign under a root
    python -m repro.obs.analytics summarize .summaries

    # localize regressions between two campaigns (exit 1 on regressions)
    python -m repro.obs.analytics diff .summaries/abc123 .summaries/def456

    # scan a summary's scaling curves for anomalies (exit 1 on anomalies)
    python -m repro.obs.analytics check .summaries/def456

    # N-way trajectory over campaign summaries, with bisect hints
    python -m repro.obs.analytics trend .summaries/a/* .summaries/b/* --check
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.analytics.check import check_summary
from repro.obs.analytics.diff import diff_summaries
from repro.obs.analytics.summary import (
    canonical_dumps,
    find_campaign_dirs,
    load_summary,
    summarize_campaign_dir,
)
from repro.obs.analytics.trend import trend_report


def _cmd_summarize(args: argparse.Namespace) -> int:
    directories = find_campaign_dirs(args.root)
    if not directories:
        print(f"no campaign directories under {args.root}", file=sys.stderr)
        return 2
    for directory in directories:
        summary, out = summarize_campaign_dir(directory)
        head = summary["campaign"]
        print(f"{out}  ({head.get('experiment', '?')}/"
              f"{head.get('scale', '?')}, {len(summary['points'])} point(s))")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    before = load_summary(args.before)
    after = load_summary(args.after)
    report = diff_summaries(
        before, after, rel=args.rel, share_floor=args.share_floor,
        count_floor=args.count_floor,
    )
    if args.json:
        print(canonical_dumps(report.to_json()), end="")
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    summary = load_summary(args.summary)
    report = check_summary(
        summary, rel_tol=args.rel_tol, cliff=args.cliff,
        min_points=args.min_points,
    )
    if args.json:
        print(canonical_dumps(report.to_json()), end="")
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_trend(args: argparse.Namespace) -> int:
    report = trend_report(args.inputs, rel=args.rel)
    if args.json:
        print(canonical_dumps(report.to_json()), end="")
    else:
        print(report.render())
    if args.check:
        return 0 if report.ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analytics",
        description="Campaign-scale trace analytics: summarize, diff, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize",
        help="(re)build campaign-summary.json for campaign dir(s)",
    )
    p_sum.add_argument(
        "root",
        help="a campaign directory, or a summary root containing several",
    )
    p_sum.set_defaults(func=_cmd_summarize)

    p_diff = sub.add_parser(
        "diff", help="compare two campaign summaries; exit 1 on regressions",
    )
    p_diff.add_argument("before", help="baseline summary file or campaign dir")
    p_diff.add_argument("after", help="candidate summary file or campaign dir")
    p_diff.add_argument(
        "--rel", type=float, default=0.05,
        help="relative change needed to flag a metric (default 0.05)",
    )
    p_diff.add_argument(
        "--share-floor", type=float, default=0.01,
        help="seconds-metric floor as a share of point time (default 0.01)",
    )
    p_diff.add_argument(
        "--count-floor", type=float, default=16.0,
        help="absolute floor for count metrics (default 16)",
    )
    p_diff.add_argument("--json", action="store_true",
                        help="emit the report as canonical JSON")
    p_diff.set_defaults(func=_cmd_diff)

    p_check = sub.add_parser(
        "check",
        help="scan a summary's scaling curves; exit 1 on anomalies",
    )
    p_check.add_argument("summary", help="summary file or campaign dir")
    p_check.add_argument(
        "--rel-tol", type=float, default=0.05,
        help="speedup drop tolerated before flagging (default 0.05)",
    )
    p_check.add_argument(
        "--cliff", type=float, default=0.4,
        help="efficiency ratio below which one step is a cliff (default 0.4)",
    )
    p_check.add_argument(
        "--min-points", type=int, default=3,
        help="minimum points per series to analyse (default 3)",
    )
    p_check.add_argument("--json", action="store_true",
                         help="emit the report as canonical JSON")
    p_check.set_defaults(func=_cmd_check)

    p_trend = sub.add_parser(
        "trend",
        help="N-way perf trajectory over campaign summaries, with "
             "first-bad bisect hints",
    )
    p_trend.add_argument(
        "inputs", nargs="+",
        help="campaign summary files or campaign dirs, oldest first",
    )
    p_trend.add_argument(
        "--rel", type=float, default=0.2,
        help="relative move (vs the first point) that counts as a "
             "threshold crossing (default 0.2)",
    )
    p_trend.add_argument(
        "--check", action="store_true",
        help="exit 1 if the latest point is in a crossed (regressed) state",
    )
    p_trend.add_argument("--json", action="store_true",
                         help="emit the report as canonical JSON")
    p_trend.set_defaults(func=_cmd_trend)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
