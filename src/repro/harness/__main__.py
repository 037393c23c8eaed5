"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.harness --list
    python -m repro.harness t3_1 t4_1
    python -m repro.harness --all --scale quick --out results.md
    python -m repro.harness r1 --faults "crash:node=2,at=5e-5;seed=7"
    python -m repro.harness f4_2 --scale quick --trace /tmp/t.json
    python -m repro.harness f4_2 --report-breakdown
    python -m repro.harness f3_3 --jobs 4
    python -m repro.harness --all --no-cache
    python -m repro.harness f3_3 --durable --jobs 4 --point-timeout 120
    python -m repro.harness f3_3 --resume
    python -m repro.harness t3_1 --chaos "kill:point=1,attempt=1;seed=7"
    python -m repro.harness f4_2 --summary-dir .summaries
    python -m repro.harness --status .repro-cache
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import FaultError
from repro.harness.cache import DEFAULT_CACHE_DIR
from repro.harness.runner import EXPERIMENTS, SCALES, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the thesis's tables and figures on the "
                    "simulated clusters.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. t3_1 f4_5)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--scale", choices=SCALES, default="quick")
    parser.add_argument("--faults", metavar="SPEC",
                        help="fault-plan spec for experiments that accept one "
                             "(e.g. 'crash:node=1,at=5e-5;loss:prob=0.01')")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace-event / Perfetto JSON of "
                             "every simulated program the experiments run")
    parser.add_argument("--report-breakdown", action="store_true",
                        help="append the critical-path time attribution "
                             "(compute/network/barrier/steal) and the "
                             "communication matrix to each report")
    parser.add_argument("--sanitize", action="store_true",
                        help="arm the dynamic PGAS sanitizer (repro.analyze): "
                             "race, privatization-legality and collective-"
                             "matching checks; any finding fails the run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent simulation points across N "
                             "worker processes (default 1: inline, "
                             "byte-identical to the historical reports)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="content-addressed result cache location "
                             f"(default {DEFAULT_CACHE_DIR}); already-"
                             "computed points are skipped on re-runs")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache (every point runs)")
    parser.add_argument("--durable", action="store_true",
                        help="journal every point's lifecycle so an "
                             "interrupted campaign can be finished with "
                             "--resume (runs the worker queue even at "
                             "--jobs 1)")
    parser.add_argument("--resume", action="store_true",
                        help="replay the campaign journal and execute only "
                             "unfinished points (implies --durable); the "
                             "final report is byte-identical to an "
                             "uninterrupted run")
    parser.add_argument("--point-timeout", type=float, metavar="SECONDS",
                        help="kill any single simulation point that exceeds "
                             "this wall-clock budget; the point is journaled "
                             "as failed and retried/quarantined instead of "
                             "wedging the campaign (implies --durable)")
    parser.add_argument("--max-attempts", type=int, default=3, metavar="N",
                        help="attempts per point before the worker queue "
                             "(--jobs N or --durable) quarantines it as "
                             "poison (default 3)")
    parser.add_argument("--journal-dir", metavar="DIR",
                        help="campaign journal location (default "
                             "<cache-dir>/journals)")
    parser.add_argument("--chaos", metavar="SPEC",
                        help="seeded self-chaos injection for the worker "
                             "queue (e.g. 'kill:point=1,attempt=1;"
                             "halt:after=2;seed=7'); implies --durable")
    parser.add_argument("--summary-dir", metavar="DIR",
                        help="trace every campaign and write per-point "
                             "summaries plus a merged campaign-summary.json "
                             "under DIR, content-addressed by campaign "
                             "fingerprint (see python -m repro.obs.analytics)")
    parser.add_argument("--profile", metavar="DIR", dest="profile_dir",
                        help="profile every campaign point (sampled host "
                             "CPU + simulated cost, per layer) and write merged "
                             "<id>-{host,cost}.{json,folded} artifacts under "
                             "DIR (see python -m repro.obs.profile); leaves "
                             "the rendered report byte-identical")
    parser.add_argument("--status", metavar="DIR", nargs="?",
                        const=DEFAULT_CACHE_DIR,
                        help="render the per-campaign state of every durable "
                             "journal under DIR (a cache dir or a journals "
                             f"dir; default {DEFAULT_CACHE_DIR}) and exit")
    args = parser.parse_args(argv)
    selected = args.experiments or args.all
    if selected and (args.list or args.status is not None):
        parser.error("--list and --status take no experiment ids or --all")
    if args.status is not None:
        from repro.harness.status import render_status

        print(render_status(args.status))
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_attempts < 1:
        parser.error("--max-attempts must be >= 1")
    if args.point_timeout is not None and args.point_timeout <= 0:
        parser.error("--point-timeout must be > 0")
    if args.chaos:
        from repro.harness.chaos import ChaosPlan

        try:
            ChaosPlan.parse(args.chaos)
        except FaultError as exc:
            parser.error(f"--chaos: {exc}")

    if args.list:
        # static titles: no heavy experiment-module imports for a listing
        for eid in EXPERIMENTS.ids():
            print(f"{eid:6s} {EXPERIMENTS.title(eid)}")
        return 0

    ids = EXPERIMENTS.ids() if args.all else args.experiments
    if not ids:
        parser.error("no experiments given (use ids, --all, or --list)")
    if args.trace and len(ids) > 1:
        parser.error("--trace takes exactly one experiment (one trace file)")
    # every id is checked before the first experiment runs
    for eid in ids:
        if eid not in EXPERIMENTS:
            parser.error(f"unknown experiment {eid!r}; available: "
                         f"{', '.join(EXPERIMENTS.ids())}")
        if args.faults and not EXPERIMENTS.get(eid).accepts_faults:
            parser.error(f"experiment {eid!r} does not accept a --faults spec")

    chunks = []
    ok = True
    for eid in ids:
        t0 = time.time()
        try:
            result = run_experiment(
                eid, scale=args.scale, faults=args.faults,
                trace_path=args.trace, breakdown=args.report_breakdown,
                sanitize=args.sanitize, jobs=args.jobs,
                cache_dir=None if args.no_cache else args.cache_dir,
                durable=args.durable, resume=args.resume,
                point_timeout=args.point_timeout,
                max_attempts=args.max_attempts,
                chaos=args.chaos, journal_dir=args.journal_dir,
                summary_dir=args.summary_dir,
                profile_dir=args.profile_dir,
            )
        except FaultError as exc:
            parser.error(f"--faults: {exc}")
        wall = time.time() - t0
        if args.profile_dir and not _host_samples(args.profile_dir, eid):
            print(f"warning: {eid}: the host profile holds no samples; the "
                  "1 ms SIGPROF sampler fires only while a point burns CPU, "
                  "and these points burned too little", file=sys.stderr)
        chunk = result.render() + f"\n(wall time {wall:.1f}s)\n"
        chunks.append(chunk)
        print(chunk)
        ok = ok and result.shape_ok and not result.sanitizer_findings
    report = "\n".join(chunks)
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.profile_dir:
        print(f"profiles written to {args.profile_dir}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"report written to {args.out}")
    return 0 if ok else 1


def _host_samples(profile_dir: str, eid: str) -> int:
    """Samples in the merged host profile ``--profile`` wrote for ``eid``."""
    doc = json.loads((Path(profile_dir) / f"{eid}-host.json").read_text())
    return sum(weight for _, weight in doc["top"])


if __name__ == "__main__":
    sys.exit(main())
