#!/usr/bin/env python
"""Perf-baseline pipeline: host-normalized engine throughput per revision.

The campaign summaries are deliberately wall-clock-free (determinism
contract); *this* script is where wall clocks live.  It runs a pinned
set of quick-scale experiments and records, per experiment:

* ``events``      — simulated events popped, counted by a traced run
  (deterministic: identical across hosts and repeats, because tracing
  schedules no events of its own);
* ``wall_s``      — the best-of-N wall time of *untraced* runs (the
  configuration users actually pay for);
* ``events_per_s`` — raw engine throughput on this host;
* ``normalized``  — events_per_s divided by a host calibration score
  (a fixed pure-Python workload timed on the same machine), so
  baselines recorded on different hosts are comparable.

Output is ``BENCH_<rev>.json``.  ``--check BASELINE`` re-measures and
fails (exit 1) when any experiment's normalized throughput fell more
than ``--tolerance`` below the committed baseline; ``--slowdown-canary
F`` divides the measured throughput by F first, proving the gate trips.

Usage::

    python benchmarks/emit_baseline.py --out benchmarks/baselines
    python benchmarks/emit_baseline.py --check benchmarks/baselines
    python benchmarks/emit_baseline.py --check benchmarks/baselines \
        --slowdown-canary 4.0     # must exit 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCHEMA_VERSION = 1

#: The pinned measurement set: quick-scale experiments that finish in a
#: few seconds yet exercise distinct engine workloads (STREAM-style
#: memory traffic, the multi-link fabric, UTS work stealing + faults).
PINNED_EXPERIMENTS = ("t3_1", "f4_2", "r1")

#: Untraced wall-time repeats; best-of is robust to scheduler noise.
DEFAULT_REPEATS = 3


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def calibrate(target_s: float = 0.2) -> float:
    """Host speed score: iterations/second of a fixed pure-Python kernel.

    The kernel (dict churn + integer arithmetic) approximates what the
    simulator's hot loop does; the score divides out host speed so a
    baseline from a fast workstation still gates a slow CI runner.
    """
    def kernel(n: int) -> int:
        table: Dict[int, int] = {}
        acc = 0
        for i in range(n):
            table[i & 1023] = acc
            acc += table.get((i * 7) & 1023, 0) & 0xFFFF
        return acc

    n = 10_000
    while True:
        t0 = time.perf_counter()
        kernel(n)
        elapsed = time.perf_counter() - t0
        if elapsed >= target_s:
            return n / elapsed
        n *= 2


def _count_events(experiment_id: str):
    """Deterministic event count + top-sites digest, via a traced+profiled run.

    Returns ``(events, profile_top)`` where ``profile_top`` ranks the
    top 5 sites by costed cycles (see :mod:`repro.obs.profile`) — like
    the event count it is a pure function of the simulation, so the
    digest is comparable across hosts and pins *where* a revision's
    cycles went, not just how many there were.
    """
    from repro.harness.campaign import Campaign
    from repro.harness.runner import get_experiment
    from repro.obs import names
    from repro.obs.profile import cost_document, merge_snapshots

    outcome = Campaign(get_experiment(experiment_id),
                       scale="quick").run(trace=True, profile=True)
    events = sum(t.engine_metrics.get(names.ENGINE_EVENTS_POPPED, 0)
                 for t in outcome.batch.tracers)
    _host, tallies, runs = merge_snapshots(outcome.batch.profiles)
    doc = cost_document(experiment_id, tallies, runs)
    return events, doc["top"][:5]


def _measure_wall(experiment_id: str, repeats: int) -> float:
    """Best-of-N untraced wall time (the full-speed configuration)."""
    from repro.harness.campaign import Campaign
    from repro.harness.runner import get_experiment

    experiment = get_experiment(experiment_id)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        Campaign(experiment, scale="quick").run()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    calibration = calibrate()
    experiments: Dict[str, Dict[str, object]] = {}
    for experiment_id in PINNED_EXPERIMENTS:
        events, profile_top = _count_events(experiment_id)
        wall = _measure_wall(experiment_id, repeats)
        events_per_s = events / wall if wall > 0 else 0.0
        experiments[experiment_id] = {
            "events": events,
            "wall_s": round(wall, 6),
            "events_per_s": round(events_per_s, 3),
            "normalized": round(events_per_s / calibration, 9),
            "profile_top": profile_top,
        }
        print(f"{experiment_id}: {events} events, best wall "
              f"{wall:.3f}s, {events_per_s:,.0f} ev/s", file=sys.stderr)
    return {
        "schema": SCHEMA_VERSION,
        "rev": git_revision(),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "calibration": {"ops_per_s": round(calibration, 3)},
        "experiments": experiments,
    }


def find_baseline(path: Path) -> Path:
    """A baseline file, or the newest ``BENCH_*.json`` in a directory.

    Newest means the latest ``generated`` stamp, then rev: the order
    ``python -m repro.obs.analytics trend`` puts baselines in.
    """
    from repro.obs.analytics.trend import baseline_order

    if path.is_file():
        return path
    candidates = sorted(path.glob("BENCH_*.json")) if path.is_dir() else []
    if not candidates:
        raise FileNotFoundError(
            f"no BENCH_*.json baseline under {path} (run emit_baseline.py "
            "--out first)"
        )
    return max(candidates,
               key=lambda p: baseline_order(json.loads(p.read_text()), p))


def check(baseline_path: Path, tolerance: float, repeats: int,
          slowdown_canary: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != SCHEMA_VERSION:
        print(f"error: baseline schema {baseline.get('schema')!r} != "
              f"{SCHEMA_VERSION}", file=sys.stderr)
        return 2
    current = measure(repeats=repeats)
    failures: List[str] = []
    print(f"gate: current rev {current['rev']} vs baseline "
          f"{baseline.get('rev', '?')} ({baseline_path})")
    for experiment_id, recorded in baseline["experiments"].items():
        measured = current["experiments"].get(experiment_id)
        if measured is None:
            failures.append(f"{experiment_id}: missing from current run")
            continue
        now = measured["normalized"] / slowdown_canary
        then = recorded["normalized"]
        ratio = now / then if then > 0 else 1.0
        verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"  {experiment_id}: normalized {then:.6f} -> {now:.6f} "
              f"(x{ratio:.2f}) [{verdict}]")
        if verdict != "ok":
            failures.append(
                f"{experiment_id}: normalized throughput fell to "
                f"{ratio:.2f}x of baseline (tolerance {1.0 - tolerance:.2f}x)"
            )
        if measured["events"] != recorded.get("events"):
            print(f"  note: {experiment_id} event count changed "
                  f"{recorded.get('events')} -> {measured['events']} "
                  "(simulator behavior changed; re-emit the baseline)")
    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Emit or gate the host-normalized perf baseline.")
    parser.add_argument("--out", metavar="DIR",
                        help="write BENCH_<rev>.json into DIR")
    parser.add_argument("--check", metavar="PATH",
                        help="re-measure and gate against this baseline "
                             "file (or the newest BENCH_*.json in a dir)")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional drop in normalized "
                             "throughput before failing (default 0.5)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"untraced wall-time repeats (default "
                             f"{DEFAULT_REPEATS})")
    parser.add_argument("--slowdown-canary", type=float, default=1.0,
                        metavar="F",
                        help="divide measured throughput by F before "
                             "gating — F big enough must fail the gate "
                             "(self-test of the gate itself)")
    args = parser.parse_args(argv)
    if not args.out and not args.check:
        parser.error("nothing to do: pass --out and/or --check")
    if args.tolerance <= 0 or args.tolerance >= 1:
        parser.error("--tolerance must be in (0, 1)")
    if args.check:
        try:
            baseline_path = find_baseline(Path(args.check))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return check(baseline_path, args.tolerance, args.repeats,
                     args.slowdown_canary)
    record = measure(repeats=args.repeats)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{record['rev']}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
