#!/usr/bin/env python3
"""End-to-end benchmark: cold ``repro.harness`` CLI runs, split by layer.

Every run is a fresh interpreter that runs one pinned experiment with
``--no-cache`` from its own temp directory, the way a user regenerates
a report.  Each report is checked byte-for-byte against a golden; only
the trailing ``(wall time ...)`` line is stripped.

Usage::

    # all four workloads, round-robin, 5 timed runs each: prints every
    # metric with unit, median, IQR and n, and writes a JSON results file
    python3 benchmarks/e2e/run.py [--repeats 5] [--out results.json]

    # one workload for a fixed time; the last stdout line is one JSON
    # object holding the end-to-end (--trace 0) or per-layer (--trace 1)
    # metrics
    python3 benchmarks/e2e/run.py --workload uts_steal --seed 1 \\
        --seconds 25 --trace 0

Run modes (see ``child.py``):

* ``setup``: interpreter start, the CLI, experiment and adapter imports
  and ``Campaign.plan()``; gives ``setup_s`` (median of 9).
* ``timed``: the whole CLI run with tracing off; gives ``report_s``,
  ``campaign_s``, ``peak_rss_mb`` and the span metrics.
* ``sampled``: a timed run under a SIGPROF sampler; gives layer
  self-time.
* ``traced``: a timed run with ``--summary-dir``; gives the exact engine,
  network and UPC counts, checked against ``golden/counts.json``.

The simulated inputs are pinned: each experiment fixes its own seeds,
which is what lets a report be checked against a golden.  ``--seed``
orders the benchmark's own runs: which workload starts the round-robin,
and whether the sampled or the traced run goes first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden"
WORK_ROOT = ROOT / ".bench_build" / "e2e"

SETUP_RUNS = 9
DEFAULT_REPEATS = 5
#: a ``--workload`` invocation must end within 180 s; keep room to report
WORKLOAD_BUDGET_S = 170.0
#: per-run timeout of the all-workloads mode
RUN_TIMEOUT_S = 600.0
#: above this the sampled shares describe a perturbed program
SAMPLER_WARN_X = 1.10

_WALL_LINE = re.compile(r"\n\(wall time [^\n]*\)\n\Z")

#: exact-count metric -> key path into campaign-summary.json ``totals``
_COUNTS = {
    "engine.events_popped": ("engine", "engine.events_popped"),
    "engine.context_switches": ("engine", "engine.context_switches"),
    "engine.costed_cycles": ("engine", "engine.costed_cycles"),
    "engine.heap_peak": ("engine", "engine.heap_peak"),
    "network.messages": ("messages",),
    "network.bytes": ("bytes",),
    "upc.barrier_waits": ("barrier_waits",),
    "apps.uts.steals": ("steals",),
    "sim.elapsed_s": ("elapsed_s",),
}


@dataclass(frozen=True)
class Workload:
    """One pinned CLI invocation and the outputs it must reproduce."""

    name: str
    experiment: str
    scale: str
    #: the expected ``ExperimentResult.render()`` output
    golden: Path
    #: CLI flags after ``--scale``
    cli_args: Tuple[str, ...] = ("--no-cache",)
    #: key of the expected traced counts in ``golden/counts.json``
    counts: Optional[str] = None

    @property
    def argv(self) -> List[str]:
        """The harness CLI arguments of a timed run."""
        return [self.experiment, "--scale", self.scale, *self.cli_args]


WORKLOADS = {w.name: w for w in (
    Workload("uts_steal", "t3_2", "quick",
             ROOT / "tests" / "harness" / "golden" / "t3_2.md",
             counts="t3_2-quick"),
    Workload("ft_alltoall", "f3_4", "paper", GOLDEN / "f3_4-paper.md",
             counts="f3_4-paper"),
    # same points as ft_alltoall, so the same golden report and counts
    Workload("ft_alltoall_jobs2", "f3_4", "paper", GOLDEN / "f3_4-paper.md",
             ("--no-cache", "--jobs", "2"), counts="f3_4-paper"),
    Workload("uts_faults", "r1", "paper", GOLDEN / "r1-paper.md",
             counts="r1-paper"),
)}


# -- statistics ------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them.

    A single value is its own quartiles.
    """
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# -- output checks ---------------------------------------------------------

def strip_wall_time(report: str) -> str:
    """The CLI report without its trailing ``(wall time ...)`` line.

    That line is the only host-dependent part of a report; nothing else
    is touched, so any other difference from the golden still shows.
    """
    return _WALL_LINE.sub("", report, count=1)


def load_counts() -> Dict[str, Dict[str, float]]:
    return json.loads((GOLDEN / "counts.json").read_text())


def traced_counts(totals: Dict) -> Dict[str, float]:
    """The exact-count metrics of one ``campaign-summary.json`` totals."""
    out = {}
    for metric, path in _COUNTS.items():
        value = totals
        for key in path:
            value = value[key]
        out[metric] = value
    return out


# -- one child run ---------------------------------------------------------

@dataclass
class ChildRun:
    """One child process: what it cost and what it produced."""

    mode: str
    wall_s: float
    maxrss_mb: float
    exit_code: int
    #: spans, samples and CPU times the child wrote (see child.py)
    sidecar: Dict = field(default_factory=dict)
    #: exact counts of a traced run
    counts: Dict[str, float] = field(default_factory=dict)
    #: the first check the run failed, or None
    problem: Optional[str] = None


def run_child(workload: Workload, mode: str, work_dir: Path,
              timeout_s: float) -> ChildRun:
    """Run one cold child of ``workload`` in a fresh directory.

    ``mode`` is ``setup``, ``timed``, ``sampled`` or ``traced``.  The
    wall time runs from spawn to reap; peak memory and exit status come
    from ``os.wait4``.  A child still running after ``timeout_s`` is
    killed.
    """
    run_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=work_dir))
    sidecar = run_dir / "sidecar.json"
    report = run_dir / "report.md"
    summary = run_dir / "summary"
    cmd = [sys.executable, str(CHILD), "timed" if mode == "traced" else mode,
           str(sidecar), workload.experiment, workload.scale]
    if mode != "setup":
        cmd += [*workload.cli_args, "--out", str(report)]
    if mode == "traced":
        cmd += ["--summary-dir", str(summary)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        with open(run_dir / "stderr.txt", "wb") as stderr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=run_dir, env=env,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                exit_code, maxrss_kb = _reap(proc, timeout_s)
            finally:
                if proc.returncode is None:  # interrupted while waiting
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        run = ChildRun(mode=mode, wall_s=wall, maxrss_mb=maxrss_kb / 1024.0,
                       exit_code=exit_code)
        run.problem = _check(run, workload, run_dir)
        return run
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _reap(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, int]:
    """Wait for ``proc``, killing it after ``timeout_s``: (exit code, KB)."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout_s, 0.0))
    finally:
        os.close(pidfd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _check(run: ChildRun, workload: Workload,
           run_dir: Path) -> Optional[str]:
    """Load the run's outputs into ``run``; the first failed check, or None."""
    if run.exit_code != 0:
        stderr = (run_dir / "stderr.txt").read_text(errors="replace")
        last = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"{run.mode} run exited {run.exit_code}: {last[0]}"
    run.sidecar = json.loads((run_dir / "sidecar.json").read_text())
    if run.mode in ("timed", "sampled"):
        report = strip_wall_time((run_dir / "report.md").read_text())
        if report != workload.golden.read_text():
            return f"{run.mode} report differs from {workload.golden.name}"
    if run.mode == "traced":
        summaries = list((run_dir / "summary").glob("*/campaign-summary.json"))
        if len(summaries) != 1:
            return f"traced run wrote {len(summaries)} campaign summaries"
        totals = json.loads(summaries[0].read_text())["totals"]
        run.counts = traced_counts(totals)
        expected = load_counts().get(workload.counts)
        if expected is not None and run.counts != expected:
            changed = sorted(k for k in expected
                             if run.counts.get(k) != expected[k])
            return f"traced counts differ from golden: {', '.join(changed)}"
    return None


# -- metrics ---------------------------------------------------------------

@dataclass
class WorkloadRuns:
    """Every child run of one workload."""

    workload: Workload
    runs: List[ChildRun] = field(default_factory=list)

    def ok(self, mode: str) -> List[ChildRun]:
        return [r for r in self.runs if r.mode == mode and r.problem is None]

    @property
    def problems(self) -> List[str]:
        return [r.problem for r in self.runs if r.problem is not None]


def metric_values(wr: WorkloadRuns) -> Dict[str, List[float]]:
    """Every metric the passing runs support, as its observed values."""
    values: Dict[str, List[float]] = {}
    setup, timed = wr.ok("setup"), wr.ok("timed")
    if setup:
        values["setup_s"] = [r.wall_s for r in setup]
    if timed:
        spans = [r.sidecar["spans_s"] for r in timed]
        calls = [r.sidecar["calls"] for r in timed]
        values.update({
            "report_s": [r.wall_s for r in timed],
            "campaign_s": [s["campaign"] for s in spans],
            "peak_rss_mb": [r.maxrss_mb for r in timed],
            "sim.run_s": [s["sim_run"] for s in spans],
            "apps.run_request_s": [s["execute_spec"] for s in spans],
            "apps.outside_sim_s": [s["execute_spec"] - s["sim_run"]
                                   for s in spans],
            "harness.overhead_s": [s["campaign"] - s["execute_spec"]
                                   for s in spans],
            "harness.render_s": [s["render"] for s in spans],
            "harness.parent_idle_s": [
                s["campaign"] - r.sidecar["campaign_cpu_s"]
                for s, r in zip(spans, timed)],
            "harness.worker_cpu_s": [r.sidecar["children_cpu_s"]
                                     for r in timed],
            "sim.runs": [c["sim_run"] for c in calls],
            "apps.points": [c["execute_spec"] for c in calls],
        })
    report_s = statistics.median(values["report_s"]) if timed else None
    for run in wr.ok("sampled"):
        samples = run.sidecar["samples"]
        total = sum(samples.values())
        for layer in LAYERS:
            share = samples.get(layer, 0) / total if total else 0.0
            values[f"{layer}.self_s"] = [share * run.sidecar["cpu_s"]]
        values["bench.samples"] = [total]
        if report_s:
            values["bench.sampler_overhead_x"] = [run.wall_s / report_s]
    for run in wr.ok("traced"):
        values.update({metric: [v] for metric, v in run.counts.items()})
        if report_s:
            values["obs.trace_overhead_x"] = [run.wall_s / report_s]
        if timed and run.counts["engine.events_popped"]:
            values["engine.ns_per_event"] = [
                statistics.median(values["sim.run_s"])
                / run.counts["engine.events_popped"] * 1e9]
    return values


def summarize(values: Dict[str, List[float]],
              units: Dict[str, str]) -> Dict[str, Dict]:
    """Median, quartiles and n of every declared metric that was measured."""
    out = {}
    for name, unit in units.items():
        if name in values:
            vals = values[name]
            q1, q3 = quartiles(vals)
            out[name] = {"unit": unit, "median": statistics.median(vals),
                         "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(vals),
                         "values": vals}
    return out


# -- orchestration ---------------------------------------------------------

def measure_workload(workload: Workload, seconds: float, trace: bool,
                     rng: random.Random, work_dir: Path,
                     deadline: float) -> WorkloadRuns:
    """The ``--workload`` mode.

    Without ``trace``: 9 set-up probes, then timed runs until the next
    one would end after ``seconds``.  With ``trace``: the same timed runs,
    then one sampled and one traced run.  At least one timed run always
    happens; the first failed run ends the measurement.
    """
    wr = WorkloadRuns(workload)

    def failed(mode: str) -> bool:
        run = run_child(workload, mode, work_dir,
                        deadline - time.perf_counter())
        wr.runs.append(run)
        return run.problem is not None

    for _ in range(0 if trace else SETUP_RUNS):
        if failed("setup"):
            return wr
    start = time.perf_counter()
    while True:
        if failed("timed"):
            return wr
        walls = [r.wall_s for r in wr.ok("timed")]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    for mode in rng.sample(["sampled", "traced"], 2) if trace else ():
        if failed(mode):
            break
    return wr


def measure_all(workloads: Sequence[Workload], repeats: int,
                rng: random.Random, work_dir: Path) -> List[WorkloadRuns]:
    """The all-workloads mode.

    Timed runs go round-robin over the workloads, each followed by its
    share of the workload's set-up probes, so host drift spreads over
    every workload and metric alike; one sampled and one traced run of
    each workload follow.
    """
    first = rng.randrange(len(workloads))
    order = list(workloads[first:]) + list(workloads[:first])
    by_name = {w.name: WorkloadRuns(w) for w in workloads}

    def one(workload: Workload, mode: str) -> None:
        run = run_child(workload, mode, work_dir, RUN_TIMEOUT_S)
        by_name[workload.name].runs.append(run)
        print(f"  {workload.name:18s} {mode:8s} {run.wall_s:8.3f} s  "
              f"{run.problem or 'ok'}", flush=True)

    for r in range(repeats):
        probes = SETUP_RUNS * (r + 1) // repeats - SETUP_RUNS * r // repeats
        for workload in order:
            one(workload, "timed")
            for _ in range(probes):
                one(workload, "setup")
    for workload in order:
        for mode in rng.sample(["sampled", "traced"], 2):
            one(workload, mode)
    return [by_name[w.name] for w in workloads]


# -- reporting -------------------------------------------------------------

def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_context() -> Dict:
    """What a reader needs to tell whether two results files compare.

    The load averages are taken now; the caller adds the end-of-run ones.
    """
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "platform": platform.platform(),
            "load_start": os.getloadavg()}


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def notes_for(wr: WorkloadRuns, summary: Dict[str, Dict]) -> List[str]:
    notes = []
    if "--jobs" in wr.workload.cli_args:
        notes.append("note: the points run in worker processes; the spans "
                     "and the sampler see only the parent process")
    overhead = summary.get("bench.sampler_overhead_x")
    if overhead and overhead["median"] > SAMPLER_WARN_X:
        notes.append(f"WARNING: sampler overhead x{overhead['median']:.2f} > "
                     f"x{SAMPLER_WARN_X:.2f}: the layer shares may describe "
                     "a perturbed program (or the host slowed during the "
                     "sampled run)")
    return notes


def _number(value: float) -> str:
    """Counts in full, everything else to six significant digits."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_table(wr: WorkloadRuns, summary: Dict[str, Dict],
                notes: List[str]) -> None:
    attempted, failed = len(wr.runs), len(wr.problems)
    modes = ", ".join(f"{sum(r.mode == m for r in wr.runs)} {m}"
                      for m in ("setup", "timed", "sampled", "traced")
                      if any(r.mode == m for r in wr.runs))
    print(f"\n== {wr.workload.name}: {' '.join(wr.workload.argv)}  ({modes})")
    print(f"{'metric':28s} {'unit':7s} {'median':>14s} {'IQR':>12s} {'n':>3s}")
    for name, row in summary.items():
        print(f"{name:28s} {row['unit']:7s} {_number(row['median']):>14s} "
              f"{row['iqr']:12.4g} {row['n']:3d}")
    print(f"{'failed_frac':28s} {'ratio':7s} {failed / attempted:14.6g} "
          f"{'':12s} {attempted:3d}")
    for problem in wr.problems:
        print(f"FAILED: {problem}")
    for note in notes:
        print(note)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-CLI end-to-end benchmark with per-layer host "
                    "self-time.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload for --seconds and print "
                             "one JSON line (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the benchmark's runs (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="--workload: time to spend on timed runs "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload: 0 reports the end-to-end metrics, "
                             "1 the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="all workloads: timed runs of each "
                             f"(default {DEFAULT_REPEATS})")
    parser.add_argument("--out", type=Path,
                        help="results file (default for all workloads: "
                             ".bench_build/e2e/results-<rev>.json)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    wanted = [WORKLOADS[args.workload]] if args.workload else \
        list(WORKLOADS.values())
    needed = [SRC / "repro" / "harness" / "__main__.py",
              *{w.golden for w in wanted}]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a repro checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    groups = {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}
    units = {m["name"]: m["unit"] for group in groups.values() for m in group}
    rng = random.Random(args.seed)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"seed{args.seed}-",
                                     dir=WORK_ROOT))
    host = host_context()
    t0 = time.perf_counter()
    try:
        if args.workload:
            results = [measure_workload(
                wanted[0], seconds, bool(args.trace), rng, work_dir,
                deadline=t0 + WORKLOAD_BUDGET_S)]
        else:
            print(f"running {len(wanted)} workloads round-robin, "
                  f"{args.repeats} timed + {SETUP_RUNS} setup runs each, "
                  "then one sampled and one traced run each", flush=True)
            results = measure_all(wanted, args.repeats, rng, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    total_s = time.perf_counter() - t0
    host["load_end"] = os.getloadavg()

    document = {"host": host, "total_s": total_s, "workloads": {}}
    attempted = failed = 0
    for wr in results:
        summary = summarize(metric_values(wr), units)
        notes = notes_for(wr, summary)
        print_table(wr, summary, notes)
        attempted += len(wr.runs)
        failed += len(wr.problems)
        document["workloads"][wr.workload.name] = {
            "argv": wr.workload.argv, "attempted": len(wr.runs),
            "failed": len(wr.problems), "problems": wr.problems,
            "notes": notes, "metrics": summary}
    print(f"\ntotal {total_s:.1f} s; {attempted} runs, {failed} failed; "
          f"load average {host['load_start'][0]:.2f} -> "
          f"{host['load_end'][0]:.2f}")

    out = args.out
    if out is not None or not args.workload:
        rev = git_revision()
        out = out or WORK_ROOT / f"results-{rev}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"rev": rev, **document}, indent=2) + "\n")
        print(f"results written to {out}")

    if args.workload:
        summary = document["workloads"][args.workload]["metrics"]
        group = groups["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": summary[m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in group if m["name"] in summary}
        correct = failed == 0 and len(metrics) == len(group)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
