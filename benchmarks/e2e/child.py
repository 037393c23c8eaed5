"""One cold run of the harness CLI, instrumented from outside ``src/``.

Usage::

    python benchmarks/e2e/child.py MODE SIDECAR EXPERIMENT SCALE [CLI_ARGS...]

``PYTHONPATH`` must point at the checkout's ``src``.  MODE is one of:

``setup``
    Import the CLI, the experiment module and the app adapter packages
    its points need, plan the campaign, and exit: the work every CLI
    user pays before the first point runs.
``timed``
    The same set-up, then ``python -m repro.harness EXPERIMENT --scale
    SCALE CLI_ARGS...`` in this process.  ``perf_counter`` wrappers
    around four public functions record spans; each function runs at
    most once per simulated program, so the wrappers cost nothing
    measurable.
``sampled``
    ``timed`` plus a 1 ms ``ITIMER_PROF`` stack sampler that charges host
    CPU to the layers of :mod:`layers`.

The spans, the samples and this process's CPU time are written as JSON
to SIDECAR (also when the CLI fails); the exit code is the CLI's.  Under
``--jobs N`` the points run in worker processes, which the wrappers and
the sampler do not see.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import os
import resource
import signal
import sys
import time
from collections import Counter

from layers import layer_of, owner

MODES = ("setup", "timed", "sampled")

#: Sampling period of the ``ITIMER_PROF`` timer, in CPU seconds.
SAMPLE_INTERVAL_S = 0.001

#: span name -> (module, class or None for a module function, function)
SPANS = {
    "campaign": ("repro.harness.campaign", "Campaign", "run"),
    "execute_spec": ("repro.harness.executor", None, "execute_spec"),
    "sim_run": ("repro.sim.engine", "Simulator", "run"),
    "render": ("repro.harness.reporting", "ExperimentResult", "render"),
}


class SpanRecorder:
    """Summed wall time and call count of each wrapped function."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        #: this process's CPU seconds inside ``Campaign.run``
        self.campaign_cpu_s = 0.0

    def install(self) -> None:
        for name, (module_name, owner_name, attr) in SPANS.items():
            module = importlib.import_module(module_name)
            target = getattr(module, owner_name) if owner_name else module
            setattr(target, attr, self._wrap(name, getattr(target, attr)))

    def _wrap(self, name, inner):
        seconds, calls = self.seconds, self.calls

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                calls[name] += 1
                if name == "campaign":
                    self.campaign_cpu_s += time.process_time() - cpu0

        return timed


class Sampler:
    """SIGPROF stack sampler: CPU samples per layer of this process."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = package_dir
        self.counts: Counter = Counter()
        self._layer_by_code = {}

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # SIGPROF's default action terminates the process; a signal
        # still in flight must not.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _frame_layers(self, frame):
        cache = self._layer_by_code
        while frame is not None:
            code = frame.f_code
            try:
                yield cache[code]
            except KeyError:
                layer = cache[code] = layer_of(code.co_filename,
                                               self.package_dir)
                yield layer
            frame = frame.f_back

    def _on_sample(self, signum, frame) -> None:
        self.counts[owner(self._frame_layers(frame))] += 1


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def set_up(experiment_id: str, scale: str) -> None:
    """Import what a CLI run needs and plan its campaign."""
    import repro.harness.__main__  # noqa: F401  (the CLI and its imports)
    from repro.harness.campaign import Campaign
    from repro.harness.executor import _ADAPTER_PACKAGES
    from repro.harness.runner import get_experiment

    specs = Campaign(get_experiment(experiment_id), scale=scale).plan()
    for prefix in sorted({spec.app.split(".", 1)[0] for spec in specs}):
        importlib.import_module(_ADAPTER_PACKAGES[prefix])


def main(argv) -> int:
    mode, sidecar, experiment_id, scale, *cli_args = argv
    if mode not in MODES:
        raise SystemExit(f"child: unknown mode {mode!r}; use one of {MODES}")
    record = {}
    sampler = None
    try:
        if mode == "sampled":
            # locate the package without importing it, so that its
            # imports are sampled too
            package = importlib.util.find_spec("repro")
            sampler = Sampler(os.path.abspath(
                package.submodule_search_locations[0]))
            sampler.start()
        set_up(experiment_id, scale)
        if mode == "setup":
            return 0
        spans = SpanRecorder()
        spans.install()
        from repro.harness.__main__ import main as cli_main

        code = cli_main([experiment_id, "--scale", scale, *cli_args])
        record["spans_s"] = spans.seconds
        record["calls"] = spans.calls
        record["campaign_cpu_s"] = spans.campaign_cpu_s
        return code
    finally:
        if sampler is not None:
            sampler.stop()
            record["samples"] = dict(sampler.counts)
        record["cpu_s"] = _cpu_s(resource.RUSAGE_SELF)
        record["children_cpu_s"] = _cpu_s(resource.RUSAGE_CHILDREN)
        with open(sidecar, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
