"""Executors: the *how to schedule it* half of the campaign pipeline.

An executor takes an ordered list of :class:`~repro.harness.spec.RunSpec`
points and returns their outputs **in the same order**, plus any
observability payloads (tracers, sanitizer findings, profiles) the
caller asked for.  Both implementations share one per-point core,
:func:`run_point`, and one batch assembly,
:meth:`ExecutionBatch.from_payloads`:

* :class:`InlineExecutor` — runs every point in this process, one after
  the other (``--jobs 1``).
* :class:`~repro.harness.queue.QueueExecutor` — a coordinator over up
  to ``jobs`` persistent worker processes with leases, retries and
  quarantine.  Given a journal directory (``--durable``/``--resume``) it
  journals every point's lifecycle; a plain ``--jobs N`` runs it
  journal-less.

:func:`make_executor` is the one place that picks between them.  Every
simulation point is a pure function of its spec (fixed seeds, no
wall-clock reads), so scheduling cannot change results — only wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ExecutorError
from repro.harness.spec import RunSpec
from repro.obs.session import instrument

__all__ = [
    "ExecutionBatch",
    "ExecutorError",
    "InlineExecutor",
    "execute_spec",
    "make_executor",
    "run_point",
]

#: app id prefix -> package exposing the normalized ``run_request`` adapter
_ADAPTER_PACKAGES = {
    "uts": "repro.apps.uts",
    "ft": "repro.apps.ft",
    "stream": "repro.apps.stream",
    "microbench": "repro.apps.microbench",
}

#: The payload of a point without a result (e.g. quarantined).
_NO_PAYLOAD: Dict[str, Any] = {"output": None, "tracers": [], "findings": [],
                               "sanitizer_runs": 0, "profile": None}


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one simulation point via its app's ``run_request`` adapter."""
    import importlib

    prefix = spec.app.split(".", 1)[0]
    package = _ADAPTER_PACKAGES.get(prefix)
    if package is None:
        raise ValueError(
            f"no adapter for app {spec.app!r}; known: {sorted(_ADAPTER_PACKAGES)}"
        )
    module = importlib.import_module(package)
    return module.run_request(spec)


def run_point(spec: RunSpec, trace: bool = False, sanitize: bool = False,
              profile: bool = False) -> Dict[str, Any]:
    """One spec inside its own instrumentation session → payload.

    The only place per-point sessions are opened.  The payload pickles:
    tracers are detached from their simulator (``sim`` holds generators,
    which cannot cross a process boundary) — everything the exporter and
    critical-path attribution read is already materialized in the
    tracer's own lists.
    """
    payload = dict(_NO_PAYLOAD)
    with instrument(spec.app, trace=trace, sanitize=sanitize,
                    profile=profile) as session:
        payload["output"] = execute_spec(spec)
    if profile:
        payload["profile"] = session.snapshot()
    if trace:
        for tracer in session.tracers:
            tracer.sim = None
        payload["tracers"] = list(session.tracers)
    if sanitize:
        payload["findings"] = [f.row() for f in session.findings]
        payload["sanitizer_runs"] = len(session.sanitizers)
    return payload


@dataclass
class ExecutionBatch:
    """Outputs (in spec order) plus observability payloads of one batch."""

    outputs: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: finished tracers from every simulated run, in spec order
    #: (empty unless the batch was traced).
    tracers: List[Any] = field(default_factory=list)
    #: the same tracers grouped per executed point — ``tracer_groups[i]``
    #: holds point ``i``'s runs (a point may simulate several programs).
    #: Empty unless the batch was traced; a quarantined point's slot is
    #: an empty list.  The campaign summarizer keys on this grouping.
    tracer_groups: List[List[Any]] = field(default_factory=list)
    #: per-point profile snapshots (:meth:`InstrumentSession.snapshot`), in
    #: spec order; empty unless the batch was profiled.  A quarantined
    #: point's slot is None — merged profiles cover only healthy points.
    profiles: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: sanitizer finding rows, in spec order (empty unless sanitized).
    findings: List[Dict[str, Any]] = field(default_factory=list)
    #: how many sanitizers were armed (== simulated runs when sanitizing).
    sanitizer_runs: int = 0
    #: quarantined points (queue executor only): rows of {point, app,
    #: fingerprint, attempts, error} with batch-local point indices; the
    #: matching ``outputs`` slots hold None.
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: points whose outputs were replayed from a journal (``--resume``)
    #: instead of executed.
    replayed: int = 0

    @classmethod
    def from_payloads(cls, payloads: Sequence[Optional[Dict[str, Any]]], *,
                      trace: bool = False,
                      profile: bool = False) -> "ExecutionBatch":
        """Assemble a batch from :func:`run_point` payloads in spec order.

        None marks a point without a result (quarantined or missing).
        Tracers are renumbered in spec order (``run_index`` is lane
        ordering), so exports are byte-identical however the points were
        scheduled.
        """
        batch = cls()
        for payload in payloads:
            payload = payload or _NO_PAYLOAD
            batch.outputs.append(payload["output"])
            batch.tracers.extend(payload["tracers"])
            if trace:
                batch.tracer_groups.append(list(payload["tracers"]))
            if profile:
                batch.profiles.append(payload["profile"])
            batch.findings.extend(payload["findings"])
            batch.sanitizer_runs += payload["sanitizer_runs"]
        for index, tracer in enumerate(batch.tracers, start=1):
            tracer.run_index = index
        return batch


class InlineExecutor:
    """Sequential in-process execution (``--jobs 1``)."""

    jobs = 1

    def run(self, specs: Sequence[RunSpec], *, trace: bool = False,
            sanitize: bool = False, profile: bool = False) -> ExecutionBatch:
        return ExecutionBatch.from_payloads(
            [run_point(spec, trace, sanitize, profile) for spec in specs],
            trace=trace, profile=profile,
        )


def make_executor(jobs: int = 1, *, journal_dir=None, **queue_options):
    """The executor for a run: inline for one job without a journal,
    otherwise a :class:`~repro.harness.queue.QueueExecutor` (journaled
    iff ``journal_dir`` is given; ``queue_options`` go to it)."""
    if jobs <= 1 and journal_dir is None:
        return InlineExecutor()
    from repro.harness.queue import QueueExecutor

    return QueueExecutor(jobs, journal_dir=journal_dir, **queue_options)
