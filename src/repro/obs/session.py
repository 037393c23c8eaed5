"""Instrumentation sessions: one context arms tracing, sanitizing, profiling.

Instrumentation is off by default: every :class:`~repro.sim.Simulator`
starts with the engine's shared off-sink as its tracer, sanitizer and
profiler.  An :func:`instrument` context manager turns on the parts it
is asked for.  While it is active, every SPMD job constructed (the
shared base :class:`~repro.gasnet.job.SpmdJob` of
:class:`~repro.upc.runtime.UpcProgram` and
:class:`~repro.mpi.comm.MpiProgram`) calls :func:`arm`, which attaches
to the program's simulator:

* ``trace`` — a fresh :class:`~repro.obs.tracer.Tracer` per run;
* ``sanitize`` — a fresh :class:`~repro.analyze.sanitizer.Sanitizer`
  per job whose class sets ``sanitized`` (UPC programs; MPI programs
  stay unsanitized);
* ``profile`` — the session's one shared
  :class:`~repro.obs.profile.cost.CostProfiler`, while the session's
  :class:`~repro.obs.profile.host.HostSampler` samples the whole body
  (``SIGPROF`` is process-wide, so one host profile per session is the
  honest granularity).

One session can therefore span many simulated runs (a harness
experiment like ``f4_2`` constructs ~30 programs); each run becomes its
own process group in the exported trace.  The sanitizer and profilers
are imported only when their flag is set.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer, thread_track

__all__ = ["InstrumentSession", "instrument", "arm"]

#: The module-global active session (None when instrumentation is off).
_ACTIVE: Optional["InstrumentSession"] = None


class InstrumentSession:
    """The tracers, sanitizers and profilers of one instrumented region."""

    def __init__(self, label: str, *, trace: bool = False,
                 sanitize: bool = False, profile: bool = False):
        self.label = label
        self.trace = trace
        self.sanitize = sanitize
        self.tracers: List[Tracer] = []
        self.sanitizers: List[Any] = []
        #: the shared cost profiler and the host sampler (None unless
        #: ``profile``)
        self.cost = self.host = None
        if profile:
            from repro.obs.profile.cost import CostProfiler
            from repro.obs.profile.host import HostSampler

            self.cost = CostProfiler()
            self.host = HostSampler()

    @property
    def findings(self) -> List[Any]:
        """Every armed sanitizer's findings, in program order."""
        return [f for san in self.sanitizers for f in san.findings]

    def snapshot(self) -> Dict[str, Any]:
        """The profilers' tallies as a plain JSON-able (picklable) dict.

        This is the per-point payload executors ship back from workers;
        :func:`repro.obs.profile.report.merge_snapshots` re-aggregates.
        """
        return {
            "host": self.host.rows(),
            "cost": [
                [phase, layer, events, cycles, switches]
                for (phase, layer), (events, cycles, switches)
                in sorted(self.cost.tallies.items())
            ],
        }


def arm(sim, label: str, threads: int, program=None) -> None:
    """Attach the active session's sinks to ``sim``; the only arming site.

    Call it once per program, after its ``StatsCollector`` exists (the
    sanitizer reads ``program.stats``) and before the memory system and
    fabric are built (they declare their trace tracks after the
    ``threads`` thread tracks declared here).  ``program`` is the job to
    sanitize; None leaves the run unsanitized.  Outside a session, and
    for every part the session leaves off, the simulator keeps its
    off-sink.
    """
    session = _ACTIVE
    if session is None:
        return
    if session.trace:
        tracer = Tracer(sim, label=label, run_index=len(session.tracers) + 1)
        for t in range(threads):
            tracer.declare_track(thread_track(t))
        session.tracers.append(tracer)
        sim.tracer = tracer
    if session.sanitize and program is not None:
        from repro.analyze.sanitizer import Sanitizer

        sanitizer = Sanitizer(program)
        session.sanitizers.append(sanitizer)
        sim.sanitizer = sanitizer
    if session.cost is not None:
        sim.profiler = session.cost


@contextmanager
def instrument(label: str, *, trace: bool = False, sanitize: bool = False,
               profile: bool = False):
    """Arm instrumentation for the ``with`` body; yields the session.

    Sessions do not nest: two sessions silently splitting a run's
    tracers or findings would be a debugging trap, and a second host
    sampler would steal the first one's ``SIGPROF`` handler.  The host
    sampler runs for the body and is disarmed on the way out, also when
    the body raises, with the previous ``SIGPROF`` handler and
    ``ITIMER_PROF`` timer restored.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an instrumentation session is already active")
    session = InstrumentSession(label, trace=trace, sanitize=sanitize,
                                profile=profile)
    if session.host is not None:
        session.host.start()
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None
        if session.host is not None:
            session.host.stop()
