"""Simulated-time tracing: spans, instants, counter samples.

A :class:`Tracer` records what one simulated run *did* on a set of named
**tracks** — one per simulated UPC thread, one per NIC pipe, one per
machine node — in simulated time.  Layers emit through narrow hook
methods (``begin``/``end``/``instant``/``counter``/``comm``, and
``spanned``, which wraps a generator body in one span).  Every hook
site guards with ``if sim.tracer.enabled:``; an untraced simulator holds
the engine's shared off-sink there, so an untraced run pays one
attribute load and a predicted branch per hook site.

Determinism contract: a tracer's contents are a pure function of the
simulation (seed, plan, configuration).  Nothing here reads wall clocks,
object ids or hash order; spans and events are stored in emission order,
which the deterministic event loop fixes.  Two traced runs with the same
seed therefore export byte-identical JSON — the same discipline as
:meth:`repro.sim.trace.StatsCollector.snapshot`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.obs import names

__all__ = [
    "Span",
    "Instant",
    "Sample",
    "Tracer",
    "thread_track",
    "link_track",
    "node_track",
    "META_TRACK",
]

TrackKey = Tuple[str, Any]

#: Track for engine-level events (kills, failures, quiescence).
META_TRACK: TrackKey = ("meta", "sim")


def thread_track(thread_id: int) -> TrackKey:
    """Track key for one simulated UPC thread / MPI rank."""
    return ("thread", thread_id)


def link_track(name: str) -> TrackKey:
    """Track key for one NIC pipe (``nic.tx0``, ``nic.rx1``, ``nic.loop0``)."""
    return ("link", name)


def node_track(node_index: int) -> TrackKey:
    """Track key for one machine node (crash / degradation windows)."""
    return ("node", node_index)


class Span:
    """One begin/end interval on a track, in simulated seconds."""

    __slots__ = ("track", "name", "category", "t0", "t1", "args", "seq")

    def __init__(self, track: TrackKey, name: str, category: str,
                 t0: float, seq: int, args: Optional[dict] = None):
        self.track = track
        self.name = name
        self.category = category
        self.t0 = t0
        self.t1: Optional[float] = None
        self.args = args
        self.seq = seq

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.track}, {self.name!r}, {self.category}, "
                f"[{self.t0:g}, {self.t1 if self.t1 is None else round(self.t1, 12)}])")


class Instant:
    """A point event on a track."""

    __slots__ = ("track", "name", "category", "t", "args", "seq")

    def __init__(self, track: TrackKey, name: str, category: str,
                 t: float, seq: int, args: Optional[dict] = None):
        self.track = track
        self.name = name
        self.category = category
        self.t = t
        self.args = args
        self.seq = seq


class Sample:
    """One counter sample (``value`` of ``name`` on ``track`` at ``t``)."""

    __slots__ = ("track", "name", "t", "value", "seq")

    def __init__(self, track: TrackKey, name: str, t: float, value: float, seq: int):
        self.track = track
        self.name = name
        self.t = t
        self.value = value
        self.seq = seq


class Tracer:
    """Records spans, instants and counter samples in simulated time."""

    enabled = True

    def __init__(self, sim, label: str = "run", run_index: int = 1):
        self.sim = sim
        self.label = label
        self.run_index = run_index
        #: track key -> display name, in declaration order.
        self.tracks: Dict[TrackKey, str] = {}
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.samples: List[Sample] = []
        #: (src_node, dst_node) -> [messages, bytes]
        self._comm: Dict[Tuple[int, int], List[float]] = {}
        #: engine self-measurement (events popped, heap peak, context
        #: switches, costed cycles), copied off the simulator at
        #: :meth:`finalize` so it survives detaching ``sim`` for pickling.
        self.engine_metrics: Dict[str, int] = {}
        self.t_end: Optional[float] = None
        self._seq = 0

    # -- infrastructure ---------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _ensure_track(self, track: TrackKey) -> None:
        if track not in self.tracks:
            kind, ident = track
            self.tracks[track] = (
                f"{kind} {ident}" if kind in ("thread", "node") else str(ident)
            )

    def declare_track(self, track: TrackKey, name: Optional[str] = None) -> None:
        """Pre-register a track so it exports even when it stays empty."""
        if name is not None:
            self.tracks[track] = name
        else:
            self._ensure_track(track)

    # -- emission ---------------------------------------------------------

    def begin(self, track: TrackKey, name: str, category: str = names.CAT_OTHER,
              args: Optional[dict] = None) -> int:
        """Open a span; returns its id for :meth:`end`."""
        self._ensure_track(track)
        span = Span(track, name, category, self.sim.now, self._next_seq(), args)
        self.spans.append(span)
        return len(self.spans) - 1

    def end(self, span_id: int, args: Optional[dict] = None) -> None:
        """Close the span opened as ``span_id`` at the current time."""
        span = self.spans[span_id]
        if span.t1 is not None:
            if self.t_end is not None:
                # Already closed by finalize(); the owning generator is
                # being torn down after the run (e.g. GC after a raised
                # failure) and its finally-clause end() is redundant.
                return
            raise ValueError(f"span {span.name!r} already ended")
        span.t1 = self.sim.now
        if args:
            span.args = {**(span.args or {}), **args}

    def spanned(self, body: Generator, track: TrackKey, name: str,
                category: str = names.CAT_OTHER,
                args: Optional[dict] = None) -> Generator:
        """Run the simulated generator ``body`` inside one span.

        The span opens at the first step and closes however ``body``
        ends: on return (whose value this returns), on an exception, or
        at the instant its process is killed.  A hook site builds its
        body once and wraps it only when tracing, so traced and untraced
        runs execute the same code.
        """
        span = self.begin(track, name, category, args)
        try:
            return (yield from body)
        finally:
            self.end(span)

    def instant(self, track: TrackKey, name: str, category: str = names.CAT_OTHER,
                args: Optional[dict] = None) -> None:
        self._ensure_track(track)
        self.instants.append(
            Instant(track, name, category, self.sim.now, self._next_seq(), args)
        )

    def counter(self, track: TrackKey, name: str, value: float) -> None:
        self._ensure_track(track)
        self.samples.append(
            Sample(track, name, self.sim.now, value, self._next_seq())
        )

    def comm(self, src_node: int, dst_node: int, nbytes: float) -> None:
        """Account one message for the src→dst communication matrix."""
        cell = self._comm.get((src_node, dst_node))
        if cell is None:
            cell = self._comm[(src_node, dst_node)] = [0, 0.0]
        cell[0] += 1
        cell[1] += nbytes

    # -- engine hook points ----------------------------------------------

    def process_killed(self, process) -> None:
        self.instant(META_TRACK, f"kill {process.name}", names.CAT_FAULT)

    def process_failed(self, process, exc) -> None:
        self.instant(
            META_TRACK, f"fail {process.name}", names.CAT_FAULT,
            args={"error": type(exc).__name__},
        )

    def quiescence(self, processes) -> None:
        self.instant(
            META_TRACK, "quiescence", names.CAT_FAULT,
            args={"stalled": len(processes),
                  "names": [p.name for p in processes[:8]]},
        )

    # -- finishing --------------------------------------------------------

    def finalize(self, t_end: float) -> None:
        """Close open spans at ``t_end`` and fix the run's end time.

        Also copies the simulator's engine counts into
        :attr:`engine_metrics` and publishes each as a counter sample on
        the meta track, so exported traces and offline analytics both
        see them.
        """
        first = self.t_end is None
        if self.t_end is None or t_end > self.t_end:
            self.t_end = t_end
        for span in self.spans:
            if span.t1 is None:
                span.t1 = t_end
        if first and self.sim is not None:
            self.engine_metrics = self.sim.engine_counts()
            for name in names.ENGINE_METRICS:
                self.counter(META_TRACK, name, self.engine_metrics[name])

    @property
    def end_time(self) -> float:
        """The run's end: finalize time, else the latest event seen."""
        if self.t_end is not None:
            return self.t_end
        ends = [s.t1 for s in self.spans if s.t1 is not None]
        ends += [i.t for i in self.instants] + [s.t for s in self.samples]
        return max(ends, default=0.0)

    # -- derived views ----------------------------------------------------

    def comm_matrix(self) -> List[dict]:
        """``src→dst`` rows (messages, bytes), sorted by node pair."""
        return [
            {"src_node": s, "dst_node": d,
             "messages": int(self._comm[(s, d)][0]),
             "bytes": self._comm[(s, d)][1]}
            for (s, d) in sorted(self._comm)
        ]

    def spans_on(self, track: TrackKey) -> List[Span]:
        return [s for s in self.spans if s.track == track]

    def thread_tracks(self) -> List[TrackKey]:
        return [t for t in self.tracks if t[0] == "thread"]

    def link_tracks(self) -> List[TrackKey]:
        return [t for t in self.tracks if t[0] == "link"]
