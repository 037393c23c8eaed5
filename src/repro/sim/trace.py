"""Measurement utilities: counters, accumulators and phase timers.

Every experiment in the harness reads its numbers out of a
:class:`StatsCollector`; keeping measurement in one place means apps never
grow ad-hoc globals and runs stay comparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import names as metric_names
from repro.obs.tracer import META_TRACK, thread_track
from repro.sim.engine import Simulator

__all__ = ["StatsCollector"]


class StatsCollector:
    """Named counters, value accumulators and per-thread timers.

    * ``count(name)`` — increment an integer counter.
    * ``add(name, v)`` — accumulate a float (e.g. bytes moved).
    * ``record(name, v)`` — append to a value series (for distributions).
    * ``timer_enter``/``timer_exit`` — accumulate per-(name, key) elapsed
      simulated time.  Simulated processes are generators, and a ``with``
      block cannot span a ``yield`` safely on failure, so apps call the
      pair explicitly around the simulated work::

          stats.timer_enter("fft1d", mythread)
          yield ...                 # simulated work
          stats.timer_exit("fft1d", mythread)
    """

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim
        self.counters: Dict[str, int] = {}
        self.accumulators: Dict[str, float] = {}
        self.series: Dict[str, List[float]] = {}
        self.timers: Dict[tuple, float] = {}
        self._open_timers: Dict[tuple, float] = {}
        self._open_spans: Dict[tuple, int] = {}

    # -- counters -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add(self, name: str, value: float) -> None:
        self.accumulators[name] = self.accumulators.get(name, 0.0) + value

    def record(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def get_count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def get_sum(self, name: str) -> float:
        return self.accumulators.get(name, 0.0)

    # -- timers ---------------------------------------------------------

    def timer_enter(self, name: str, key=None) -> None:
        if self.sim is None:
            raise ValueError("StatsCollector needs a Simulator for timers")
        tk = (name, key)
        if tk in self._open_timers:
            raise ValueError(f"timer {tk!r} already open")
        self._open_timers[tk] = self.sim.now
        if self.sim.profiler.enabled:
            self.sim.profiler.phase_started(name)
        tracer = self.sim.tracer
        if tracer.enabled:
            track = thread_track(key) if isinstance(key, int) else META_TRACK
            self._open_spans[tk] = tracer.begin(
                track, name, metric_names.CAT_PHASE
            )

    def timer_exit(self, name: str, key=None) -> float:
        tk = (name, key)
        start = self._open_timers.pop(tk, None)
        if start is None:
            raise ValueError(f"timer {tk!r} was not opened")
        elapsed = self.sim.now - start
        self.timers[tk] = self.timers.get(tk, 0.0) + elapsed
        if self.sim.profiler.enabled:
            self.sim.profiler.phase_ended(name)
        span = self._open_spans.pop(tk, None)
        if span is not None:
            self.sim.tracer.end(span)
        return elapsed

    def open_timers(self) -> List[tuple]:
        """In-flight ``(name, key)`` timer keys, in canonical order.

        A non-empty result at end of run means a phase died without
        stopping its timer — its elapsed time is missing from
        :attr:`timers`, so totals read from this collector are wrong.
        """
        return sorted(self._open_timers, key=repr)

    def timer_total(self, name: str, key=None) -> float:
        """Total time for (name, key); with key=Ellipsis, sum over all keys."""
        if key is Ellipsis:
            return sum(v for (n, _k), v in self.timers.items() if n == name)
        return self.timers.get((name, key), 0.0)

    def timer_max(self, name: str) -> float:
        """Max over keys — the critical-path view of a parallel phase."""
        values = [v for (n, _k), v in self.timers.items() if n == name]
        return max(values) if values else 0.0

    def snapshot(self) -> str:
        """Canonical text serialization of every counter/sum/series/timer.

        Deterministic (keys sorted, floats via ``repr``) so two runs can
        be compared byte-for-byte — the fault-injection determinism tests
        assert equality of snapshots across seeded runs.

        Raises :class:`ValueError` while timers are still open: their
        elapsed time is not in :attr:`timers` yet, so a snapshot taken
        now would silently under-report the leaked phases.
        """
        leaked = self.open_timers()
        if leaked:
            raise ValueError(
                "snapshot with in-flight phase timers (a phase died "
                f"without stopping its timer?): {leaked!r}"
            )
        lines = []
        for k in sorted(self.counters):
            lines.append(f"count {k} {self.counters[k]}")
        for k in sorted(self.accumulators):
            lines.append(f"sum {k} {self.accumulators[k]!r}")
        for k in sorted(self.series):
            lines.append(f"series {k} {self.series[k]!r}")
        for tk in sorted(self.timers, key=repr):
            lines.append(f"timer {tk!r} {self.timers[tk]!r}")
        return "\n".join(lines)
