"""Simulated-cost profiler: costed cycles and switches per layer and phase.

The engine already self-measures (events popped, costed cycles, context
switches — §12), but those tallies are campaign-level scalars.  This
profiler answers *where*: every scheduled event is attributed to the
layer (:mod:`repro.obs.profile.layers`) that scheduled it, every
coroutine switch to the layer of the generator being resumed, and both
are bucketed by the experiment phase open at that simulated instant
(the same phase timers §8's tracer spans come from).

Attribution of a scheduled event walks the host stack *outward from the
engine*: ``Delay.__init__`` → ``fabric.transfer`` means the network, not
the engine, pays for that costed cycle.  The walk is bounded, its
lookups are cached per file, and every tally is a pure function of the
simulation — a cost profile is **byte-deterministic** across runs,
executors and job counts, unlike the sampled host profile it
complements.

Hook discipline matches the tracer and sanitizer: ``Simulator.profiler``
starts as the engine's shared off-sink and hot paths guard with
``if profiler.enabled:``, so unprofiled runs pay one attribute load and
a predicted branch per site.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from repro.obs.profile.layers import HOST_IMPORT, HOST_OTHER, file_layer

__all__ = ["CostProfiler", "NO_PHASE"]

#: Phase bucket for work charged outside any open phase timer.
NO_PHASE = "(no phase)"

#: How many host frames the scheduling-layer walk inspects before giving
#: up and attributing to the callback itself.
_WALK_LIMIT = 16

#: Layers that never *own* a scheduled event: the engine and the
#: profiler are plumbing, and import frames and code outside the package
#: are transparent, so the walk continues outward past them.
_PLUMBING = frozenset({"sim.engine", "obs", HOST_IMPORT, None})


def _code_layer(code) -> str:
    """The layer of a code object, or host.other for none or a foreign one."""
    if code is None:
        return HOST_OTHER
    return file_layer(code.co_filename) or HOST_OTHER


class CostProfiler:
    """Accumulates (phase, layer) → [events, costed cycles, switches]."""

    enabled = True

    def __init__(self) -> None:
        #: (phase, layer) -> [events scheduled, costed cycles, switches]
        self.tallies: Dict[Tuple[str, str], List[int]] = {}
        self._phases: List[str] = []

    # -- phase bookkeeping (fed by StatsCollector phase timers) -----------

    def phase_started(self, name: str) -> None:
        self._phases.append(name)

    def phase_ended(self, name: str) -> None:
        # Phases from parallel threads interleave; remove the most recent
        # matching entry rather than assuming strict stack discipline.
        for i in range(len(self._phases) - 1, -1, -1):
            if self._phases[i] == name:
                del self._phases[i]
                return

    @property
    def current_phase(self) -> str:
        return self._phases[-1] if self._phases else NO_PHASE

    # -- attribution -------------------------------------------------------

    def _cell(self, layer: str) -> List[int]:
        key = (self.current_phase, layer)
        cell = self.tallies.get(key)
        if cell is None:
            cell = self.tallies[key] = [0, 0, 0]
        return cell

    def _scheduling_layer(self, fn) -> str:
        """The layer that scheduled an event: first non-plumbing caller.

        Walks outward from the engine's push site (``schedule_at``,
        ``schedule_after`` or a process resume); a Delay created by
        the network attributes to the network, one created directly by
        app code to the app.  Falls back to the callback's own layer when
        the whole (bounded) walk is plumbing — e.g. engine-internal
        wakeups, whose heap entries hold bound methods such as
        ``Process._step``; a C callable has no code and owns nothing.
        """
        frame = sys._getframe(3)  # hook <- _tally_push <- push site
        for _ in range(_WALK_LIMIT):
            if frame is None:
                break
            layer = file_layer(frame.f_code.co_filename)
            if layer not in _PLUMBING:
                return layer
            frame = frame.f_back
        return _code_layer(getattr(getattr(fn, "__func__", fn), "__code__", None))

    def event_scheduled(self, fn, costed: bool) -> None:
        cell = self._cell(self._scheduling_layer(fn))
        cell[0] += 1
        if costed:
            cell[1] += 1

    def context_switch(self, process) -> None:
        code = getattr(getattr(process, "gen", None), "gi_code", None)
        self._cell(_code_layer(code))[2] += 1
