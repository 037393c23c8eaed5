"""Deterministic discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel: UPC threads, sub-threads,
network transfers and memory traffic are all simulated processes that
advance a single virtual clock.  The kernel is single-threaded and orders
events by ``(time, sequence)``, so a seeded run is bit-for-bit
reproducible.

The public surface mirrors the classic process-based DES idiom:

>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.delay(1.5)
...     return "done at %.1f" % sim.now
>>> proc = sim.spawn(hello(sim))
>>> sim.run()
1.5
>>> proc.result
'done at 1.5'
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Awaitable,
    Delay,
    Event,
    Process,
    ProcessFailure,
    SimulationError,
    Simulator,
)
from repro.sim.resources import Resource, SharedBandwidth, Store
from repro.sim.sync import Condition, SimBarrier
from repro.sim.rng import SplittableRNG, splitmix64
from repro.sim.trace import StatsCollector

__all__ = [
    "AllOf",
    "AnyOf",
    "Awaitable",
    "Condition",
    "Delay",
    "Event",
    "Process",
    "ProcessFailure",
    "Resource",
    "SharedBandwidth",
    "SimBarrier",
    "SimulationError",
    "Simulator",
    "SplittableRNG",
    "StatsCollector",
    "Store",
    "splitmix64",
]
