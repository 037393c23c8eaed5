"""Central metric names and span categories.

Every counter, accumulator and series name used by the simulated stack is
declared here once; a ``#:`` comment gives its meaning where the name
alone does not.  Layers import the constants instead of spelling string
literals, so a typo is an ``ImportError`` at import time rather than a
silently-empty counter at analysis time.

Span *categories* drive the critical-path attribution in
:mod:`repro.obs.critical_path`: only ``ATTRIBUTED_CATEGORIES`` take part
in the compute/network/barrier/steal breakdown; everything else (phase
markers, lock holds) is visible in the trace but transparent to
attribution.
"""

from __future__ import annotations

__all__ = [
    # categories
    "CAT_COMPUTE", "CAT_NETWORK", "CAT_BARRIER", "CAT_STEAL",
    "CAT_PHASE", "CAT_LOCK", "CAT_FAULT", "CAT_OTHER",
    "ATTRIBUTED_CATEGORIES", "CATEGORY_PRIORITY",
    # network fabric
    "NET_MESSAGES", "NET_BYTES", "NET_LOOPBACK_MESSAGES", "NET_MESSAGES_LOST",
    # gasnet
    "GASNET_PUT", "GASNET_GET", "GASNET_BYTES", "GASNET_BYPASS",
    "GASNET_AM_ROUNDTRIPS", "GASNET_RETRANSMITS", "GASNET_TIMEOUTS",
    "GASNET_CORRUPT_DETECTED", "GASNET_ENDPOINT_FAILURES",
    "GASNET_WAITSYNC", "GASNET_WAITSYNC_TIME",
    "gasnet_op",
    # faults
    "FAULTS_CRASHES", "FAULTS_CRASH_TIMES", "FAULTS_DEGRADE_WINDOWS",
    "FAULTS_MESSAGES_BLACKHOLED", "FAULTS_MESSAGES_LOST",
    "FAULTS_MESSAGES_CORRUPTED", "FAULTS_THREADS_KILLED",
    "FAULTS_LOCKS_RECOVERED", "FAULTS_BARRIER_SEATS_DROPPED",
    # uts
    "UTS_STEAL_LOCAL", "UTS_STEAL_REMOTE", "UTS_NODES_STOLEN",
    "UTS_VICTIMS_BLACKLISTED", "UTS_NODES_LOST_IN_TRANSIT",
    "UTS_NODES_LOST_ON_STACK",
    "uts_steal",
    # other apps / mpi
    "GUPS_BUCKET_FLUSHES", "GUPS_REMOTE_UPDATES", "MPI_SENDS", "MPI_RECVS",
    # simulation engine (repro.sim.engine, emitted under the tracer)
    "ENGINE_EVENTS_POPPED", "ENGINE_HEAP_PEAK", "ENGINE_CONTEXT_SWITCHES",
    "ENGINE_COSTED_CYCLES", "ENGINE_METRICS",
    # sanitizer (repro.analyze)
    "SAN_RACE_FINDINGS", "SAN_PRIVATIZATION_FINDINGS", "SAN_COLLECTIVE_FINDINGS",
    # static analyzer (repro.analyze.static)
    "STATIC_FILES", "STATIC_FUNCTIONS", "STATIC_FINDINGS",
    "STATIC_SUPPRESSED", "STATIC_BASELINED",
    # profiler (repro.obs.profile)
    "PROF_HOST_SAMPLES", "PROF_HOST_SELF_S",
    "PROF_COST_EVENTS", "PROF_COST_CYCLES", "PROF_COST_SWITCHES",
    "PROF_HOST_METRICS", "PROF_COST_METRICS",
]

# -- span categories ------------------------------------------------------

CAT_COMPUTE = "compute"   #: CPU work (also the attribution catch-all)
CAT_NETWORK = "network"   #: a network op (put/get/AM, link transfer)
CAT_BARRIER = "barrier"   #: blocked in (or paying for) a barrier
CAT_STEAL = "steal"       #: UTS work-stealing machinery
CAT_PHASE = "phase"       #: app phase marker (transparent to attribution)
CAT_LOCK = "lock"         #: lock acquire/hold (transparent to attribution)
CAT_FAULT = "fault"       #: injected-fault marker events
CAT_OTHER = "other"       #: uncategorized

#: Categories that take part in the time-attribution breakdown, in
#: ascending priority: when spans overlap, the highest-priority active
#: category claims the time (a network get inside a steal is steal time).
ATTRIBUTED_CATEGORIES = (CAT_NETWORK, CAT_BARRIER, CAT_STEAL)
CATEGORY_PRIORITY = {c: i + 1 for i, c in enumerate(ATTRIBUTED_CATEGORIES)}

#: The exhaustive breakdown: every simulated instant lands in exactly one.
BREAKDOWN_CATEGORIES = (CAT_COMPUTE, CAT_NETWORK, CAT_BARRIER, CAT_STEAL)

# -- network fabric -------------------------------------------------------

NET_MESSAGES = "net.messages"
NET_BYTES = "net.bytes"  #: payload bytes injected into the fabric
NET_LOOPBACK_MESSAGES = "net.loopback_messages"  #: intra-node, via the NIC loopback
NET_MESSAGES_LOST = "net.messages_lost"  #: messages that became black holes

# -- gasnet ---------------------------------------------------------------

GASNET_PUT = "gasnet.put"  #: upc_memput-shaped operations
GASNET_GET = "gasnet.get"  #: upc_memget-shaped operations
GASNET_BYTES = "gasnet.bytes"
GASNET_BYPASS = "gasnet.bypass"  #: put/get served by the shared-memory fast path
GASNET_AM_ROUNDTRIPS = "gasnet.am_roundtrips"
GASNET_RETRANSMITS = "gasnet.retransmits"  #: op attempts after the first
GASNET_TIMEOUTS = "gasnet.timeouts"
GASNET_CORRUPT_DETECTED = "gasnet.corrupt_detected"  #: deliveries NAKed by integrity check
GASNET_ENDPOINT_FAILURES = "gasnet.endpoint_failures"  #: ops out of retries
GASNET_WAITSYNC = "gasnet.waitsync"  #: non-blocking handle synchronizations
GASNET_WAITSYNC_TIME = "gasnet.waitsync_time"  #: seconds blocked in Handle.wait()

_GASNET_OPS = {"put": GASNET_PUT, "get": GASNET_GET}


def gasnet_op(direction: str) -> str:
    """Counter name for one ``upc_mem*`` direction ("put" | "get")."""
    return _GASNET_OPS[direction]


# -- fault injection ------------------------------------------------------

FAULTS_CRASHES = "faults.crashes"  #: node fail-stops fired
FAULTS_CRASH_TIMES = "faults.crash_times"  #: series of node-crash times
FAULTS_DEGRADE_WINDOWS = "faults.degrade_windows"
FAULTS_MESSAGES_BLACKHOLED = "faults.messages_blackholed"  #: touching a dead node
FAULTS_MESSAGES_LOST = "faults.messages_lost"  #: dropped by a loss rule
FAULTS_MESSAGES_CORRUPTED = "faults.messages_corrupted"  #: by a corruption rule
FAULTS_THREADS_KILLED = "faults.threads_killed"
FAULTS_LOCKS_RECOVERED = "faults.locks_recovered"
FAULTS_BARRIER_SEATS_DROPPED = "faults.barrier_seats_dropped"

# -- UTS ------------------------------------------------------------------

UTS_STEAL_LOCAL = "uts.steal_local"  #: successful steals from castable victims
UTS_STEAL_REMOTE = "uts.steal_remote"  #: successful steals across the network
UTS_NODES_STOLEN = "uts.nodes_stolen"  #: tree nodes moved by steals
UTS_VICTIMS_BLACKLISTED = "uts.victims_blacklisted"  #: declared unreachable
UTS_NODES_LOST_IN_TRANSIT = "uts.nodes_lost_in_transit"
UTS_NODES_LOST_ON_STACK = "uts.nodes_lost_on_stack"  #: queued nodes lost to a crash

_UTS_STEALS = {"local": UTS_STEAL_LOCAL, "remote": UTS_STEAL_REMOTE}


def uts_steal(kind: str) -> str:
    """Counter name for one steal locality class ("local" | "remote")."""
    return _UTS_STEALS[kind]


# -- other apps / MPI -----------------------------------------------------

GUPS_BUCKET_FLUSHES = "gups.bucket_flushes"
GUPS_REMOTE_UPDATES = "gups.remote_updates"
MPI_SENDS = "mpi.sends"
MPI_RECVS = "mpi.recvs"

# -- simulation engine ----------------------------------------------------
#
# Counted by repro.sim.engine on every run (Simulator.engine_counts, the
# ProgramResult's ``engine``) except the heap peak, which only a traced
# run tracks; Tracer.finalize emits all four as counter samples, so trace
# analytics can track the engine's work run over run.

ENGINE_EVENTS_POPPED = "engine.events_popped"  #: heap events executed
ENGINE_HEAP_PEAK = "engine.heap_peak"  #: peak pending-event heap size
ENGINE_CONTEXT_SWITCHES = "engine.context_switches"  #: generator resumes
ENGINE_COSTED_CYCLES = "engine.costed_cycles"  #: pushes at a future instant

#: Every engine metric, in emission order (``Simulator.engine_counts`` keys).
ENGINE_METRICS = (
    ENGINE_EVENTS_POPPED,
    ENGINE_HEAP_PEAK,
    ENGINE_CONTEXT_SWITCHES,
    ENGINE_COSTED_CYCLES,
)

# -- sanitizer (repro.analyze) --------------------------------------------

SAN_RACE_FINDINGS = "sanitizer.race_findings"
SAN_PRIVATIZATION_FINDINGS = "sanitizer.privatization_findings"
SAN_COLLECTIVE_FINDINGS = "sanitizer.collective_findings"

# -- static analyzer (repro.analyze.static) -------------------------------
#
# Counters carried by the canonical JSON report of the static PGAS
# analyzer; like every other emitter it spells registered names, so the
# report schema is enumerable and typo-proof.

STATIC_FILES = "static.files_scanned"
STATIC_FUNCTIONS = "static.functions_analyzed"
STATIC_FINDINGS = "static.findings"  #: findings after noqa
STATIC_SUPPRESSED = "static.suppressed_noqa"
STATIC_BASELINED = "static.baselined"  #: findings matched by the baseline

# -- profiler (repro.obs.profile) -----------------------------------------
#
# Both modes charge work to the layers of repro.obs.profile.layers.  The
# host sampler counts SIGPROF samples per layer and derives each layer's
# self seconds from its share of the samples (statistical: counts differ
# between runs); the simulated-cost profiler attributes the engine's
# costed cycles and context switches and is byte-deterministic end to end.

PROF_HOST_SAMPLES = "profile.host.samples"
PROF_HOST_SELF_S = "profile.host.self_s"
PROF_COST_EVENTS = "profile.cost.events"  #: engine events a layer scheduled
PROF_COST_CYCLES = "profile.cost.cycles"  #: costed cycles a layer charged
PROF_COST_SWITCHES = "profile.cost.switches"  #: context switches into a layer

#: Weight fields carried by every host-profile layer row.
PROF_HOST_METRICS = (PROF_HOST_SAMPLES, PROF_HOST_SELF_S)
#: Weight fields carried by every cost-profile (phase, layer) row.
PROF_COST_METRICS = (PROF_COST_EVENTS, PROF_COST_CYCLES, PROF_COST_SWITCHES)
