"""Central metric-name and span-category registry.

Every counter, accumulator and series name used by the simulated stack is
declared here once, with a one-line meaning.  Layers import the constants
instead of spelling string literals, so a typo is an ``ImportError`` at
import time rather than a silently-empty counter at analysis time, and
tools (the breakdown report, dashboards, tests) can enumerate what a run
may emit.

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
    "STATIC_SUPPRESSED", "STATIC_BASELINED", "STATIC_METRICS",
    # profiler (repro.obs.profile)
    "PROF_HOST_SAMPLES", "PROF_HOST_SELF_S",
    "PROF_COST_EVENTS", "PROF_COST_CYCLES", "PROF_COST_SWITCHES",
    "PROF_HOST_METRICS", "PROF_COST_METRICS",
    # registry
    "REGISTRY", "all_metric_names",
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
NET_BYTES = "net.bytes"
NET_LOOPBACK_MESSAGES = "net.loopback_messages"
NET_MESSAGES_LOST = "net.messages_lost"

# -- gasnet ---------------------------------------------------------------

GASNET_PUT = "gasnet.put"
GASNET_GET = "gasnet.get"
GASNET_BYTES = "gasnet.bytes"
GASNET_BYPASS = "gasnet.bypass"
GASNET_AM_ROUNDTRIPS = "gasnet.am_roundtrips"
GASNET_RETRANSMITS = "gasnet.retransmits"
GASNET_TIMEOUTS = "gasnet.timeouts"
GASNET_CORRUPT_DETECTED = "gasnet.corrupt_detected"
GASNET_ENDPOINT_FAILURES = "gasnet.endpoint_failures"
GASNET_WAITSYNC = "gasnet.waitsync"
GASNET_WAITSYNC_TIME = "gasnet.waitsync_time"

_GASNET_OPS = {"put": GASNET_PUT, "get": GASNET_GET}


def gasnet_op(direction: str) -> str:
    """Counter name for one ``upc_mem*`` direction ("put" | "get")."""
    return _GASNET_OPS[direction]


# -- fault injection ------------------------------------------------------

FAULTS_CRASHES = "faults.crashes"
FAULTS_CRASH_TIMES = "faults.crash_times"
FAULTS_DEGRADE_WINDOWS = "faults.degrade_windows"
FAULTS_MESSAGES_BLACKHOLED = "faults.messages_blackholed"
FAULTS_MESSAGES_LOST = "faults.messages_lost"
FAULTS_MESSAGES_CORRUPTED = "faults.messages_corrupted"
FAULTS_THREADS_KILLED = "faults.threads_killed"
FAULTS_LOCKS_RECOVERED = "faults.locks_recovered"
FAULTS_BARRIER_SEATS_DROPPED = "faults.barrier_seats_dropped"

# -- UTS ------------------------------------------------------------------

UTS_STEAL_LOCAL = "uts.steal_local"
UTS_STEAL_REMOTE = "uts.steal_remote"
UTS_NODES_STOLEN = "uts.nodes_stolen"
UTS_VICTIMS_BLACKLISTED = "uts.victims_blacklisted"
UTS_NODES_LOST_IN_TRANSIT = "uts.nodes_lost_in_transit"
UTS_NODES_LOST_ON_STACK = "uts.nodes_lost_on_stack"

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
# Tallied by repro.sim.engine only while a tracer is armed (the untraced
# hot path keeps its one-attribute-load guard) and emitted as counter
# samples at Tracer.finalize, so trace analytics can track the
# engine-speedup roadmap item run over run.

ENGINE_EVENTS_POPPED = "engine.events_popped"
ENGINE_HEAP_PEAK = "engine.heap_peak"
ENGINE_CONTEXT_SWITCHES = "engine.context_switches"
ENGINE_COSTED_CYCLES = "engine.costed_cycles"

#: Every engine metric, in emission order (the Simulator's tally keys).
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
STATIC_FINDINGS = "static.findings"
STATIC_SUPPRESSED = "static.suppressed_noqa"
STATIC_BASELINED = "static.baselined"

#: Every counter the static report emits, in emission order.
STATIC_METRICS = (
    STATIC_FILES,
    STATIC_FUNCTIONS,
    STATIC_FINDINGS,
    STATIC_SUPPRESSED,
    STATIC_BASELINED,
)

# -- profiler (repro.obs.profile) -----------------------------------------
#
# Both modes charge work to the layers of repro.obs.profile.layers.  The
# host sampler counts SIGPROF samples per layer and derives each layer's
# self seconds from its share of the samples (statistical: counts differ
# between runs); the simulated-cost profiler attributes the engine's
# costed cycles and context switches and is byte-deterministic end to end.

PROF_HOST_SAMPLES = "profile.host.samples"
PROF_HOST_SELF_S = "profile.host.self_s"
PROF_COST_EVENTS = "profile.cost.events"
PROF_COST_CYCLES = "profile.cost.cycles"
PROF_COST_SWITCHES = "profile.cost.switches"

#: Weight fields carried by every host-profile layer row.
PROF_HOST_METRICS = (PROF_HOST_SAMPLES, PROF_HOST_SELF_S)
#: Weight fields carried by every cost-profile (phase, layer) row.
PROF_COST_METRICS = (PROF_COST_EVENTS, PROF_COST_CYCLES, PROF_COST_SWITCHES)

# -- registry -------------------------------------------------------------

#: name -> (kind, meaning).  ``kind`` is how the StatsCollector stores it.
REGISTRY = {
    NET_MESSAGES: ("count", "messages injected into the fabric"),
    NET_BYTES: ("sum", "payload bytes injected into the fabric"),
    NET_LOOPBACK_MESSAGES: ("count", "intra-node messages through the NIC loopback"),
    NET_MESSAGES_LOST: ("count", "messages that became black holes"),
    GASNET_PUT: ("count", "upc_memput-shaped operations"),
    GASNET_GET: ("count", "upc_memget-shaped operations"),
    GASNET_BYTES: ("sum", "bytes moved by gasnet put/get"),
    GASNET_BYPASS: ("count", "put/get served by the shared-memory fast path"),
    GASNET_AM_ROUNDTRIPS: ("count", "active-message request/reply rounds"),
    GASNET_RETRANSMITS: ("count", "op attempts after the first (retries)"),
    GASNET_TIMEOUTS: ("count", "op attempts that hit their timeout"),
    GASNET_CORRUPT_DETECTED: ("count", "deliveries NAKed by integrity check"),
    GASNET_ENDPOINT_FAILURES: ("count", "ops that exhausted their retry budget"),
    GASNET_WAITSYNC: ("count", "non-blocking handle synchronizations"),
    GASNET_WAITSYNC_TIME: ("sum", "seconds blocked in handle.wait()"),
    FAULTS_CRASHES: ("count", "node fail-stops fired"),
    FAULTS_CRASH_TIMES: ("series", "simulated times of node crashes"),
    FAULTS_DEGRADE_WINDOWS: ("count", "scheduled NIC degradation windows"),
    FAULTS_MESSAGES_BLACKHOLED: ("count", "messages touching a dead node"),
    FAULTS_MESSAGES_LOST: ("count", "messages dropped by a loss rule"),
    FAULTS_MESSAGES_CORRUPTED: ("count", "messages mangled by a corruption rule"),
    FAULTS_THREADS_KILLED: ("count", "UPC threads killed by node crashes"),
    FAULTS_LOCKS_RECOVERED: ("count", "locks reclaimed from dead holders"),
    FAULTS_BARRIER_SEATS_DROPPED: ("count", "barrier seats dropped for the dead"),
    UTS_STEAL_LOCAL: ("count", "successful steals from castable victims"),
    UTS_STEAL_REMOTE: ("count", "successful steals across the network"),
    UTS_NODES_STOLEN: ("count", "tree nodes moved by steals"),
    UTS_VICTIMS_BLACKLISTED: ("count", "victims declared unreachable"),
    UTS_NODES_LOST_IN_TRANSIT: ("count", "stolen nodes lost to a dying victim"),
    UTS_NODES_LOST_ON_STACK: ("count", "queued nodes lost to a crash"),
    GUPS_BUCKET_FLUSHES: ("count", "RandomAccess bucket flushes"),
    GUPS_REMOTE_UPDATES: ("count", "RandomAccess remote table updates"),
    MPI_SENDS: ("count", "MPI point-to-point sends"),
    MPI_RECVS: ("count", "MPI point-to-point receives"),
    ENGINE_EVENTS_POPPED: ("count", "engine: heap events executed"),
    ENGINE_HEAP_PEAK: ("max", "engine: peak pending-event heap size"),
    ENGINE_CONTEXT_SWITCHES: ("count", "engine: generator resumes (process steps)"),
    ENGINE_COSTED_CYCLES: ("count", "engine: nonzero delays charged (cost yields)"),
    SAN_RACE_FINDINGS: ("count", "sanitizer: data races detected"),
    SAN_PRIVATIZATION_FINDINGS: ("count", "sanitizer: illegal privatized accesses"),
    SAN_COLLECTIVE_FINDINGS: ("count", "sanitizer: collective/barrier mismatches"),
    STATIC_FILES: ("count", "static analyzer: files scanned"),
    STATIC_FUNCTIONS: ("count", "static analyzer: functions analyzed"),
    STATIC_FINDINGS: ("count", "static analyzer: findings after noqa"),
    STATIC_SUPPRESSED: ("count", "static analyzer: findings suppressed by noqa"),
    STATIC_BASELINED: ("count", "static analyzer: findings matched by the baseline"),
    PROF_HOST_SAMPLES: ("count", "profiler: host CPU samples owned by a layer"),
    PROF_HOST_SELF_S: ("sum", "profiler: host CPU seconds owned by a layer"),
    PROF_COST_EVENTS: ("count", "profiler: engine events scheduled by a layer"),
    PROF_COST_CYCLES: ("count", "profiler: costed cycles charged by a layer"),
    PROF_COST_SWITCHES: ("count", "profiler: context switches into a layer"),
}


def all_metric_names() -> tuple:
    """Every registered metric name, sorted (for tests and tooling)."""
    return tuple(sorted(REGISTRY))
