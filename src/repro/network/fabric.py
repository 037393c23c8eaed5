"""The simulated interconnect: endpoints, connections, NIC pipes.

An :class:`Endpoint` is one communication client (a UPC thread / MPI
rank).  Endpoints on the same node that share a ``connection_key`` (all
ranks of one multi-threaded process) share a single :class:`Connection`;
process-per-rank backends give every endpoint its own.  A connection
serializes message *injection* (``gap + nbytes/connection_bw`` held under
a mutex), which is the mechanism behind the thesis's observation that
"latency for pthreaded messaging appears serialized" (§4.3.1) while
processes extract more aggregate bandwidth from extra connections.

Data in flight then drains through the sender's tx and receiver's rx NIC
pipes (processor-shared per node) after the one-way wire latency.
Intra-node messages sent through the network API — the no-PSHM baseline —
skip the wire and drain through the node's loopback pipe instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.errors import MessageCorruptedError, NetworkError
from repro.machine.topology import MachineTopology
from repro.network.model import NetworkParams
from repro.obs import names
from repro.obs.tracer import link_track, node_track
from repro.sim import Resource, SharedBandwidth, Simulator, StatsCollector

__all__ = ["Connection", "Endpoint", "Fabric"]


@dataclass
class Connection:
    """One network connection (queue pair): serialized injection."""

    key: tuple
    injector: Resource
    messages: int = 0
    bytes: float = 0.0
    active: int = 0  #: messages currently in flight on this connection


@dataclass(frozen=True)
class Endpoint:
    """A registered communication client."""

    endpoint_id: int
    node_index: int
    connection: Connection


class _NicPipe(SharedBandwidth):
    """A NIC direction whose aggregate rate degrades with the number of
    simultaneously active connections on its node (QP thrashing; see
    :meth:`NetworkParams.nic_efficiency`)."""

    def __init__(self, sim: Simulator, fabric: "Fabric", node: int, name: str):
        super().__init__(
            sim, fabric.params.nic_bw, name=name, fifo=fabric.params.fifo_links
        )
        self._fabric = fabric
        self._node = node

    def _aggregate_rate(self, n: int) -> float:
        active = self._fabric.active_connections_on_node(self._node)
        rate = self.rate * self._fabric.params.nic_efficiency(active)
        return rate * self._fabric.degrade_factor(self._node)


class Fabric:
    """All NICs, connections and wires of one cluster."""

    def __init__(
        self,
        sim: Simulator,
        topo: MachineTopology,
        params: NetworkParams,
        stats: Optional[StatsCollector] = None,
    ):
        self.sim = sim
        self.topo = topo
        self.params = params
        self.stats = stats if stats is not None else StatsCollector(sim)
        self._active_conns: Dict[int, int] = {n.index: 0 for n in topo.nodes}
        self.nic_tx = [
            _NicPipe(sim, self, n.index, name=f"nic.tx{n.index}")
            for n in topo.nodes
        ]
        self.nic_rx = [
            _NicPipe(sim, self, n.index, name=f"nic.rx{n.index}")
            for n in topo.nodes
        ]
        self.loopback = [
            SharedBandwidth(sim, params.loopback_bw, name=f"nic.loop{n.index}")
            for n in topo.nodes
        ]
        self._connections: Dict[tuple, Connection] = {}
        self._endpoints: Dict[int, Endpoint] = {}
        #: Optional :class:`~repro.faults.FaultInjector`; None = reliable.
        self.injector = None
        tracer = sim.tracer
        if tracer.enabled:
            for pipe in (*self.nic_tx, *self.nic_rx, *self.loopback):
                tracer.declare_track(link_track(pipe.name))

    # -- fault injection --------------------------------------------------

    def set_injector(self, injector) -> None:
        """Attach a fault injector; every message now consults it."""
        if self.injector is not None and self.injector is not injector:
            raise NetworkError("fabric already has a fault injector")
        self.injector = injector

    def degrade_factor(self, node_index: int) -> float:
        """Current NIC bandwidth multiplier for ``node_index`` (1.0 = healthy)."""
        if self.injector is None:
            return 1.0
        return self.injector.degrade_factor(node_index)

    def reprice_node(self, node_index: int) -> None:
        """Re-evaluate a node's NIC rates (called at degradation edges).

        Progress made so far is drained at the old rate before the new
        rate takes effect for the remainder of in-flight transfers.
        """
        for pipe in (self.nic_tx[node_index], self.nic_rx[node_index]):
            pipe._advance()
            pipe._reschedule()
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                node_track(node_index), "nic repriced", names.CAT_FAULT,
                args={"factor": self.degrade_factor(node_index)},
            )

    def _message_fate(self, src: Endpoint, dst: Endpoint) -> str:
        if self.injector is None:
            return "ok"
        return self.injector.message_fate(src.node_index, dst.node_index)

    def _black_hole(self) -> Generator:
        """A transfer that never completes (the caller must time out)."""
        self.stats.count(names.NET_MESSAGES_LOST)
        yield self.sim.event()  # never fires; reliable layers kill us

    # -- registration ----------------------------------------------------

    def register_endpoint(
        self, endpoint_id: int, node_index: int, connection_key: Optional[object] = None
    ) -> Endpoint:
        """Register a communication client on ``node_index``.

        Endpoints passing the same ``connection_key`` (scoped per node)
        share one connection; the default gives each endpoint its own.
        """
        if endpoint_id in self._endpoints:
            raise NetworkError(f"endpoint {endpoint_id} already registered")
        if not 0 <= node_index < self.topo.total_nodes:
            raise NetworkError(f"node {node_index} out of range")
        if connection_key is None:
            connection_key = ("ep", endpoint_id)
        key = (node_index, connection_key)
        conn = self._connections.get(key)
        if conn is None:
            conn = Connection(
                key=key, injector=Resource(self.sim, 1, name=f"conn{key}")
            )
            self._connections[key] = conn
        ep = Endpoint(endpoint_id=endpoint_id, node_index=node_index, connection=conn)
        self._endpoints[endpoint_id] = ep
        return ep

    def endpoint(self, endpoint_id: int) -> Endpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise NetworkError(f"unknown endpoint {endpoint_id}") from None

    def connections_on_node(self, node_index: int) -> int:
        return sum(1 for (n, _k) in self._connections if n == node_index)

    def active_connections_on_node(self, node_index: int) -> int:
        return self._active_conns[node_index]

    def _conn_activity(self, conn: Connection, delta: int) -> None:
        """Adjust a connection's in-flight count, repricing its node's NICs.

        Pipes are advanced *before* the count change (progress so far was
        made at the old efficiency) and rescheduled after it.
        """
        node = conn.key[0]
        pipes = (self.nic_tx[node], self.nic_rx[node])
        for pipe in pipes:
            pipe._advance()
        was_active = conn.active > 0
        conn.active += delta
        if conn.active < 0:
            raise NetworkError(f"connection {conn.key} activity underflow")
        now_active = conn.active > 0
        if was_active != now_active:
            self._active_conns[node] += 1 if now_active else -1
        for pipe in pipes:
            pipe._reschedule()

    # -- data movement ----------------------------------------------------

    def transmit(self, src_id: int, dst_id: int, nbytes: float) -> Generator:
        """Simulated generator: move ``nbytes`` from ``src_id`` to ``dst_id``.

        Completes when the data is fully delivered at the destination.
        The caller is responsible for charging ``send_overhead`` on the
        sending core (the fabric does not know about cores).
        """
        return self._move(src_id, dst_id, nbytes, read=False)

    def fetch(self, initiator_id: int, target_id: int, nbytes: float) -> Generator:
        """Simulated generator: RDMA-read ``nbytes`` from ``target_id``.

        The initiator's connection carries the read (its queue pair is
        occupied for the duration, like a hardware RDMA READ); data drains
        target→initiator through the reverse NIC pipes after the request
        and response flights.  No CPU is charged at the target.
        """
        return self._move(initiator_id, target_id, nbytes, read=True)

    def _move(self, initiator_id: int, peer_id: int, nbytes: float,
              read: bool) -> Generator:
        """The one data-movement path: a send to, or a read from, ``peer_id``.

        The initiator's connection injects either way.  A read differs
        from a send only in direction and latency: its data flows
        peer→initiator (the peer's tx pipe, the initiator's rx pipe, the
        peer→initiator comm-matrix cell), and across nodes it pays the
        wire latency twice, request then response, before data arrives.

        This generator and :meth:`_wire_leg` keep few locals on purpose:
        the simulator holds every process it spawned, finished
        generators (and their frames) included, for the whole run, so
        each local costs one word per message sent.
        """
        if nbytes < 0:
            raise NetworkError(f"negative message size: {nbytes}")
        ini = self.endpoint(initiator_id)
        peer = self.endpoint(peer_id)
        self.stats.count(names.NET_MESSAGES)
        self.stats.add(names.NET_BYTES, nbytes)
        if self.sim.tracer.enabled:
            if read:  # the matrix cell follows the data
                self.sim.tracer.comm(peer.node_index, ini.node_index, nbytes)
            else:
                self.sim.tracer.comm(ini.node_index, peer.node_index, nbytes)

        # Injection: serialized on the (possibly shared) connection.  The
        # wire leg runs concurrently — packets pipeline — so delivery
        # completes at max(injection end, latency + NIC drain end).
        conn = ini.connection
        yield conn.injector.acquire()
        conn.messages += 1
        conn.bytes += nbytes
        fate = self._message_fate(ini, peer)
        self._conn_activity(conn, +1)
        try:
            injection = self.sim.delay(
                self.params.gap + nbytes / self.params.connection_bw)
            injection.add_callback(lambda _ev: conn.injector.release())
            if fate == "lost":
                # The sender pays injection; delivery never happens.  A
                # reliable upper layer must race us against a timeout.
                yield from self._black_hole()
            wire = self.sim.spawn(
                self._wire_leg(ini, peer, nbytes, read),
                name="fabric.fetchwire" if read else "fabric.wire",
            )
            yield self.sim.all_of([injection, wire])
            if fate == "corrupt":
                raise MessageCorruptedError(
                    (f"read {ini.endpoint_id}<-{peer.endpoint_id}" if read
                     else f"message {ini.endpoint_id}->{peer.endpoint_id}")
                    + f" ({nbytes:g} B) failed integrity check"
                )
        finally:
            self._conn_activity(conn, -1)

    def _wire_leg(self, ini: Endpoint, peer: Endpoint, nbytes: float,
                  read: bool) -> Generator:
        if ini.node_index == peer.node_index:
            # Intra-node traffic through the network API loops back through
            # the adapter itself (the ibv conduit's behaviour without
            # PSHM), so it competes with inter-node traffic on the NIC
            # pipes — which is exactly why Fig 3.4's PSHM gains grow with
            # thread density.
            self.stats.count(names.NET_LOOPBACK_MESSAGES)
            yield self.sim.delay(self.params.loopback_latency)
            yield from self._drain(
                (self.loopback[ini.node_index], self.nic_tx[ini.node_index],
                 self.nic_rx[ini.node_index]),
                nbytes, "loopread" if read else "loop",
                ini.endpoint_id, peer.endpoint_id,
            )
            return
        if read:
            # The request flight precedes the response flight.
            yield self.sim.delay(2 * self.params.latency)
            pipes = (self.nic_tx[peer.node_index], self.nic_rx[ini.node_index])
        else:
            yield self.sim.delay(self.params.latency)
            pipes = (self.nic_tx[ini.node_index], self.nic_rx[peer.node_index])
        yield from self._drain(pipes, nbytes, "read" if read else "xfer",
                               ini.endpoint_id, peer.endpoint_id)

    def _drain(self, pipes, nbytes: float, kind: str, a: int, b: int) -> Generator:
        """Drain ``nbytes`` through every pipe, tracing one span per link.

        The span label is built lazily from ``kind`` and the endpoint ids
        ``a``/``b`` so the untraced path never formats strings.  Spans
        cover the drain (not the preceding wire latency) and carry the
        pipe's in-flight transfer count at entry, so the per-link lanes
        in a trace show NIC contention directly.  A drain aborted by a
        timeout kill leaves its spans open; ``Tracer.finalize`` closes
        them at end of run, which is the honest rendering of a transfer
        that never finished.
        """
        tracer = self.sim.tracer
        if not tracer.enabled:
            yield self.sim.all_of([pipe.transfer(nbytes) for pipe in pipes])
            return
        arrow = "<-" if kind in ("read", "loopread") else "->"
        label = f"{kind} {a}{arrow}{b}"
        span_ids = [
            tracer.begin(
                link_track(pipe.name), label, names.CAT_NETWORK,
                args={"bytes": nbytes,
                      "inflight": pipe.active_transfers + 1},
            )
            for pipe in pipes
        ]
        for pipe in pipes:
            tracer.counter(link_track(pipe.name), "inflight",
                           pipe.active_transfers + 1)
        yield self.sim.all_of([pipe.transfer(nbytes) for pipe in pipes])
        for pipe, span_id in zip(pipes, span_ids):
            tracer.end(span_id)
            tracer.counter(link_track(pipe.name), "inflight",
                           pipe.active_transfers)

    def analytic_message_time(self, src_id: int, dst_id: int, nbytes: float) -> float:
        """Uncontended transmit time (tests and back-of-envelope checks)."""
        src = self.endpoint(src_id)
        dst = self.endpoint(dst_id)
        if src.node_index == dst.node_index:
            return self.params.loopback_time(nbytes)
        return self.params.message_time(nbytes)
