"""Network cost-model parameters (LogGP-flavoured)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkError

__all__ = ["NetworkParams"]


@dataclass(frozen=True)
class NetworkParams:
    """Per-conduit calibration constants.

    A message of ``n`` bytes between two nodes costs, end to end::

        o_send                      (sender core; charged by the caller)
      + wait for connection         (injection serialization, shared per
        + gap + n/connection_bw      connection — one per process)
      + latency                     (wire + switch)
      + n / min(tx NIC, rx NIC)     (processor-shared per node)

    Intra-node messages sent through the network API (the no-PSHM
    baseline of §3.1) skip the wire but pay the software path and drain
    through a per-node ``loopback_bw`` pipe.

    Attributes
    ----------
    latency: one-way wire+switch latency, seconds.
    send_overhead: CPU time to initiate a message (o_s).
    recv_overhead: CPU time to complete/receive a message (o_r) —
        charged by two-sided layers (MPI) and AM handlers, not by RDMA.
    gap: fixed per-message injection serialization on a connection.
    connection_bw: per-connection injection bandwidth, bytes/s.  A single
        link pair cannot exceed this (Fig 4.2: one link ≈ 1.4 GB/s on QDR).
    nic_bw: aggregate per-node NIC bandwidth, bytes/s (Fig 2.2:
        2.4 GB/s unidirectional on Lehman's QDR adapter).
    loopback_bw: intra-node through-the-network-API bandwidth, bytes/s.
    loopback_latency: intra-node software round latency, seconds.
    qp_knee / qp_penalty: connection-count contention — a NIC juggling
        more than ``qp_knee`` simultaneously-active connections loses
        efficiency (queue-pair state thrashing, lower-level API lock
        contention): effective aggregate rate is
        ``nic_bw / (1 + qp_penalty * (active_connections - qp_knee))``.
        This is the §4.3.1 observation that processes "extract more
        bandwidth" yet "contention in the lower network API level is
        likely to be slower" as per-node endpoint counts climb, and the
        mechanism behind the all-to-all decay past 2 cores/node in
        Figs 4.4/4.5.  Design decision D2 in DESIGN.md.
    """

    name: str = "ib-qdr"
    latency: float = 1.4e-6
    send_overhead: float = 0.3e-6
    recv_overhead: float = 0.3e-6
    gap: float = 0.15e-6
    connection_bw: float = 1.4e9
    nic_bw: float = 2.4e9
    loopback_bw: float = 2.0e9
    loopback_latency: float = 0.4e-6
    qp_knee: int = 2
    qp_penalty: float = 0.05
    #: D4 ablation: serve NIC pipes strictly FIFO instead of processor
    #: sharing (concurrent transfers then complete one after another), at
    #: the nominal ``nic_bw``: the D2 penalty and degradation set only the
    #: processor-sharing rate.
    fifo_links: bool = False

    def __post_init__(self) -> None:
        for f in ("latency", "send_overhead", "recv_overhead", "gap", "loopback_latency"):
            if getattr(self, f) < 0:
                raise NetworkError(f"{f} must be >= 0, got {getattr(self, f)}")
        for f in ("connection_bw", "nic_bw", "loopback_bw"):
            if getattr(self, f) <= 0:
                raise NetworkError(f"{f} must be > 0, got {getattr(self, f)}")
        if self.qp_knee < 1 or self.qp_penalty < 0:
            raise NetworkError("qp_knee must be >= 1 and qp_penalty >= 0")

    def nic_efficiency(self, active_connections: int) -> float:
        """Fraction of nominal NIC bandwidth with this many active connections."""
        extra = max(0, active_connections - self.qp_knee)
        return 1.0 / (1.0 + self.qp_penalty * extra)

    def message_time(self, nbytes: float) -> float:
        """Uncontended end-to-end time for one inter-node message
        (excluding o_send, which the caller charges on the core).

        Injection and the wire leg pipeline, so the slower of the two
        governs: ``max(gap + n/connection_bw, latency + n/nic_bw)``.
        """
        return max(
            self.gap + nbytes / self.connection_bw,
            self.latency + nbytes / self.nic_bw,
        )
