"""RDMA fabric cost-model parameters.

Derived from the paper's testbed (§VI-C): ConnectX-6 200 Gb/s HCAs on PCIe
Gen4 x16, two servers cabled back-to-back (no switch).  Public ConnectX-6
figures put the half-round-trip of a small RDMA WRITE at ~0.8-1.0 us; the
decomposition below reproduces that while exposing the knobs the model
needs (software post cost, HCA processing, PCIe, wire, ack).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    # CPU-side cost of building a WQE and ringing the doorbell.
    post_overhead_ns: float = 70.0
    # HCA packet processing, each direction.
    hca_proc_ns: float = 160.0
    # PCIe Gen4 x16 round across the root complex, each host.
    pcie_lat_ns: float = 180.0
    # Wire: 200 Gb/s => 25 GB/s payload bandwidth, ~2 m DAC cable.
    wire_bandwidth_gbps: float = 25.0
    wire_prop_ns: float = 25.0
    # Per-message framing/serialization overhead on the wire.
    wire_msg_overhead_ns: float = 32.0
    # MTU for segmentation (affects only very large messages' pipelining).
    mtu: int = 4096
    # ACK return for sender-side completion of a reliable write.
    ack_ns: float = 350.0
    # Whether inter-put ordering is enforced between hosts (§III-A: the
    # paper's testbed enforces it, letting data+signal travel in one put;
    # set False to model fabrics that need a fence + separate signal put).
    enforces_ordering: bool = True

    def wire_time_ns(self, size: int) -> float:
        return self.wire_msg_overhead_ns + size / self.wire_bandwidth_gbps


DEFAULT_LINK = LinkParams()
