"""Queue pairs and one-sided operations over the simulated fabric.

A reliable-connected QP between two HCAs.  ``post_put`` models the full
path of an RDMA WRITE: sender software post, sender HCA DMA-read of the
source buffer, wire serialization, receiver-side rkey/bounds check, and
the receiver DMA write — which allocates into the LLC when stashing is
enabled (the property §VII-B measures).  Writes on one QP complete in
order, matching the paper's testbed ("modern servers like the one we use
enforce ordering"); a ``fence`` marker is available for fabrics that do
not.

Delivery is asynchronous in simulated time: payload bytes appear in
receiver memory at the delivery instant (never earlier), then WFE monitors
covering the written range fire.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import RdmaError, RkeyViolation
from ..machine.node import Node
from ..obs.metrics import METRICS as _M
from ..obs.tracer import TID_HCA, TRACER as _T, node_pid
from ..sim.engine import Engine, Event
from .mr import Access, MemoryRegion, MrTable
from .params import DEFAULT_LINK, LinkParams


class WcStatus(enum.Enum):
    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote_access_error"


@dataclass
class Completion:
    """Work completion for a posted one-sided op."""
    op: str
    size: int
    status: WcStatus = WcStatus.SUCCESS
    posted_at: float = 0.0
    delivered_at: float = 0.0
    completed_at: float = 0.0
    event: Optional[Event] = None  # fired at completed_at

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


class Hca:
    """Host channel adapter: owns the MR table and the DMA pacing state."""

    def __init__(self, node: Node, link: LinkParams = DEFAULT_LINK):
        self.node = node
        self.link = link
        self.mrs = MrTable(node.node_id)
        self.tx_busy_until = 0.0   # sender-side engine serialization
        self.rx_busy_until = 0.0   # receiver-side DMA serialization
        self.bytes_tx = 0
        self.bytes_rx = 0

    def snapshot(self) -> tuple:
        return (self.mrs.snapshot(), self.tx_busy_until, self.rx_busy_until,
                self.bytes_tx, self.bytes_rx)

    def restore(self, snap: tuple) -> None:
        mrs, self.tx_busy_until, self.rx_busy_until, \
            self.bytes_tx, self.bytes_rx = snap
        self.mrs.restore(mrs)

    def register_memory(self, addr: int, length: int,
                        access: Access = Access.REMOTE_READ | Access.REMOTE_WRITE
                        ) -> MemoryRegion:
        # Registration pins pages; bounds-check against node memory here.
        if addr < 0 or addr + length > self.node.mem.size:
            raise RdmaError(f"register outside node memory: {addr:#x}+{length}")
        return self.mrs.register(addr, length, access)


class QueuePair:
    """One direction of a reliable connection (create both via connect()).

    ``link`` is this pair's link model; it defaults to the source HCA's
    link but may differ per peer on heterogeneous fabrics (the
    ``Topology`` per-pair overrides land here).
    """

    def __init__(self, engine: Engine, src: Hca, dst: Hca,
                 link: LinkParams | None = None):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.link = link if link is not None else src.link
        self._last_delivery = 0.0   # in-order delivery horizon
        self.puts_posted = 0
        self.puts_failed = 0
        # Puts posted but not yet delivered.  Not part of the snapshot:
        # checkpoints require a quiescent fabric, so this is 0 there.
        self._inflight = 0

    def snapshot(self) -> tuple:
        return self._last_delivery, self.puts_posted, self.puts_failed

    def restore(self, snap: tuple) -> None:
        self._last_delivery, self.puts_posted, self.puts_failed = snap
        self._inflight = 0

    # -- timing helpers -----------------------------------------------------

    def _schedule(self, size: int, now: float, src_addr: int | None
                  ) -> tuple[float, float, float]:
        """Returns (sender_free_at, delivered_at, occupancy_release)."""
        link = self.link
        post_done = now + link.post_overhead_ns
        start = max(post_done, self.src.tx_busy_until)
        # Sender-side DMA read of the source buffer (may hit its LLC).
        read_occ = 0.0
        if src_addr is not None and size > 0:
            read_occ = self.src.node.hier.dma_read(start, src_addr, size)
        wire = link.wire_time_ns(size)
        # The engine pipelines messages: it is occupied for the larger of
        # the source read and the wire serialization.
        self.src.tx_busy_until = start + max(read_occ, wire)
        latency = (link.hca_proc_ns + link.pcie_lat_ns + link.wire_prop_ns
                   + wire + link.hca_proc_ns + link.pcie_lat_ns)
        delivered = start + latency
        # Reliable delivery on a QP is in-order.
        delivered = max(delivered, self._last_delivery + 1e-3)
        self._last_delivery = delivered
        return post_done, delivered, start

    # -- one-sided write ------------------------------------------------------

    def post_put(self, now: float, src_addr: int, dst_addr: int, size: int,
                 rkey: int, payload: bytes | None = None) -> Completion:
        """Post an RDMA WRITE of ``size`` bytes.

        ``payload`` overrides reading source bytes from node memory (used
        by tests); normally the bytes come from ``src_addr``.  The sender
        CPU is busy until the post returns; the wire and remote side
        proceed asynchronously.  Returns a Completion whose ``event`` fires
        at sender completion (ACK), with ``delivered_at`` the instant the
        bytes became visible at the receiver.
        """
        if size < 0:
            raise RdmaError("negative put size")
        now = max(now, self.engine.now)  # posts cannot happen in the past
        comp = Completion(op="put", size=size, posted_at=now,
                          event=self.engine.event("put.comp"))
        self.puts_posted += 1
        data = payload if payload is not None else (
            self.src.node.mem.read(src_addr, size) if size else b"")
        if len(data) != size:
            raise RdmaError(f"payload length {len(data)} != size {size}")
        post_done, delivered, _ = self._schedule(
            size, now, src_addr if payload is None else None)
        self.src.bytes_tx += size
        self._inflight += 1
        if _M.enabled:
            link = f"src={self.src.node.node_id}|dst={self.dst.node.node_id}"
            _M.count(f"tc_rdma_puts_total|{link}", now)
            _M.count(f"tc_rdma_link_bytes_total|{link}", now, size)
            _M.sample(f"tc_qp_inflight|{link}", now, self._inflight)
        if _T.enabled:
            # Sender HCA track: the whole put (outer), its software post
            # and wire/DMA flight nested inside.
            pid = node_pid(self.src.node.node_id)
            _T.span(pid, TID_HCA, "rdma.put", now, delivered, {"size": size})
            _T.span(pid, TID_HCA, "rdma.post", now, post_done)
            _T.span(pid, TID_HCA, "rdma.flight", post_done, delivered,
                    {"size": size})

        def deliver() -> None:
            try:
                self.dst.mrs.validate(rkey, dst_addr, size, Access.REMOTE_WRITE)
            except RkeyViolation:
                comp.status = WcStatus.REMOTE_ACCESS_ERROR
                self.puts_failed += 1
                self._inflight -= 1
                comp.completed_at = self.engine.now + self.link.ack_ns
                self.engine.call_at(comp.completed_at, comp.event.fire, comp)
                return
            node = self.dst.node
            if size:
                node.mem.write(dst_addr, data)
                # Inbound DMA timing: stash to LLC or drain to DRAM.
                occ = node.hier.dma_write(self.engine.now, dst_addr, size,
                                          owner_core=None)
                self.dst.rx_busy_until = max(self.dst.rx_busy_until,
                                             self.engine.now) + occ
                if _T.enabled:
                    _T.span(node_pid(node.node_id), TID_HCA,
                            "rdma.dma_write", self.engine.now,
                            self.engine.now + occ,
                            {"size": size,
                             "stash": node.hier.cfg.stash_enabled})
            self.dst.bytes_rx += size
            self._inflight -= 1
            if _M.enabled:
                _M.sample(f"tc_qp_inflight|src={self.src.node.node_id}"
                          f"|dst={self.dst.node.node_id}",
                          self.engine.now, self._inflight)
            comp.delivered_at = self.engine.now
            node.notify_write(dst_addr, size)
            comp.completed_at = self.engine.now + self.link.ack_ns
            self.engine.call_at(comp.completed_at, comp.event.fire, comp)

        self.engine.call_at(delivered, deliver)
        return comp

    # -- one-sided read --------------------------------------------------------

    def post_get(self, now: float, dst_addr: int, src_addr: int, size: int,
                 rkey: int) -> Completion:
        """RDMA READ: fetch from the remote node into local memory."""
        if size < 0:
            raise RdmaError("negative get size")
        now = max(now, self.engine.now)
        comp = Completion(op="get", size=size, posted_at=now,
                          event=self.engine.event("get.comp"))
        link = self.link
        post_done = now + link.post_overhead_ns
        start = max(post_done, self.src.tx_busy_until)
        wire = link.wire_time_ns(size)
        rtt = (2 * (link.hca_proc_ns + link.pcie_lat_ns + link.wire_prop_ns)
               + wire + link.hca_proc_ns)
        done = start + rtt
        self.src.tx_busy_until = start + wire
        if _T.enabled:
            _T.span(node_pid(self.src.node.node_id), TID_HCA, "rdma.get",
                    now, done, {"size": size})

        def finish() -> None:
            try:
                self.dst.mrs.validate(rkey, src_addr, size, Access.REMOTE_READ)
            except RkeyViolation:
                comp.status = WcStatus.REMOTE_ACCESS_ERROR
                comp.completed_at = self.engine.now
                comp.event.fire(comp)
                return
            data = self.dst.node.mem.read(src_addr, size)
            self.dst.node.hier.dma_read(self.engine.now, src_addr, size)
            self.src.node.mem.write(dst_addr, data)
            self.src.node.hier.dma_write(self.engine.now, dst_addr, size,
                                         owner_core=None)
            self.src.node.notify_write(dst_addr, size)
            comp.delivered_at = comp.completed_at = self.engine.now
            comp.event.fire(comp)

        self.engine.call_at(done, finish)
        return comp

    def fence(self) -> None:
        """Order subsequent posts after all prior deliveries (no-op cost on
        this fabric, which already delivers in order; kept for fabrics
        configured without inter-put ordering)."""
        self.src.tx_busy_until = max(self.src.tx_busy_until,
                                     self._last_delivery)


def connect(engine: Engine, a: Hca, b: Hca,
            link_out: LinkParams | None = None,
            link_back: LinkParams | None = None
            ) -> tuple[QueuePair, QueuePair]:
    """Create the RC queue-pair pair between two HCAs.

    ``link_out``/``link_back`` override the link model per direction
    (Topology per-pair links); by default each QP uses its source HCA's
    link, like the original back-to-back cable."""
    return (QueuePair(engine, a, b, link=link_out),
            QueuePair(engine, b, a, link=link_back))
