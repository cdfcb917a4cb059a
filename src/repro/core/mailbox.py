"""Reactive mailboxes (§III-A, Fig 1) and the waiter thread.

A mailbox is pinned memory carved into ``banks x slots`` fixed-size
frames, registered for one-sided remote write.  A dedicated waiter thread
parks on the *signal byte* of the next expected frame — by spin-polling or
via the WFE monitor — and dispatches each arriving active message: parse
header, (optionally) patch the GOT pointer, and either call the local
function for the element or execute the code that arrived in the frame.

Flow control for the injection-rate shape (§VI-A2) is sender-owned flags:
one per bank, living in *sender* memory.  The receiver raises a bank's
flag with a small RDMA put once it has drained the bank; the sender never
reuses a bank before seeing its flag — keeping the reactive mailbox itself
free of protocol overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import MailboxError
from ..machine.pages import PROT_RW, PROT_RWX, PROT_RX
from ..obs.metrics import METRICS as _M
from ..obs.tracer import TRACER as _T, node_pid
from ..rdma.mr import Access
from ..sim.clock import CPU_CLOCK
from ..sim.engine import Delay
from .config import WaitMode
from .message import HDR_SIZE, FrameView, unpack_header

_MPROTECT_NS = 620.0  # per-message mprotect pair in split-code-page mode


@dataclass(frozen=True)
class MailboxInfo:
    """What a sender learns about a remote mailbox at setup time."""
    addr: int
    rkey: int
    banks: int
    slots: int
    frame_size: int


class Mailbox:
    """Receiver-side mailbox region."""

    def __init__(self, runtime, banks: int, slots: int, frame_size: int):
        if banks < 1 or slots < 1:
            raise MailboxError("mailbox needs at least 1 bank and 1 slot")
        if frame_size % 64:
            raise MailboxError("frame size must be a multiple of 64")
        self.runtime = runtime
        self.banks = banks
        self.slots = slots
        self.frame_size = frame_size
        size = banks * slots * frame_size
        # Compact study layout: code+data together on RWX pages.  With the
        # split-code security option the mailbox never needs X.
        prot = PROT_RW if runtime.cfg.split_code_pages else PROT_RWX
        self.addr = runtime.node.map_region(size, prot, align=4096,
                                            label="mailbox")
        self.mr = runtime.hca.register_memory(
            self.addr, size, Access.REMOTE_WRITE | Access.REMOTE_READ)

    def slot_addr(self, bank: int, slot: int) -> int:
        if not (0 <= bank < self.banks and 0 <= slot < self.slots):
            raise MailboxError(f"bad slot ({bank},{slot})")
        return self.addr + (bank * self.slots + slot) * self.frame_size

    def sig_addr(self, bank: int, slot: int) -> int:
        return self.slot_addr(bank, slot) + self.frame_size - 1

    def info(self) -> MailboxInfo:
        return MailboxInfo(self.addr, self.mr.rkey, self.banks, self.slots,
                           self.frame_size)


@dataclass
class WaiterStats:
    frames: int = 0
    injected_frames: int = 0
    rejected_frames: int = 0
    exec_ns_total: float = 0.0
    last_exec_ret: int = 0
    dispatch_times: list[float] = field(default_factory=list)


class Waiter:
    """The mailbox thread: wait -> parse -> (patch GOT) -> invoke -> next.

    ``on_frame(view, slot_addr)`` is an optional hook run after dispatch;
    if it returns a generator it is driven inside the waiter process (the
    ping-pong benchmark uses it to send the response message).
    """

    def __init__(self, runtime, mailbox: Mailbox,
                 on_frame: Optional[Callable] = None,
                 flag_target: Optional[tuple[int, int, int]] = None,
                 record_dispatch: bool = False,
                 core: Optional[int] = None):
        self.rt = runtime
        self.mailbox = mailbox
        self.on_frame = on_frame
        # The waiter thread may be pinned to any core of the node; a
        # non-default core gets its own execution context (VM).
        self.core = runtime.core if core is None else core
        if self.core == runtime.core:
            self.vm = runtime.vm
        else:
            from ..isa.vm import Vm
            self.vm = Vm(runtime.node, core=self.core,
                         intrinsics=runtime.intrinsics)
        # (sender node id, remote flag addr, rkey): where bank flags are
        # raised for flow control — addressed per peer on the fabric.
        self.flag_target = flag_target
        self.record_dispatch = record_dispatch
        self.stats = WaiterStats()
        self._stop = False
        self._proc = None
        # per-bank round counter -> expected sequence tag
        self._rounds = [0] * mailbox.banks
        # split-code-page scratch (lazy)
        self._code_scratch = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        if self._proc is None:
            self._proc = self.rt.engine.spawn(
                self._loop(), name=f"waiter.n{self.rt.node.node_id}")
        return self._proc

    def stop(self) -> None:
        self._stop = True

    # -- wait primitives --------------------------------------------------------

    def _wait_sig(self, sig_addr: int, expected: int):
        """Park until the signal byte reads ``expected``.

        Functionally both modes wake on the monitor event (the simulation
        has no reason to busy-loop); they differ in cycle accounting and
        in the small extra wake latency of WFE — exactly the distinction
        Figs 13-14 measure.
        """
        rt = self.rt
        node = rt.node
        core = self.core
        cfg = rt.cfg
        start = rt.engine.now
        ev = node.monitor_event(sig_addr)
        spins = 0
        while node.mem.read_u8(sig_addr) != expected:
            if self._stop:
                return False
            spins += 1
            yield ev
            if self._stop:
                return False
        waited = rt.engine.now - start
        if cfg.wait_mode is WaitMode.POLL:
            # The spin loop burned every cycle of the wait.
            node.add_wait_cycles(core, CPU_CLOCK.ns_to_cycles(waited))
        else:
            node.add_wait_cycles(
                core,
                cfg.wfe_wake_cycles
                + int(CPU_CLOCK.ns_to_cycles(waited) * cfg.wfe_housekeeping_duty))
            yield Delay(cfg.wfe_wake_ns)
        # Scheduler preemption (stress runs): the thread may have lost the
        # CPU; it cannot react until it is back on core.
        delay = node.runnable_delay(core, rt.engine.now)
        if delay > 0.0:
            yield Delay(delay)
        # Read the signal line through the hierarchy: arrival invalidated
        # it, so this is the first demand miss on the message (LLC hit
        # when stashed, DRAM when not).
        lat = node.hier.access(rt.engine.now, core, sig_addr, 1, "read")
        node.add_busy_ns(core, lat)
        yield Delay(lat)
        if _T.enabled:
            end = rt.engine.now
            pid = node_pid(node.node_id)
            _T.span(pid, core, "mb.wait", start, end,
                    {"mode": cfg.wait_mode.value})
            _T.span(pid, core, "mb.sig_read", end - lat, end)
        if _M.enabled:
            end = rt.engine.now
            nid = node.node_id
            _M.count(f"tc_mb_sig_poll_spins_total|node={nid}", end, spins)
            _M.observe(f"tc_mb_wait_ns|node={nid}", end - start)
        return True

    # -- dispatch -------------------------------------------------------------------

    def _dispatch(self, slot_addr: int):
        """Process one frame that is known to have arrived."""
        rt = self.rt
        node = rt.node
        core = self.core
        cfg = rt.cfg
        t0 = rt.engine.now
        # Parse the header: one read sweep over HDR+GOTP.
        lat = node.hier.access(rt.engine.now, core, slot_addr,
                               HDR_SIZE + 8, "read")
        cost = lat + cfg.dispatch_parse_ns
        node.add_busy_ns(core, cost)
        yield Delay(cost)
        view: FrameView = unpack_header(
            node.mem.data, slot_addr, frame_size=self.mailbox.frame_size)
        self.stats.frames += 1
        if view.injected:
            self.stats.injected_frames += 1

        run_it = not (view.no_exec or cfg.without_execution)
        if view.injected and cfg.refuse_injected:
            self.stats.rejected_frames += 1
            run_it = False

        if _T.enabled:
            _T.span(node_pid(node.node_id), core, "mb.parse", t0, t0 + cost,
                    {"injected": bool(view.injected)})
        if run_it:
            yield from self._invoke(view, slot_addr)
        if _T.enabled:
            # Dispatch ends before the on_frame hook: the hook belongs
            # to the benchmark (e.g. the pong send), not the message.
            _T.span(node_pid(node.node_id), core, "mb.dispatch", t0,
                    rt.engine.now,
                    {"injected": bool(view.injected), "executed": run_it})
        if _M.enabled:
            # Dispatch latency: signal detected -> frame fully handled
            # (the sender-post timestamp is not carried in the frame, so
            # this is the receiver-side half of end-to-end latency).
            end = rt.engine.now
            nid = node.node_id
            _M.count(f"tc_mb_frames_total|node={nid}", end)
            _M.observe(f"tc_mb_dispatch_ns|node={nid}", end - t0)
            node.hier.sample_metrics(_M, end)
        if self.on_frame is not None:
            out = self.on_frame(view, slot_addr)
            if out is not None and hasattr(out, "__iter__"):
                yield from out
        return view

    def _invoke(self, view: FrameView, slot_addr: int):
        rt = self.rt
        node = rt.node
        cfg = rt.cfg
        pkg = rt.packages.get(view.package_id)
        if pkg is None:
            raise MailboxError(f"frame for unknown package "
                               f"{view.package_id:#x}")
        element = pkg.element_by_id(view.element_id)
        payload_addr = slot_addr + view.payload_off
        args = (payload_addr, view.payload_size, *view.args)

        if view.injected:
            entry = slot_addr + view.code_off
            if not cfg.sender_sets_gotp:
                # §V mitigation: receiver inserts the GOT pointer from its
                # own trusted per-element table, ignoring the wire value.
                node.mem.write_u64(slot_addr + view.gotp_off,
                                   element.got_addr)
                w = node.hier.access(rt.engine.now, self.core,
                                     slot_addr + view.gotp_off, 8, "write")
                node.add_busy_ns(self.core, w)
                if _T.enabled:
                    _T.span(node_pid(node.node_id), self.core, "got.patch",
                            rt.engine.now, rt.engine.now + w)
                yield Delay(w)
            if cfg.split_code_pages:
                entry = yield from self._stage_code(view, slot_addr)
        else:
            # Local Function dispatch: index the library's function-pointer
            # vector with the element id from the header (Fig 3).
            if pkg.dispatch_table:
                slot = pkg.dispatch_table + 8 * view.element_id
                lat = node.hier.access(rt.engine.now, self.core, slot, 8,
                                       "read")
                node.add_busy_ns(self.core, lat)
                yield Delay(lat)
                entry = node.mem.read_u64(slot)
            else:
                entry = element.local_fn

        t_inv = rt.engine.now
        res = self.vm.call(entry, args, now=rt.engine.now)
        self.stats.exec_ns_total += res.elapsed_ns
        self.stats.last_exec_ret = res.ret
        total = cfg.invoke_setup_ns + res.elapsed_ns
        if _T.enabled:
            _T.span(node_pid(node.node_id), self.core, "mb.invoke", t_inv,
                    t_inv + total, {"injected": bool(view.injected),
                                    "element": view.element_id})
        yield Delay(total)

    def _stage_code(self, view: FrameView, slot_addr: int):
        """W^X option: copy GOTP+code out of the mailbox to RX pages."""
        rt = self.rt
        node = rt.node
        size = 8 + view.code_size
        if not self._code_scratch:
            self._code_scratch = node.map_region(
                max(64 * 1024, (size + 4095) & ~4095), PROT_RW,
                align=4096, label="codestage")
        scratch = self._code_scratch
        node.pages.set_prot(scratch, size, PROT_RW)
        blob = node.mem.read(slot_addr + view.gotp_off, size)
        node.mem.write(scratch, blob)
        node.pages.set_prot(scratch, size, PROT_RX)
        cost = _MPROTECT_NS
        cost += node.hier.stream_cost(rt.engine.now, self.core,
                                      slot_addr + view.gotp_off, size, "read")
        cost += node.hier.stream_cost(rt.engine.now + cost, self.core,
                                      scratch, size, "write")
        node.add_busy_ns(self.core, cost)
        if _T.enabled:
            _T.span(node_pid(node.node_id), self.core, "mb.stage_code",
                    rt.engine.now, rt.engine.now + cost, {"size": size})
        yield Delay(cost)
        return scratch + 8  # entry: first code byte after the GOTP cell

    # -- main loop -----------------------------------------------------------------

    def _loop(self):
        rt = self.rt
        mb = self.mailbox
        while not self._stop:
            for bank in range(mb.banks):
                seq = (self._rounds[bank] % 255) + 1
                for slot in range(mb.slots):
                    ok = yield from self._wait_sig(mb.sig_addr(bank, slot),
                                                   seq)
                    if not ok:
                        return
                    t0 = rt.engine.now
                    yield from self._dispatch(mb.slot_addr(bank, slot))
                    if self.record_dispatch:
                        self.stats.dispatch_times.append(rt.engine.now - t0)
                    if _M.enabled:
                        # Slot occupancy: frames of this bank already
                        # landed (signal byte raised) but not dispatched.
                        occ = 0
                        for s in range(slot + 1, mb.slots):
                            if rt.node.mem.read_u8(
                                    mb.sig_addr(bank, s)) == seq:
                                occ += 1
                        _M.sample(
                            f"tc_mb_backlog|node={rt.node.node_id}",
                            rt.engine.now, occ)
                self._rounds[bank] += 1
                if self.flag_target is not None:
                    # Raise the sender's flag for this bank: small put,
                    # routed to the sending peer's node.
                    peer, flag_addr, rkey = self.flag_target
                    rt.node.mem.write_u64(rt.flag_scratch, 1)
                    req = rt.ep_to(peer).put_nbi(
                        rt.engine.now, rt.flag_scratch,
                        flag_addr + bank * 8, 8, rkey, track=False)
                    yield Delay(req.cpu_ns)
