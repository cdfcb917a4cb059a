"""Benchmark shapes (§VI-A): ping-pong and injection rate, AM and UCX-put.

Every measurement in this repo bottoms out here: a *shape* runs one
benchmark pattern (active-message ping-pong, active-message injection
rate, or their plain UCX-put controls) on the simulated testbed and
returns a structured outcome (:class:`PingPongOutcome` /
:class:`RateOutcome`) with per-iteration latencies, rates, wire sizes,
and server cycle counts.  Each driver takes a freshly built
:class:`~repro.core.stdworld.World` — per-point worlds keep cache state
independent across sweep points, like separate perftest invocations.
The registered sweep points in :mod:`repro.bench.figures` and
:mod:`repro.bench.ablations` (and ``twochains perf``) are the consumers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.runtime import PreparedJam, connect_runtimes
from ..core.stdworld import World
from ..errors import ReproError
from ..machine.noise import StressConfig, StressWorkload
from ..machine.pages import PROT_RW
from ..sim.engine import Delay
from .calibration import MEASURE_ITERS, WARMUP_ITERS
from .stats import LatencyStats, summarize


@dataclass
class PingPongOutcome:
    one_way_ns: list[float]
    stats: LatencyStats
    wire_size: int
    # cycle counters over the measured iterations
    cycles_total: int = 0        # client + server core 0
    cycles_wait: int = 0
    server_cycles: int = 0       # server core 0 only (the Fig 13/14 view)
    server_wait_cycles: int = 0
    iters: int = 0

    @property
    def server_cycles_per_iter(self) -> float:
        return self.server_cycles / max(self.iters, 1)


@dataclass
class RateOutcome:
    messages: int
    elapsed_ns: float
    wire_size: int
    payload_bytes: int

    @property
    def rate_mps(self) -> float:
        """Messages per second."""
        return self.messages / (self.elapsed_ns * 1e-9)

    @property
    def wire_gbps(self) -> float:
        """Wire bytes per ns == GB/s."""
        return self.messages * self.wire_size / self.elapsed_ns

    @property
    def payload_gbps(self) -> float:
        return self.messages * self.payload_bytes / self.elapsed_ns


def _fill_payload(node, addr: int, nbytes: int, core: int = 0) -> None:
    node.mem.write(addr, bytes((7 * i + 1) & 0xFF for i in range(nbytes)))
    # Writing the payload is CPU work that leaves the buffer cache-warm,
    # like a perf tool's init loop.
    node.hier.stream_cost(0.0, core, addr, nbytes, "write")


def _start_stress(world: World, stress_cfg: StressConfig | None
                  ) -> list[StressWorkload]:
    cfg = stress_cfg or StressConfig()
    loads = [
        StressWorkload(world.engine, world.bed.node0, world.bed.rngs, cfg),
        StressWorkload(world.engine, world.bed.node1, world.bed.rngs, cfg),
    ]
    for s in loads:
        s.start()
    return loads


def _cycles(world: World) -> tuple[int, int, int, int]:
    """(both-node total, both-node wait, server total, server wait)
    cycle counters over core 0."""
    s_total = world.bed.node1.cpu_cycles(0)
    s_wait = world.bed.node1.board.count("core0.wait_cycles")
    total = world.bed.node0.cpu_cycles(0) + s_total
    wait = world.bed.node0.board.count("core0.wait_cycles") + s_wait
    return total, wait, s_total, s_wait


# ---------------------------------------------------------------------------
# Active-message ping-pong (Figs 5, 7, 9, 11, 12, 13, 14)
# ---------------------------------------------------------------------------

def am_pingpong(world: World, jam: str, payload_bytes: int, *,
                inject: bool = True, no_exec: bool = False,
                warmup: int = WARMUP_ITERS, iters: int = MEASURE_ITERS,
                stress: bool = False,
                stress_cfg: StressConfig | None = None) -> PingPongOutcome:
    """Half-round-trip active message latency (§VI-A1).

    Each host has one single-slot mailbox; the ping executes on the
    server, whose hook immediately sends the pong, which executes on the
    client.  One-way latency = RTT/2.
    """
    engine = world.engine
    fsize = world.frame_size_for(jam, payload_bytes, inject)
    server_mb = world.server.create_mailbox(1, 1, fsize)
    client_mb = world.client.create_mailbox(1, 1, fsize)
    c2s = connect_runtimes(world.client, world.server, server_mb)
    s2c = connect_runtimes(world.server, world.client, client_mb)
    pkg_c = world.client.packages[world.build.package_id]
    pkg_s = world.server.packages[world.build.package_id]

    ping_payload = world.bed.node0.map_region(max(payload_bytes, 64), PROT_RW)
    pong_payload = world.bed.node1.map_region(max(payload_bytes, 64), PROT_RW)
    _fill_payload(world.bed.node0, ping_payload, payload_bytes)
    _fill_payload(world.bed.node1, pong_payload, payload_bytes)

    ping = PreparedJam(c2s, pkg_c, jam, ping_payload, payload_bytes,
                       args=(11,), inject=inject, no_exec=no_exec)
    pong = PreparedJam(s2c, pkg_s, jam, pong_payload, payload_bytes,
                       args=(22,), inject=inject, no_exec=no_exec)

    pong_ev = engine.event("pong")

    def server_hook(view, slot_addr):
        yield from pong.send()

    def client_hook(view, slot_addr):
        pong_ev.fire()
        return None

    server_waiter = world.server.make_waiter(server_mb, on_frame=server_hook)
    client_waiter = world.client.make_waiter(client_mb, on_frame=client_hook)
    server_waiter.start()
    client_waiter.start()

    stress_loads = _start_stress(world, stress_cfg) if stress else []
    lat: list[float] = []
    marks = {}

    def main():
        for i in range(warmup + iters):
            if i == warmup:
                marks["cycles0"] = _cycles(world)
            t0 = engine.now
            yield from ping.send()
            yield pong_ev
            if i >= warmup:
                lat.append((engine.now - t0) / 2.0)
        marks["cycles1"] = _cycles(world)
        server_waiter.stop()
        client_waiter.stop()
        for s in stress_loads:
            s.stop()

    engine.run_process(main(), name="pingpong")
    (t0, w0, s0, sw0), (t1, w1, s1, sw1) = marks["cycles0"], marks["cycles1"]
    return PingPongOutcome(
        one_way_ns=lat,
        stats=summarize(lat),
        wire_size=fsize,
        cycles_total=t1 - t0,
        cycles_wait=w1 - w0,
        server_cycles=s1 - s0,
        server_wait_cycles=sw1 - sw0,
        iters=iters,
    )


# ---------------------------------------------------------------------------
# Active-message injection rate (Figs 6 [bw], 8, 10)
# ---------------------------------------------------------------------------

def am_injection_rate(world: World, jam: str, payload_bytes: int, *,
                      inject: bool = True, no_exec: bool = False,
                      messages: int = 1000, banks: int = 4, slots: int = 8
                      ) -> RateOutcome:
    """Streaming active messages through banked mailboxes (§VI-A2)."""
    engine = world.engine
    fsize = world.frame_size_for(jam, payload_bytes, inject)
    mb = world.server.create_mailbox(banks, slots, fsize)
    conn = connect_runtimes(world.client, world.server, mb,
                            flow_control=True)
    pkg = world.client.packages[world.build.package_id]
    payload = world.bed.node0.map_region(max(payload_bytes, 64), PROT_RW)
    _fill_payload(world.bed.node0, payload, payload_bytes)
    prepared = PreparedJam(conn, pkg, jam, payload, payload_bytes,
                           inject=inject, no_exec=no_exec)

    done = engine.event("rate.done")
    state = {"seen": 0, "t_end": 0.0}

    def on_frame(view, slot_addr):
        state["seen"] += 1
        if state["seen"] >= messages:
            state["t_end"] = engine.now
            done.fire()
        return None

    waiter = world.server.make_waiter(mb, on_frame=on_frame,
                                      flag_target=conn.flag_target())
    waiter.start()
    marks = {}

    def sender():
        marks["t0"] = engine.now
        for _ in range(messages):
            yield from prepared.send()
        yield done
        waiter.stop()

    engine.run_process(sender(), name="injector")
    elapsed = state["t_end"] - marks["t0"]
    if elapsed <= 0:
        raise ReproError("injection-rate run measured no elapsed time")
    return RateOutcome(messages=messages, elapsed_ns=elapsed,
                       wire_size=fsize, payload_bytes=payload_bytes)


# ---------------------------------------------------------------------------
# UCX put baselines (Figs 5-6)
# ---------------------------------------------------------------------------

def _poll_sig(world: World, node, core: int, addr: int, expected: int):
    """Spin (functionally: sleep on the monitor) until *addr == expected,
    then charge the demand read."""
    ev = node.monitor_event(addr)
    start = world.engine.now
    while node.mem.read_u8(addr) != expected:
        yield ev
    node.add_wait_cycles(core, int((world.engine.now - start) * 2.6))
    lat = node.hier.access(world.engine.now, core, addr, 1, "read")
    node.add_busy_ns(core, lat)
    yield Delay(lat)


def ucx_put_pingpong(world: World, payload_bytes: int, *,
                     warmup: int = WARMUP_ITERS, iters: int = MEASURE_ITERS
                     ) -> PingPongOutcome:
    """The baseline: plain ucp put latency through the standard UCX path
    (request tracking + CQ progress), remote arrival detected by polling
    the buffer's last byte like ucx_perftest's put_lat."""
    engine = world.engine
    node0, node1 = world.bed.node0, world.bed.node1
    size = max(payload_bytes, 8)
    c_src = node0.map_region(size, PROT_RW)
    c_dst = node0.map_region(size, PROT_RW)
    s_src = node1.map_region(size, PROT_RW)
    s_dst = node1.map_region(size, PROT_RW)
    mr_s = world.server.hca.register_memory(s_dst, size)
    mr_c = world.client.hca.register_memory(c_dst, size)
    _fill_payload(node0, c_src, size)
    _fill_payload(node1, s_src, size)
    ep_c = world.client.ep
    ep_s = world.server.ep
    lat: list[float] = []
    total = warmup + iters

    def server():
        for i in range(total):
            seq = (i % 255) + 1
            yield from _poll_sig(world, node1, 0, s_dst + size - 1, seq)
            node1.mem.write_u8(s_src + size - 1, seq)
            req = ep_s.put_nbi(engine.now, s_src, c_dst, size, mr_c.rkey)
            yield Delay(req.cpu_ns)
            # completion retire overlaps the wait for the next ping
            ep_s.reap_completed()

    def client():
        for i in range(total):
            seq = (i % 255) + 1
            t0 = engine.now
            node0.mem.write_u8(c_src + size - 1, seq)
            req = ep_c.put_nbi(engine.now, c_src, s_dst, size, mr_s.rkey)
            yield Delay(req.cpu_ns)
            yield from _poll_sig(world, node0, 0, c_dst + size - 1, seq)
            # completion was retired by progress during the spin
            ep_c.reap_completed()
            if i >= warmup:
                lat.append((engine.now - t0) / 2.0)

    engine.spawn(server(), name="ucx.server")
    engine.run_process(client(), name="ucx.client")
    return PingPongOutcome(one_way_ns=lat, stats=summarize(lat),
                           wire_size=size, iters=iters)


def ucx_put_stream(world: World, payload_bytes: int, *,
                   messages: int = 1000) -> RateOutcome:
    """The baseline bandwidth test: windowed ucp puts with per-op request
    tracking, completion polling, and the library's flow control — the
    overhead Fig 6 shows the reactive mailbox avoiding."""
    engine = world.engine
    node0, node1 = world.bed.node0, world.bed.node1
    size = max(payload_bytes, 8)
    ring = 16
    src = node0.map_region(size, PROT_RW)
    dst = node1.map_region(size * ring, PROT_RW)
    mr = world.server.hca.register_memory(dst, size * ring)
    _fill_payload(node0, src, size)
    ep = world.client.ep
    marks = {}

    def sender():
        marks["t0"] = engine.now
        last = None
        for i in range(messages):
            yield from ep.window_admit(size)
            last = ep.put_nbi(engine.now, src, dst + (i % ring) * size,
                              size, mr.rkey)
            yield Delay(last.cpu_ns)
        yield from ep.flush()
        marks["t1"] = last.completion.delivered_at

    engine.run_process(sender(), name="ucx.stream")
    elapsed = marks["t1"] - marks["t0"]
    return RateOutcome(messages=messages, elapsed_ns=elapsed,
                       wire_size=size, payload_bytes=payload_bytes)
