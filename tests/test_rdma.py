"""RDMA model tests: rkeys, puts/gets, ordering, stash interaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RdmaError, RkeyViolation
from repro.machine import PROT_RW, HierarchyConfig
from repro.rdma import Access, Testbed, WcStatus
from repro.sim import Delay


def make_bed(**kw):
    return Testbed.create(**kw)


def run_put(bed, size=64, payload=None, register=True, dst_access=None):
    node0, node1 = bed.node0, bed.node1
    src = node0.map_region(max(size, 8), PROT_RW)
    dst = node1.map_region(max(size, 8), PROT_RW)
    if payload is None:
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
    node0.mem.write(src, payload)
    access = dst_access if dst_access is not None else (
        Access.REMOTE_READ | Access.REMOTE_WRITE)
    mr = bed.hca1.register_memory(dst, max(size, 8), access) if register else None
    rkey = mr.rkey if mr else 0xDEAD
    comp = bed.qp01.post_put(0.0, src, dst, size, rkey)
    bed.engine.run()
    return comp, node1, dst, payload


class TestMemoryRegions:
    def test_register_and_validate(self):
        bed = make_bed()
        addr = bed.node1.map_region(4096, PROT_RW)
        mr = bed.hca1.register_memory(addr, 4096)
        assert mr.rkey != 0
        bed.hca1.mrs.validate(mr.rkey, addr + 100, 8, Access.REMOTE_WRITE)

    def test_unknown_rkey_rejected(self):
        bed = make_bed()
        with pytest.raises(RkeyViolation, match="unknown rkey"):
            bed.hca1.mrs.validate(0x1234, 0, 8, Access.REMOTE_WRITE)

    def test_out_of_bounds_rejected(self):
        bed = make_bed()
        addr = bed.node1.map_region(4096, PROT_RW)
        mr = bed.hca1.register_memory(addr, 4096)
        with pytest.raises(RkeyViolation, match="outside MR"):
            bed.hca1.mrs.validate(mr.rkey, addr + 4090, 16, Access.REMOTE_WRITE)

    def test_permission_enforced(self):
        bed = make_bed()
        addr = bed.node1.map_region(4096, PROT_RW)
        mr = bed.hca1.register_memory(addr, 4096, Access.REMOTE_READ)
        with pytest.raises(RkeyViolation, match="REMOTE_WRITE"):
            bed.hca1.mrs.validate(mr.rkey, addr, 8, Access.REMOTE_WRITE)

    def test_rkeys_unique_per_registration(self):
        bed = make_bed()
        addr = bed.node1.map_region(8192, PROT_RW)
        r1 = bed.hca1.register_memory(addr, 4096)
        r2 = bed.hca1.register_memory(addr, 4096)
        assert r1.rkey != r2.rkey

    def test_deregister_invalidates(self):
        bed = make_bed()
        addr = bed.node1.map_region(4096, PROT_RW)
        mr = bed.hca1.register_memory(addr, 4096)
        bed.hca1.mrs.deregister(mr)
        with pytest.raises(RkeyViolation):
            bed.hca1.mrs.validate(mr.rkey, addr, 8, Access.REMOTE_WRITE)

    def test_register_outside_memory_rejected(self):
        bed = make_bed()
        with pytest.raises(RdmaError):
            bed.hca1.register_memory(bed.node1.mem.size - 10, 100)


class TestPut:
    def test_payload_arrives_intact(self):
        comp, node1, dst, payload = run_put(make_bed(), size=256)
        assert comp.ok
        assert node1.mem.read(dst, 256) == payload

    def test_bad_rkey_blocks_write_with_error_completion(self):
        comp, node1, dst, payload = run_put(make_bed(), size=64,
                                            register=False)
        assert comp.status is WcStatus.REMOTE_ACCESS_ERROR
        assert node1.mem.read(dst, 64) == b"\0" * 64

    def test_write_without_permission_rejected(self):
        comp, node1, dst, _ = run_put(make_bed(), size=64,
                                      dst_access=Access.REMOTE_READ)
        assert comp.status is WcStatus.REMOTE_ACCESS_ERROR
        assert node1.mem.read(dst, 64) == b"\0" * 64

    def test_latency_in_realistic_range(self):
        comp, *_ = run_put(make_bed(), size=8)
        # Small put half-RTT on CX-6 back-to-back: several hundred ns.
        assert 500.0 < comp.delivered_at < 2000.0

    def test_latency_grows_with_size(self):
        small = run_put(make_bed(), size=64)[0]
        big = run_put(make_bed(), size=65536)[0]
        assert big.delivered_at > small.delivered_at + 1000.0

    def test_bytes_not_visible_before_delivery(self):
        bed = make_bed()
        src = bed.node0.map_region(64, PROT_RW)
        dst = bed.node1.map_region(64, PROT_RW)
        bed.node0.mem.write_u64(src, 0xABCD)
        mr = bed.hca1.register_memory(dst, 64)
        comp = bed.qp01.post_put(0.0, src, dst, 8, mr.rkey)
        seen = {}

        def probe():
            yield Delay(100.0)  # well before delivery
            seen["early"] = bed.node1.mem.read_u64(dst)
            yield Delay(5000.0)
            seen["late"] = bed.node1.mem.read_u64(dst)

        bed.engine.spawn(probe())
        bed.engine.run()
        assert seen["early"] == 0
        assert seen["late"] == 0xABCD
        assert comp.ok

    def test_in_order_delivery_on_qp(self):
        bed = make_bed()
        src = bed.node0.map_region(8 * 16, PROT_RW)
        dst = bed.node1.map_region(8 * 16, PROT_RW)
        mr = bed.hca1.register_memory(dst, 8 * 16)
        comps = []
        for i in range(16):
            bed.node0.mem.write_u64(src + 8 * i, i + 1)
            comps.append(bed.qp01.post_put(0.0, src + 8 * i, dst + 8 * i, 8,
                                           mr.rkey))
        bed.engine.run()
        times = [c.delivered_at for c in comps]
        assert times == sorted(times)
        assert all(c.ok for c in comps)

    def test_completion_event_fires_after_delivery(self):
        bed = make_bed()
        comp, *_ = run_put(bed, size=64)
        assert comp.completed_at > comp.delivered_at

    def test_monitor_wakes_on_put_arrival(self):
        bed = make_bed()
        src = bed.node0.map_region(64, PROT_RW)
        dst = bed.node1.map_region(64, PROT_RW)
        mr = bed.hca1.register_memory(dst, 64)
        woke = []

        def waiter():
            yield bed.node1.monitor_event(dst)
            woke.append(bed.engine.now)

        bed.engine.spawn(waiter())
        comp = bed.qp01.post_put(0.0, src, dst, 8, mr.rkey)
        bed.engine.run()
        assert woke and woke[0] == pytest.approx(comp.delivered_at)

    def test_stash_puts_message_lines_into_llc(self):
        bed = make_bed(hier_cfg=HierarchyConfig(stash_enabled=True))
        comp, node1, dst, _ = run_put(bed, size=256)
        assert all(node1.hier.llc.probe((dst >> 6) + i) for i in range(4))

    def test_nonstash_message_goes_to_dram(self):
        bed = make_bed(hier_cfg=HierarchyConfig(stash_enabled=False))
        moved = bed.node1.hier.dram.lines_moved
        comp, node1, dst, _ = run_put(bed, size=256)
        assert not node1.hier.llc.probe(dst >> 6)
        assert node1.hier.dram.lines_moved == moved + 4

    @settings(max_examples=20, deadline=None)
    @given(size=st.integers(1, 8192))
    def test_property_any_size_roundtrips(self, size):
        bed = make_bed()
        payload = bytes((i * 7 + 3) & 0xFF for i in range(size))
        comp, node1, dst, _ = run_put(bed, size=size, payload=payload)
        assert comp.ok
        assert node1.mem.read(dst, size) == payload


class TestGet:
    def test_get_fetches_remote_bytes(self):
        bed = make_bed()
        remote = bed.node1.map_region(64, PROT_RW)
        local = bed.node0.map_region(64, PROT_RW)
        bed.node1.mem.write_u64(remote, 777)
        mr = bed.hca1.register_memory(remote, 64, Access.REMOTE_READ)
        comp = bed.qp01.post_get(0.0, local, remote, 8, mr.rkey)
        bed.engine.run()
        assert comp.ok
        assert bed.node0.mem.read_u64(local) == 777

    def test_get_needs_read_permission(self):
        bed = make_bed()
        remote = bed.node1.map_region(64, PROT_RW)
        local = bed.node0.map_region(64, PROT_RW)
        mr = bed.hca1.register_memory(remote, 64, Access.REMOTE_WRITE)
        comp = bed.qp01.post_get(0.0, local, remote, 8, mr.rkey)
        bed.engine.run()
        assert comp.status is WcStatus.REMOTE_ACCESS_ERROR

    def test_get_rtt_exceeds_put_half_rtt(self):
        bed = make_bed()
        put = run_put(make_bed(), size=8)[0]
        remote = bed.node1.map_region(64, PROT_RW)
        local = bed.node0.map_region(64, PROT_RW)
        mr = bed.hca1.register_memory(remote, 64, Access.REMOTE_READ)
        get = bed.qp01.post_get(0.0, local, remote, 8, mr.rkey)
        bed.engine.run()
        assert get.completed_at > put.delivered_at


class TestThroughputModel:
    def test_pipelined_puts_reach_wire_bandwidth(self):
        """Streaming large puts should be limited by the 25 GB/s wire, not
        by per-message latency."""
        bed = make_bed()
        size = 32768
        n = 24
        src = bed.node0.map_region(size, PROT_RW)
        dst = bed.node1.map_region(size * n, PROT_RW)
        mr = bed.hca1.register_memory(dst, size * n)
        comps = [bed.qp01.post_put(0.0, src, dst + i * size, size, mr.rkey)
                 for i in range(n)]
        bed.engine.run()
        span_ns = comps[-1].delivered_at - comps[0].delivered_at
        gbps = size * (n - 1) / span_ns  # bytes/ns == GB/s
        assert 15.0 < gbps <= 25.5

    def test_tx_engine_serializes(self):
        bed = make_bed()
        c1 = run_put(bed, size=4096)[0]
        # second put on same QP posted at same instant must deliver later
        src = bed.node0.map_region(4096, PROT_RW)
        dst = bed.node1.map_region(4096, PROT_RW)
        mr = bed.hca1.register_memory(dst, 4096)
        c2 = bed.qp01.post_put(0.0, src, dst, 4096, mr.rkey)
        bed.engine.run()
        assert c2.delivered_at > c1.delivered_at
