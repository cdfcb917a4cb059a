"""Tests for the cache hierarchy: miss paths, stashing, prefetch, DMA."""

import pytest

from repro.machine import HierarchyConfig, MemoryHierarchy
from repro.machine.prefetcher import StridePrefetcher


def make(stash=True, prefetch=True, **kw):
    return MemoryHierarchy(HierarchyConfig(
        stash_enabled=stash, prefetch_enabled=prefetch, **kw))


class TestDemandPath:
    def test_cold_miss_pays_dram_then_l1_hit(self):
        h = make(prefetch=False)
        cold = h.access(0.0, core=0, addr=0x10000, size=8, kind="read")
        warm = h.access(100.0, core=0, addr=0x10000, size=8, kind="read")
        assert cold >= h.cfg.dram_base_latency_ns
        assert warm == h.cfg.l1_lat

    def test_l2_hit_after_l1_eviction(self):
        h = make(prefetch=False)
        base = 0x100000
        h.access(0.0, 0, base, 8, "read")
        # Thrash L1 (64KB, 4-way, 256 sets): 5 more lines in the same set.
        l1_span = 64 * 1024
        for i in range(1, 6):
            h.access(0.0, 0, base + i * l1_span, 8, "read")
        lat = h.access(0.0, 0, base, 8, "read")
        assert lat == h.cfg.l2_lat

    def test_ifetch_uses_l1i_not_l1d(self):
        h = make(prefetch=False)
        h.access(0.0, 0, 0x20000, 8, "ifetch")
        # L1I now holds the line; L1D does not.
        assert h.l1i[0].probe(0x20000 >> 6)
        assert not h.l1d[0].probe(0x20000 >> 6)

    def test_multi_line_access_accumulates(self):
        h = make(prefetch=False)
        one = h.access(0.0, 0, 0x30000, 8, "read")
        h.flush_all()
        two = h.access(0.0, 0, 0x40000, 128, "read")
        assert two > one

    def test_write_allocates_dirty_and_writeback_charges_dram(self):
        h = make(prefetch=False)
        h.access(0.0, 0, 0x50000, 8, "write")
        assert h.l1d[0].probe(0x50000 >> 6)
        moved_before = h.dram.lines_moved
        h.flush_all()  # drops dirty silently; writebacks happen on eviction
        assert h.dram.lines_moved == moved_before

    def test_core_isolation(self):
        h = make(prefetch=False)
        h.access(0.0, 0, 0x60000, 8, "read")
        # Other core in the same cluster: misses private L1/L2, hits L3.
        lat = h.access(0.0, 1, 0x60000, 8, "read")
        assert lat == pytest.approx(h.cfg.l3_lat)
        # Core in the other cluster: hits only in LLC.
        lat2 = h.access(0.0, 2, 0x60000, 8, "read")
        assert lat2 == pytest.approx(h.cfg.llc_lat)


class TestPrefetcher:
    def test_sequential_stream_trains_and_masks_latency(self):
        h = make(prefetch=True)
        base = 0x200000
        lats = [h.access(i * 100.0, 0, base + i * 64, 8, "read")
                for i in range(16)]
        assert lats[0] >= h.cfg.dram_base_latency_ns
        # Once trained, misses are covered at prefetched latency.
        assert lats[-1] == pytest.approx(h.cfg.prefetched_line_lat, abs=5.0)

    def test_disabled_prefetcher_never_covers(self):
        h = make(prefetch=False)
        base = 0x300000
        lats = [h.access(0.0, 0, base + i * 64, 8, "read") for i in range(16)]
        assert min(lats) >= h.cfg.dram_base_latency_ns

    def test_random_pattern_does_not_train(self):
        pf = StridePrefetcher(enabled=True)
        covered = [pf.observe_miss(x) for x in (5, 900, 17, 40000, 3, 777)]
        assert not any(covered)

    def test_stride_2_trains(self):
        pf = StridePrefetcher(enabled=True)
        results = [pf.observe_miss(100 + 2 * i) for i in range(6)]
        assert results[-1] is True


class TestDma:
    def test_stash_places_lines_in_llc(self):
        h = make(stash=True)
        moved = h.dram.lines_moved
        h.dma_write(0.0, 0x400000, 256, owner_core=0)
        assert all(h.llc.probe((0x400000 >> 6) + i) for i in range(4))
        assert not h.llc.probe((0x400000 >> 6) + 4)  # exactly 4 lines
        assert h.dram.lines_moved == moved  # none crossed the DRAM channel

    def test_nonstash_goes_to_dram_and_invalidates_llc(self):
        h = make(stash=False)
        # Warm the LLC with the line first.
        h.access(0.0, 0, 0x400000, 8, "read")
        moved = h.dram.lines_moved
        h.dma_write(0.0, 0x400000, 64, owner_core=0)
        assert not h.llc.probe(0x400000 >> 6)
        assert h.dram.lines_moved == moved + 1

    def test_stashed_line_is_llc_hit_for_consumer(self):
        h = make(stash=True, prefetch=False)
        h.dma_write(0.0, 0x500000, 64, owner_core=0)
        lat = h.access(0.0, 0, 0x500000, 8, "read")
        assert lat == pytest.approx(h.cfg.llc_lat)

    def test_nonstash_line_is_dram_access_for_consumer(self):
        h = make(stash=False, prefetch=False)
        h.dma_write(0.0, 0x500000, 64, owner_core=0)
        lat = h.access(100.0, 0, 0x500000, 8, "read")
        assert lat >= h.cfg.dram_base_latency_ns

    def test_dma_invalidates_stale_cpu_copies(self):
        h = make(stash=True)
        h.access(0.0, 0, 0x600000, 8, "read")  # CPU caches the line
        h.dma_write(0.0, 0x600000, 64, owner_core=0)
        assert not h.l1d[0].probe(0x600000 >> 6)
        assert not h.l2[0].probe(0x600000 >> 6)

    def test_dma_read_prefers_llc(self):
        h = make(stash=True)
        h.dma_write(0.0, 0x700000, 128, owner_core=0)
        moved = h.dram.lines_moved
        h.dma_read(0.0, 0x700000, 128, owner_core=0)
        assert h.dram.lines_moved == moved  # served from LLC

    def test_dma_read_from_dram_charges_bandwidth(self):
        h = make(stash=False)
        moved = h.dram.lines_moved
        h.dma_read(0.0, 0x800000, 128)
        assert h.dram.lines_moved == moved + 2


class TestStreamCost:
    def test_stream_cheaper_than_demand_for_resident_data(self):
        h = make(prefetch=False)
        addr, size = 0x900000, 4096
        h.stream_cost(0.0, 0, addr, size, "read")  # warm
        warm_stream = h.stream_cost(0.0, 0, addr, size, "read")
        assert warm_stream < 4096 / 64 * h.cfg.l1_lat

    def test_cpu_bound_when_ops_dominate(self):
        h = make()
        addr, size = 0xA00000, 1024
        h.stream_cost(0.0, 0, addr, size, "read")  # warm
        t = h.stream_cost(0.0, 0, addr, size, "read", ops_per_byte=2.0)
        assert t == pytest.approx(2.0 * size / 2.6)

    def test_zero_size_free(self):
        h = make()
        assert h.stream_cost(0.0, 0, 0x100, 0, "read") == 0.0
