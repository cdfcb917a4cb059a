"""Cache hierarchy of one node, with LLC stashing and prefetching.

Geometry follows the paper's testbed (§VI-C): 4 cores at 2.6 GHz, a
private 1 MB L2 per core, a 1 MB L3 shared per 2-core cluster, and an 8 MB
shared LLC; we add conventional 64 KB L1I/L1D (the paper's "modern
superscalar processor" necessarily has them even though the text only
names L2 and up).  DRAM is the bandwidth-ledger model in :mod:`.dram`.

The two firmware/kernel toggles the paper sweeps are first-class here:

* ``stash_enabled`` — inbound DMA writes allocate into the LLC (dirty)
  instead of draining to DRAM.
* ``prefetch_enabled`` — the per-core stride prefetcher hides DRAM latency
  on trained streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MachineError
from ..obs.tracer import TRACER as _T, node_pid
from ..perf import COUNTERS as _C
from .cache import SetAssocCache, lines_touched
from .dram import Dram
from .prefetcher import StridePrefetcher


@dataclass
class HierarchyConfig:
    ncores: int = 4
    # capacities (bytes) and associativity
    l1_size: int = 64 * 1024
    l1_ways: int = 4
    l2_size: int = 1024 * 1024
    l2_ways: int = 8
    l3_size: int = 1024 * 1024
    l3_ways: int = 16
    llc_size: int = 8 * 1024 * 1024
    llc_ways: int = 16
    # load-to-use latencies (ns) at 2.6 GHz
    l1_lat: float = 1.6    # ~4 cycles
    l2_lat: float = 4.6    # ~12 cycles
    l3_lat: float = 11.5   # ~30 cycles
    llc_lat: float = 21.0  # ~55 cycles across the 1.6 GHz NOC
    # streaming (bandwidth-bound) per-line costs for batched intrinsics
    stream_line_ns: float = 0.77        # ~2 cycles/line once resident
    prefetched_line_lat: float = 6.0    # latency seen when a hot stream covers
    # Sequential instruction fetch (next-line I-prefetcher): mostly hidden
    # when the line is in the LLC, only partially hidden from DRAM (the
    # fetch-ahead distance cannot cover ~90ns at IPC 2).
    ifetch_seq_llc_ns: float = 7.0
    ifetch_seq_dram_ns: float = 9.5
    # feature toggles
    stash_enabled: bool = True
    prefetch_enabled: bool = True
    dram_base_latency_ns: float = 88.0
    dram_bandwidth_gbps: float = 42.6  # 2x DDR4-2666 channels (16 GB = 2 DIMMs)


class MemoryHierarchy:
    """All caches + DRAM of one node, shared by CPU cores and the HCA."""

    def __init__(self, cfg: HierarchyConfig | None = None):
        self.cfg = cfg = cfg or HierarchyConfig()
        # Which node this hierarchy belongs to (Node.__init__ sets it);
        # only read when tracing, to tag miss events with a track.
        self.node_id = 0
        if cfg.ncores % 2:
            raise MachineError("core count must be even (2-core clusters)")
        n = cfg.ncores
        self.l1i = [SetAssocCache(f"L1I.c{c}", cfg.l1_size, cfg.l1_ways) for c in range(n)]
        self.l1d = [SetAssocCache(f"L1D.c{c}", cfg.l1_size, cfg.l1_ways) for c in range(n)]
        self.l2 = [SetAssocCache(f"L2.c{c}", cfg.l2_size, cfg.l2_ways) for c in range(n)]
        self.l3 = [SetAssocCache(f"L3.cl{k}", cfg.l3_size, cfg.l3_ways) for k in range(n // 2)]
        self.llc = SetAssocCache("LLC", cfg.llc_size, cfg.llc_ways)
        self.dram = Dram(cfg.dram_base_latency_ns, cfg.dram_bandwidth_gbps)
        self.prefetchers = [StridePrefetcher(enabled=cfg.prefetch_enabled) for _ in range(n)]
        # per-core last instruction-fetch line (next-line I-prefetch state)
        self._last_ifetch = [-2] * n
        # hot-path constants: plain float attributes, so the L1-hit fast
        # path in access_line and the per-line stream path never chase
        # self.cfg (these are all fixed at construction)
        self._l1_lat = cfg.l1_lat
        self._stream_ns = cfg.stream_line_ns
        self._stream_l2_ns = cfg.stream_line_ns + 0.4
        self._stream_l3_ns = cfg.stream_line_ns + 1.2
        self._stream_llc_ns = max(cfg.stream_line_ns, cfg.llc_lat / 6.0)
        self._stream_covered_ns = max(self.dram.service_per_line_ns,
                                      cfg.stream_line_ns)
        # Precomputed per-core cache chains (the cache *objects* are
        # stable for the hierarchy's lifetime; snapshot/restore mutates
        # their contents in place):
        #  - _clean_fill[core]: the L2/L3/LLC legs of a fill walk
        #  - _snoop_set[core]:  every cache an owner-core snoop must probe
        self._clean_fill = [(self.l2[c], self.l3[c >> 1], self.llc)
                            for c in range(n)]
        self._snoop_set = [(self.l1i[c], self.l1d[c], self.l2[c],
                            self.l3[c >> 1]) for c in range(n)]

    # ------------------------------------------------------------------
    def sample_metrics(self, registry, now: float) -> None:
        """Sample cumulative per-level hit-rate gauges into ``registry``.

        Call sites gate on ``registry.enabled`` and invoke this at low
        frequency (per dispatched frame / completed send), never per
        access — the L1-hit fast path stays untouched.  Counts are part
        of the world snapshot, so the gauges are fork-deterministic.
        """
        nid = self.node_id
        for level, caches in (("l1i", self.l1i), ("l1d", self.l1d),
                              ("l2", self.l2), ("l3", self.l3),
                              ("llc", (self.llc,))):
            hits = 0
            total = 0
            for c in caches:
                hits += c.hits
                total += c.hits + c.misses
            if total:
                registry.sample(
                    f"tc_cache_hit_rate|node={nid}|level={level}",
                    now, hits / total)

    # ------------------------------------------------------------------
    def _cluster(self, core: int) -> int:
        return core // 2

    def _writeback(self, now: float, _line: int) -> None:
        self.dram.charge_bandwidth(now, 1)

    def _install_path(self, now: float, core: int, line: int, l1: SetAssocCache,
                      dirty: bool) -> None:
        """Fill a line into L1/L2/L3/LLC after a miss, charging write-backs.

        The install body is inlined per level (this runs once per line of
        every streamed payload); write-backs are charged one line at a
        time, in eviction order, so the DRAM ledger floats match the
        per-call formulation exactly.
        """
        llc = self.llc
        eager = llc._eager
        if eager is not None and not eager[line & llc._set_mask]:
            llc.settle(line, line)  # replay the LLC leg's queued pollution
        charge = self.dram.charge_bandwidth
        # L1 leg: the only level that can install dirty.  Invalid ways
        # always carry dirty=False (invalidate/snoop reset it), so the
        # dirty bit is only written when it can actually change: on a
        # dirty fill, or when clearing an evicted dirty way.
        m = l1._map
        l1._tick = tick = l1._tick + 1
        sidx = line & l1._set_mask
        lru = l1.lru
        way = m.get(line)
        if way is not None:  # refresh
            lru[sidx][way] = tick
            if dirty:
                l1.dirty[sidx][way] = True
        else:
            tags = l1.tags
            row = tags.get(sidx)
            if row is None:
                w = l1.ways
                row = tags[sidx] = [-1] * w
                lrow = lru[sidx] = [0] * w
                l1.dirty[sidx] = [False] * w
                way = 0  # fresh set: every way is free
            elif -1 in row:
                way = row.index(-1)
                lrow = lru[sidx]
            else:
                lrow = lru[sidx]
                way = lrow.index(min(lrow))
                drow = l1.dirty[sidx]
                if drow[way]:
                    charge(now, 1)
                    drow[way] = False
                del m[row[way]]
            row[way] = line
            m[line] = way
            lrow[way] = tick
            if dirty:
                l1.dirty[sidx][way] = True
        # Clean legs (L2 -> L3 -> LLC): identical walk, dirty never set.
        for cache in self._clean_fill[core]:
            m = cache._map
            cache._tick = tick = cache._tick + 1
            way = m.get(line)
            lru = cache.lru
            if way is not None:  # refresh (typical for the LLC level)
                lru[line & cache._set_mask][way] = tick
                continue
            sidx = line & cache._set_mask
            tags = cache.tags
            row = tags.get(sidx)
            if row is None:
                w = cache.ways
                row = tags[sidx] = [-1] * w
                lrow = lru[sidx] = [0] * w
                cache.dirty[sidx] = [False] * w
                way = 0
            elif -1 in row:
                way = row.index(-1)
                lrow = lru[sidx]
            else:
                lrow = lru[sidx]
                way = lrow.index(min(lrow))
                drow = cache.dirty[sidx]
                if drow[way]:
                    charge(now, 1)
                    drow[way] = False
                del m[row[way]]
            row[way] = line
            m[line] = way
            lrow[way] = tick

    # ------------------------------------------------------------------
    def access_line(self, now: float, core: int, line: int, kind: str) -> float:
        """One demand access by ``core`` to line ``line``.

        kind: 'read' | 'write' | 'ifetch'.  Returns load-to-use latency ns.
        """
        _C.cache_probes += 1
        write = kind == "write"
        if kind != "ifetch":
            # L1D hit: the 95%+ case for both loads and stores.  Inline
            # the lookup (one dict get) and skip every other attribute
            # chase on this path.
            l1 = self.l1d[core]
            way = l1._map.get(line)
            if way is not None:
                l1.hits += 1
                l1._tick += 1
                sidx = line & l1._set_mask
                l1.lru[sidx][way] = l1._tick
                if write:
                    l1.dirty[sidx][way] = True
                return self._l1_lat
        cfg = self.cfg
        ifetch = kind == "ifetch"
        if ifetch:
            # Sequential fetch that hits L1I: the straight-line hot-loop
            # case, inlined like the L1D path above.  A miss (or taken
            # branch) falls through to the full model, which re-derives
            # ``sequential`` — ``_last_ifetch`` is untouched here on miss.
            last = self._last_ifetch
            if line == last[core] + 1:
                l1 = self.l1i[core]
                way = l1._map.get(line)
                if way is not None:
                    last[core] = line
                    l1.hits += 1
                    l1._tick += 1
                    l1.lru[line & l1._set_mask][way] = l1._tick
                    return self._l1_lat
            # The front end runs a next-line instruction prefetcher:
            # straight-line code never stalls on fetch; only taken
            # branches to cold lines pay the full miss.
            sequential = line == self._last_ifetch[core] + 1
            self._last_ifetch[core] = line
            if sequential:
                l1 = self.l1i[core]
                if l1.access(line):
                    return cfg.l1_lat
                if (self.l2[core].access(line, False)
                        or self.l3[self._cluster(core)].access(line, False)):
                    l1.install(line)
                    return cfg.l1_lat
                in_llc = self.llc.access(line, False)
                self._install_path(now, core, line, l1, False)
                if in_llc:
                    if _T.enabled:
                        _T.instant(node_pid(self.node_id), core,
                                   "cache.miss.llc", now, {"kind": kind})
                    return cfg.ifetch_seq_llc_ns
                self.dram.charge_bandwidth(now, 1)
                if _T.enabled:
                    _T.instant(node_pid(self.node_id), core,
                               "cache.miss.dram", now, {"kind": kind})
                return cfg.ifetch_seq_dram_ns  # front end runs ahead of the queue
        if ifetch:
            l1 = self.l1i[core]
            if l1.access(line, write):
                return cfg.l1_lat
        else:
            # reads and writes only reach here on an L1D miss — the
            # inline hit path above already returned
            l1 = self.l1d[core]
            l1.misses += 1
        l2 = self.l2[core]
        way = l2._map.get(line)
        if way is not None:
            l2.hits += 1
            l2._tick += 1
            l2.lru[line & l2._set_mask][way] = l2._tick
            l1.install(line, dirty=write)
            if _T.enabled:
                _T.instant(node_pid(self.node_id), core, "cache.miss.l2",
                           now, {"kind": kind})
            return cfg.l2_lat
        l2.misses += 1
        # Inline L3/LLC probes, as in _stream_line: demand misses that
        # reach this depth walk both probes on the way to DRAM.
        l3 = self.l3[core >> 1]
        way = l3._map.get(line)
        if way is not None:
            l3.hits += 1
            l3._tick += 1
            l3.lru[line & l3._set_mask][way] = l3._tick
            ev = l2.install(line)
            if ev is not None and ev[1]:
                self._writeback(now, ev[0])
            l1.install(line, dirty=write)
            if _T.enabled:
                _T.instant(node_pid(self.node_id), core, "cache.miss.l3",
                           now, {"kind": kind})
            return cfg.l2_lat + (cfg.l3_lat - cfg.l2_lat)
        l3.misses += 1
        llc = self.llc
        eager = llc._eager
        if eager is not None and not eager[line & llc._set_mask]:
            llc.settle(line, line)
        way = llc._map.get(line)
        if way is not None:
            llc.hits += 1
            llc._tick += 1
            llc.lru[line & llc._set_mask][way] = llc._tick
            self._install_path(now, core, line, l1, write)
            if _T.enabled:
                _T.instant(node_pid(self.node_id), core, "cache.miss.llc",
                           now, {"kind": kind})
            return cfg.llc_lat
        llc.misses += 1
        # Miss all the way to DRAM.
        covered = self.prefetchers[core].observe_miss(line)
        self._install_path(now, core, line, l1, write)
        if _T.enabled:
            _T.instant(node_pid(self.node_id), core, "cache.miss.dram",
                       now, {"kind": kind, "prefetched": covered})
        if covered:
            # A hot stream already has the line in flight: latency mostly
            # hidden, but the line still crosses the DRAM channel.
            self.dram.charge_bandwidth(now, 1)
            return cfg.prefetched_line_lat + self.dram.queue_delay(now) * 0.25
        return self.dram.access(now, 1)

    def access(self, now: float, core: int, addr: int, size: int, kind: str) -> float:
        """Demand access possibly spanning lines; latencies accumulate."""
        if size > 0 and addr >> 6 == addr + size - 1 >> 6:
            # within one line: the overwhelmingly common case (VM loads
            # and stores are <= 8 bytes).  Duplicate access_line's L1D
            # hit path here to save the delegation call itself.
            line = addr >> 6
            if kind != "ifetch":
                l1 = self.l1d[core]
                way = l1._map.get(line)
                if way is not None:
                    _C.cache_probes += 1
                    l1.hits += 1
                    l1._tick += 1
                    sidx = line & l1._set_mask
                    l1.lru[sidx][way] = l1._tick
                    if kind == "write":
                        l1.dirty[sidx][way] = True
                    return self._l1_lat
            return self.access_line(now, core, line, kind)
        total = 0.0
        for line in lines_touched(addr, size):
            total += self.access_line(now + total, core, line, kind)
        return total

    # ------------------------------------------------------------------
    def stream_cost(self, now: float, core: int, addr: int, size: int,
                    kind: str, ops_per_byte: float = 0.0) -> float:
        """Cost of a batched sequential sweep (memcpy/sum intrinsics).

        Resident lines stream at ``stream_line_ns``; misses pay the demand
        path (which the prefetcher will progressively cover).  CPU work per
        byte (``ops_per_byte`` cycles) is added on top, max'd against the
        memory cost per line since real cores overlap the two.
        """
        if size <= 0:
            return 0.0
        # The per-line L1D hit path is open-coded here (warm streams hit
        # L1 on nearly every line) with the tick and the hit/probe
        # counters batched in locals; both are flushed before any miss
        # takes the full `_stream_line` walk, which reads and bumps the
        # same state.
        l1 = self.l1d[core]
        m = l1._map
        lru = l1.lru
        dirty = l1.dirty
        mask = l1._set_mask
        write = kind == "write"
        stream_ns = self._stream_ns
        stream_line = self._stream_line
        tick = l1._tick
        pend = 0
        mem_total = 0.0
        for line in lines_touched(addr, size):
            way = m.get(line)
            if way is not None:
                pend += 1
                tick += 1
                sidx = line & mask
                lru[sidx][way] = tick
                if write:
                    dirty[sidx][way] = True
                mem_total += stream_ns
                continue
            if pend:
                l1.hits += pend
                _C.cache_probes += pend
                pend = 0
            l1._tick = tick
            mem_total += stream_line(now + mem_total, core, line, kind)
            tick = l1._tick  # the fill walk bumped it
        if pend:
            l1.hits += pend
            _C.cache_probes += pend
        l1._tick = tick
        cpu_total = ops_per_byte * size / 2.6  # cycles -> ns at 2.6 GHz
        return max(mem_total, cpu_total)

    def _stream_line(self, now: float, core: int, line: int, kind: str) -> float:
        _C.cache_probes += 1
        write = kind == "write"
        l1 = self.l1d[core]
        # inline L1D hit (dominant once a stream is warm), as in access_line
        way = l1._map.get(line)
        if way is not None:
            l1.hits += 1
            l1._tick += 1
            sidx = line & l1._set_mask
            l1.lru[sidx][way] = l1._tick
            if write:
                l1.dirty[sidx][way] = True
            return self._stream_ns
        l1.misses += 1
        # Inline the L2/L3/LLC probes (SetAssocCache.access bodies, hit
        # and miss bookkeeping included) — on a cold streamed payload
        # every line walks this whole chain, so the three delegation
        # calls are pure dispatch overhead.
        l2 = self.l2[core]
        way = l2._map.get(line)
        if way is not None:
            l2.hits += 1
            l2._tick += 1
            l2.lru[line & l2._set_mask][way] = l2._tick
            l1.install(line, dirty=write)
            return self._stream_l2_ns
        l2.misses += 1
        l3 = self.l3[core >> 1]
        way = l3._map.get(line)
        if way is not None:
            l3.hits += 1
            l3._tick += 1
            l3.lru[line & l3._set_mask][way] = l3._tick
            l1.install(line, dirty=write)
            l2.install(line)
            return self._stream_l3_ns
        l3.misses += 1
        llc = self.llc
        eager = llc._eager
        if eager is not None and not eager[line & llc._set_mask]:
            llc.settle(line, line)
        way = llc._map.get(line)
        if way is not None:
            llc.hits += 1
            llc._tick += 1
            llc.lru[line & llc._set_mask][way] = llc._tick
            self._install_path(now, core, line, l1, write)
            # LLC streaming reads are pipelined; pay a fraction of the
            # load-to-use latency per line.
            return self._stream_llc_ns
        llc.misses += 1
        covered = self.prefetchers[core].observe_miss(line)
        self._install_path(now, core, line, l1, write)
        if covered:
            self.dram.charge_bandwidth(now, 1)
            return self._stream_covered_ns
        return self.dram.access(now, 1)

    # ------------------------------------------------------------------
    def dma_write(self, now: float, addr: int, size: int,
                  owner_core: int | None = None) -> float:
        """Inbound DMA (HCA -> memory).  Returns channel occupancy ns.

        With stashing the payload is allocated into the LLC (dirty) and the
        only DRAM traffic is eventual write-back of evicted lines; without
        it the payload drains straight to DRAM.  Stale copies in CPU caches
        are invalidated either way (the HCA is coherent).  ``owner_core``
        narrows the snoop to the caches that can actually hold mailbox
        lines, which every call site knows.
        """
        lines = list(lines_touched(addr, size))
        self._snoop_invalidate(lines, owner_core)
        llc = self.llc
        if llc._eager is not None and lines:
            # Queued pollution lands first; a stash then keeps these
            # sets eager, so their dirty lines age under exact pollution.
            llc.settle(lines[0], lines[-1])
        if self.cfg.stash_enabled:
            # Inline SetAssocCache.install for the LLC fill loop (every
            # payload line passes through here when stashing is on);
            # dirty evictions charge the DRAM ledger exactly as before.
            m, tags, lru, dirty = llc._map, llc.tags, llc.lru, llc.dirty
            mget = m.get
            tget = tags.get
            mask = llc._set_mask
            w = llc.ways
            charge = self.dram.charge_bandwidth
            tick = llc._tick
            # Same steady-state shortcut as SetAssocCache.install_many:
            # once every allocated set is full the invalid-way scan can
            # never hit, so skip it per line.
            full = len(m) == len(tags) * w
            for line in lines:
                tick += 1
                way = mget(line)
                if way is not None:  # refresh
                    sidx = line & mask
                    lru[sidx][way] = tick
                    dirty[sidx][way] = True
                    continue
                sidx = line & mask
                row = tget(sidx)
                if row is None:
                    row = tags[sidx] = [-1] * w
                    lrow = lru[sidx] = [0] * w
                    dirty[sidx] = [False] * w
                    way = 0  # fresh set: every way is free
                    full = False
                elif full or -1 not in row:
                    lrow = lru[sidx]
                    way = lrow.index(min(lrow))
                    if dirty[sidx][way]:
                        charge(now, 1)
                    del m[row[way]]
                else:
                    way = row.index(-1)
                    lrow = lru[sidx]
                row[way] = line
                m[line] = way
                lrow[way] = tick
                dirty[sidx][way] = True
            llc._tick = tick
            # LLC fill crosses the NOC at interconnect speed: ~64B/cycle at
            # 1.6 GHz -> 0.625ns/line; generous but the NOC is not the
            # bottleneck in this system.
            return len(lines) * 0.625
        llc_map = llc._map
        for line in lines:
            if line in llc_map:
                llc.invalidate(line)
        q = self.dram.charge_bandwidth(now, len(lines))
        return len(lines) * self.dram.service_per_line_ns + q

    def dma_read(self, now: float, addr: int, size: int,
                 owner_core: int | None = None) -> float:
        """Outbound DMA (memory -> HCA): source lines are read from LLC if
        present, else from DRAM; returns occupancy ns for pacing."""
        lines = list(lines_touched(addr, size))
        llc = self.llc
        if llc._eager is not None and lines:
            llc.settle(lines[0], lines[-1])
        # C-level residency count: map() over the dict's __contains__
        # beats a genexpr of probe() calls on these multi-hundred-line
        # payload spans
        dram_lines = len(lines) - sum(map(llc._map.__contains__, lines))
        if dram_lines:
            q = self.dram.charge_bandwidth(now, dram_lines)
        else:
            q = 0.0
        return len(lines) * 0.625 + dram_lines * self.dram.service_per_line_ns + q

    def _snoop_invalidate(self, lines: list[int], owner_core: int | None) -> None:
        if owner_core is None:
            caches = []
            for c in range(self.cfg.ncores):
                caches += (self.l1i[c], self.l1d[c], self.l2[c])
            caches += self.l3
        else:
            caches = self._snoop_set[owner_core]
        # The DMA span is a contiguous line range, so residency can be
        # found from whichever side is smaller: scan the cache's resident
        # map with two range compares, or probe each span line against
        # the map.  Residents are dropped without write-back (the HCA
        # overwrites the whole line), exactly as before.
        if not lines:
            return
        first = lines[0]
        last = lines[-1]
        nlines = len(lines)
        for cache in caches:
            cmap = cache._map
            if not cmap:
                continue
            if len(cmap) <= nlines:
                hits = [ln for ln in cmap if first <= ln <= last]
            else:
                hits = [ln for ln in lines if ln in cmap]
            if not hits:
                continue
            mask = cache._set_mask
            tags, lru, dirty = cache.tags, cache.lru, cache.dirty
            for line in hits:
                way = cmap.pop(line)
                sidx = line & mask
                tags[sidx][way] = -1
                dirty[sidx][way] = False
                lru[sidx][way] = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture every cache level, DRAM ledger, prefetchers, and the
        sequential-ifetch state."""
        return {
            "l1i": [c.snapshot() for c in self.l1i],
            "l1d": [c.snapshot() for c in self.l1d],
            "l2": [c.snapshot() for c in self.l2],
            "l3": [c.snapshot() for c in self.l3],
            "llc": self.llc.snapshot(),
            "dram": self.dram.snapshot(),
            "prefetchers": [p.snapshot() for p in self.prefetchers],
            "last_ifetch": list(self._last_ifetch),
        }

    def restore(self, snap: dict) -> None:
        for group, snaps in (("l1i", snap["l1i"]), ("l1d", snap["l1d"]),
                             ("l2", snap["l2"]), ("l3", snap["l3"])):
            for cache, s in zip(getattr(self, group), snaps):
                cache.restore(s)
        self.llc.restore(snap["llc"])
        self.dram.restore(snap["dram"])
        for pf, s in zip(self.prefetchers, snap["prefetchers"]):
            pf.restore(s)
        self._last_ifetch[:] = snap["last_ifetch"]

    # ------------------------------------------------------------------
    def flush_all(self) -> None:
        for group in (self.l1i, self.l1d, self.l2, self.l3):
            for cache in group:
                cache.flush_all()
        self.llc.flush_all()
        for pf in self.prefetchers:
            pf.reset()
