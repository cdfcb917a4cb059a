"""Set-associative cache with true-LRU replacement.

All caches in the hierarchy (L1I/L1D/L2/L3/LLC) are instances of
:class:`SetAssocCache`.  State is kept in plain Python ints — per-set
rows of resident line addresses, LRU ticks and dirty bits — plus a
``line -> way`` dict (``_map``) covering every resident line.  The dict
makes the three operations that dominate simulator profiles O(1):
presence probes (DMA snoops are >90% misses), hit lookups, and
invalidations.  Only the install path still scans a set row, and that
row is a tiny list of ints (``ways`` <= 16).

An earlier numpy-backed layout paid a scalar-scan (`row[way] == tag`)
per probe; at the access counts our benchmarks reach the dict design is
~4x faster end to end (see docs/ARCHITECTURE.md, "Performance
engineering").

Background pollution (:meth:`SetAssocCache.pollute`, fed by the stress
model in :mod:`.noise`) is lazy: lines bound for sets no operation has
touched are queued with their LRU tick and installed only when an
operation next touches their set (:meth:`SetAssocCache.settle`), or when
the queue must be emptied (snapshot, memory cap).  Sets are independent
and pollution fills are clean, so the replayed state -- every tag, LRU
tick and eviction choice -- is the one installing at the tick leaves.

Addresses are node-physical.  The cache works in units of *lines*
(``line_addr = addr >> 6`` for 64-byte lines).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import MachineError

LINE_SHIFT = 6
LINE_BYTES = 1 << LINE_SHIFT

#: Queued pollution lines one cache holds before installing them all
#: (~10 bytes each, so ~5 MB).  The longest registered stress point
#: (fig12 at 32 KiB) queues ~313k lines per node; a longer one installs
#: the queue at the cap and goes on, instead of growing memory.
PENDING_CAP_LINES = 1 << 19


def line_of(addr: int) -> int:
    return addr >> LINE_SHIFT


def lines_touched(addr: int, size: int) -> range:
    """Range of line addresses overlapped by [addr, addr+size)."""
    if size <= 0:
        return range(0)
    return range(addr >> LINE_SHIFT, (addr + size - 1 >> LINE_SHIFT) + 1)


class SetAssocCache:
    """One cache level.

    Parameters
    ----------
    name:
        Label for stats (e.g. ``"L2.c0"``).
    size_bytes:
        Total capacity; must be sets*ways*64.
    ways:
        Associativity.
    """

    __slots__ = (
        "name", "size_bytes", "ways", "sets", "_set_mask", "_map",
        "tags", "lru", "dirty", "_tick", "hits", "misses",
        "_eager", "_queue", "_pend",
    )

    def __init__(self, name: str, size_bytes: int, ways: int):
        if size_bytes % (ways * LINE_BYTES):
            raise MachineError(
                f"{name}: size {size_bytes} not divisible by ways*line"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.sets = size_bytes // (ways * LINE_BYTES)
        if self.sets & (self.sets - 1):
            raise MachineError(f"{name}: set count {self.sets} not a power of 2")
        self._set_mask = self.sets - 1
        # Per-set rows: resident line address (-1 = invalid), LRU tick,
        # dirty bit.  Rows are created lazily on first install into a
        # set — a 32 MB LLC has 32k sets, and benchmarks construct whole
        # hierarchies per sweep point, so eager allocation dominates the
        # constructor.  A line present in ``_map`` (line -> way, every
        # resident line) implies its set's rows exist.
        self.tags: dict[int, list[int]] = {}
        self.lru: dict[int, list[int]] = {}
        self.dirty: dict[int, list[bool]] = {}
        self._map: dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        # Lazy pollution state (see pollute/settle).  ``_eager`` is None
        # until the first pollute() after construction, restore or
        # flush_all; then one byte per set, 1 = pollution installs at the
        # tick.  ``_queue`` = (lines, set indexes, base ticks) with one
        # row per pollute() call; ``_pend`` rows are queued.
        self._eager: Optional[bytearray] = None
        self._queue: Optional[tuple] = None
        self._pend = 0

    # -- operations ---------------------------------------------------------

    def probe(self, line_addr: int) -> bool:
        """Presence test with no LRU side effects (used by DMA snoop)."""
        eager = self._eager
        if eager is not None and not eager[line_addr & self._set_mask]:
            self.settle(line_addr, line_addr)
        return line_addr in self._map

    def access(self, line_addr: int, write: bool = False) -> bool:
        """Look up a line; on hit update LRU (and dirty for writes).

        Returns True on hit.  Misses do NOT allocate — callers decide
        whether to ``install`` after fetching from the next level.
        """
        eager = self._eager
        if eager is not None and not eager[line_addr & self._set_mask]:
            self.settle(line_addr, line_addr)
        way = self._map.get(line_addr)
        if way is None:
            self.misses += 1
            return False
        self.hits += 1
        self._tick += 1
        sidx = line_addr & self._set_mask
        self.lru[sidx][way] = self._tick
        if write:
            self.dirty[sidx][way] = True
        return True

    def install(self, line_addr: int, dirty: bool = False
                ) -> Optional[tuple[int, bool]]:
        """Fill a line, evicting the LRU way if the set is full.

        Returns (evicted_line_addr, evicted_dirty) or None.  Installing a
        line already present just refreshes it.
        """
        eager = self._eager
        if eager is not None and not eager[line_addr & self._set_mask]:
            self.settle(line_addr, line_addr)
        self._tick = tick = self._tick + 1
        sidx = line_addr & self._set_mask
        way = self._map.get(line_addr)
        if way is not None:
            self.lru[sidx][way] = tick
            if dirty:
                self.dirty[sidx][way] = True
            return None
        row = self.tags.get(sidx)
        if row is None:
            row = self.tags[sidx] = [-1] * self.ways
            self.lru[sidx] = [0] * self.ways
            self.dirty[sidx] = [False] * self.ways
        evicted: Optional[tuple[int, bool]] = None
        # Prefer an invalid way; otherwise evict true-LRU.  Scans stay
        # at C speed (list `in`/`index`/`min`); ticks are unique, so
        # `index(min(...))` is the unambiguous LRU way.
        if -1 in row:
            way = row.index(-1)
        else:
            lru_row = self.lru[sidx]
            way = lru_row.index(min(lru_row))
            old_line = row[way]
            evicted = (old_line, self.dirty[sidx][way])
            del self._map[old_line]
        row[way] = line_addr
        self._map[line_addr] = way
        self.lru[sidx][way] = tick
        self.dirty[sidx][way] = dirty
        return evicted

    def install_many(self, line_addrs) -> int:
        """Bulk clean-fill; returns the count of dirty lines evicted.

        Semantically identical to calling :meth:`install` once per element
        with ``dirty=False`` — same tick sequence, same eviction decisions —
        but with the per-call attribute lookups hoisted.  The fill
        primitive of lazy pollution: ``pollute`` and its replays install
        through it.  Lines are taken as they are: a set with queued
        pollution must be settled first.
        """
        tick = self._tick
        mask = self._set_mask
        mp = self._map
        mget = mp.get
        tags = self.tags
        tget = tags.get
        lru = self.lru
        dirty = self.dirty
        ways = self.ways
        ndirty = 0
        # Steady state for a polluted cache: every allocated set is full,
        # so the invalid-way scan below cannot find anything — skip it.
        # Allocating a fresh set re-arms the scan; a stale False is safe
        # (it just falls back to the scan), a stale True is impossible
        # (evictions keep occupancy constant, fills only grow it).
        full = len(mp) == len(tags) * ways
        for line_addr in line_addrs:
            tick += 1
            way = mget(line_addr)
            if way is not None:
                lru[line_addr & mask][way] = tick
                continue
            sidx = line_addr & mask
            row = tget(sidx)
            if row is None:
                row = tags[sidx] = [-1] * ways
                lrow = lru[sidx] = [0] * ways
                dirty[sidx] = [False] * ways
                way = 0
                full = False
            elif full or -1 not in row:
                lrow = lru[sidx]
                way = lrow.index(min(lrow))
                drow = dirty[sidx]
                if drow[way]:
                    ndirty += 1
                    drow[way] = False
                del mp[row[way]]
            else:
                # Invalid ways carry dirty=False (invalidate and snoop
                # reset it), so only the eviction path must clear it.
                way = row.index(-1)
                lrow = lru[sidx]
            row[way] = line_addr
            mp[line_addr] = way
            lrow[way] = tick
        self._tick = tick
        return ndirty

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was dirty."""
        eager = self._eager
        if eager is not None and not eager[line_addr & self._set_mask]:
            self.settle(line_addr, line_addr)
        way = self._map.pop(line_addr, None)
        if way is None:
            return False
        sidx = line_addr & self._set_mask
        was_dirty = self.dirty[sidx][way]
        self.tags[sidx][way] = -1
        self.dirty[sidx][way] = False
        self.lru[sidx][way] = 0
        return was_dirty

    def flush_all(self) -> int:
        """Invalidate everything; returns count of dirty lines dropped."""
        self._discard()
        ndirty = sum(row.count(True) for row in self.dirty.values())
        self.tags.clear()
        self.dirty.clear()
        self.lru.clear()
        self._map.clear()
        return ndirty

    def snapshot(self) -> tuple:
        """Full replacement-state capture (tags/LRU/dirty/stats)."""
        self._materialize()
        return (
            {s: row[:] for s, row in self.tags.items()},
            {s: row[:] for s, row in self.lru.items()},
            {s: row[:] for s, row in self.dirty.items()},
            dict(self._map),
            self._tick, self.hits, self.misses,
        )

    def restore(self, snap: tuple) -> None:
        self._discard()
        tags, lru, dirty, amap, tick, hits, misses = snap
        self.tags = {s: row[:] for s, row in tags.items()}
        self.lru = {s: row[:] for s, row in lru.items()}
        self.dirty = {s: row[:] for s, row in dirty.items()}
        self._map = dict(amap)
        self._tick = tick
        self.hits = hits
        self.misses = misses

    # -- lazy pollution --------------------------------------------------------
    #
    # A set is *eager* once an operation has touched it since the last
    # restore (or if it held a dirty line then): pollution bound for it
    # installs at the tick.  Every other set's pollution waits in the
    # queue.  Eager sets are a superset of the sets that can hold dirty
    # lines -- only stash DMA dirties LLC lines, and it settles the sets
    # it writes -- so every dirty eviction pollution causes is still
    # reported at its own tick, and queued fills never evict a dirty line.

    def pollute(self, line_addrs: np.ndarray) -> int:
        """One tick of clean background fills, lazily.

        Same result as ``install_many(line_addrs.tolist())``: the LRU
        clock advances by ``len(line_addrs)`` (line ``i`` owns tick
        ``_tick + i + 1``) and the return value counts dirty evictions.
        Lines for eager sets install now; the rest are queued.
        """
        width = len(line_addrs)
        if self._eager is None:
            self._start_queue(width)
        elif self._queue[0].shape[1] != width:
            self._materialize()
            self._queue = self._alloc_queue(width)
        lines, sets, base = self._queue
        set_idx = line_addrs & self._set_mask
        tick = self._tick
        self._tick = tick + width
        ndirty = 0
        hot = np.frombuffer(self._eager, np.uint8)[set_idx].nonzero()[0]
        if len(hot):
            ndirty = self._replay(line_addrs[hot].tolist(),
                                  (hot + (tick + 1)).tolist())
        row = self._pend
        if row == len(base):
            self._materialize()
            row = 0
        lines[row] = line_addrs
        sets[row] = set_idx
        base[row] = tick
        self._pend = row + 1
        return ndirty

    def settle(self, first: int, last: int) -> None:
        """Make the sets of lines ``first..last`` exact and eager.

        Replays, in tick order, every queued line bound for one of those
        sets that is not yet eager, then marks them all eager.  Only
        called while pollution is active (``_eager`` set); the hierarchy
        calls it before every LLC operation on a line or line span.
        """
        eager = self._eager
        nsets = self.sets
        lo = first & self._set_mask
        hi = lo + last - first + 1
        if hi <= nsets:
            spans = ((lo, hi),)
        elif hi - lo >= nsets:
            spans = ((0, nsets),)
        else:  # the span wraps past the last set
            spans = ((lo, nsets), (0, hi - nsets))
        if all(eager.find(0, a, b) < 0 for a, b in spans):
            return  # the common case: every set already eager
        n = self._pend
        if n:
            lines, sets, base = self._queue
            queued = sets[:n].reshape(-1)
            if first == last:  # one set, and it is not eager
                idx = (queued == lo).nonzero()[0]
            else:
                sel = np.zeros(len(queued), dtype=bool)
                for a, b in spans:
                    sel |= (queued >= a) & (queued < b)
                idx = sel.nonzero()[0]
                idx = idx[np.frombuffer(eager, np.uint8)[queued[idx]] == 0]
            if len(idx):
                rows, cols = np.divmod(idx, lines.shape[1])
                self._replay(lines.reshape(-1)[idx].tolist(),
                             (base[rows] + cols + 1).tolist())
        for a, b in spans:
            eager[a:b] = b"\x01" * (b - a)

    def _replay(self, line_addrs: list, ticks: list) -> int:
        """Install clean lines (in tick order) at their recorded LRU
        ``ticks``; returns the dirty evictions.  Each run of consecutive
        ticks is one ``install_many`` call from a rewound clock."""
        now = self._tick
        ndirty = 0
        n = len(ticks)
        a = 0
        while a < n:
            origin = ticks[a] - a
            b = a + 1
            while b < n and ticks[b] - b == origin:
                b += 1
            self._tick = ticks[a] - 1
            ndirty += self.install_many(line_addrs[a:b])
            a = b
        self._tick = now
        return ndirty

    def _materialize(self) -> None:
        """Install every queued line at its tick; the queue empties."""
        n = self._pend
        if not n:
            return
        lines, sets, base = self._queue
        eager = np.frombuffer(self._eager, np.uint8)
        idx = (eager[sets[:n]].reshape(-1) == 0).nonzero()[0]
        rows, cols = np.divmod(idx, lines.shape[1])
        self._replay(lines.reshape(-1)[idx].tolist(),
                     (base[rows] + cols + 1).tolist())
        self._pend = 0

    def _start_queue(self, width: int) -> None:
        """Begin lazy pollution: sets holding a dirty line start eager."""
        eager = bytearray(self.sets)
        for sidx, row in self.dirty.items():
            if True in row:
                eager[sidx] = 1
        self._eager = eager
        self._queue = self._alloc_queue(width)

    def _alloc_queue(self, width: int) -> tuple:
        """Fixed-size queue rows: lines, their set indexes, base ticks.
        Pages are only committed as rows fill."""
        rows = max(1, PENDING_CAP_LINES // max(width, 1))
        return (np.empty((rows, width), dtype=np.int64),
                np.empty((rows, width),
                         dtype=np.min_scalar_type(self.sets - 1)),
                np.empty(rows, dtype=np.int64))

    def _discard(self) -> None:
        """Drop queued pollution (restore and flush_all replace the state
        it would have filled)."""
        self._eager = None
        self._queue = None
        self._pend = 0

    @property
    def occupancy(self) -> int:
        self._materialize()
        return len(self._map)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssocCache({self.name}, {self.size_bytes >> 10}KiB, "
            f"{self.ways}-way, hits={self.hits}, misses={self.misses})"
        )
