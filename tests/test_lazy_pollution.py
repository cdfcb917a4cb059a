"""Exactness of lazy LLC pollution (``SetAssocCache.pollute``).

The stress model fills random clean lines into the LLC every tick; the
cache queues the ones bound for sets nothing has touched and replays a
set's queue the first time an operation reaches it.  The contract is
that no simulated value moves: every latency and occupancy a hierarchy
call returns, the DRAM ledger to the exact float, the LRU clock, the
hit/miss counters, and the cache state itself must match installing
each tick's lines at the tick (``install_many`` plus
``charge_bandwidth_bulk``, the eager reference used throughout).
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.orchestrator import run_figures
from repro.bench.shapes import am_pingpong
from repro.core.stdworld import make_world
from repro.machine import cache as cache_mod
from repro.machine import HierarchyConfig, MemoryHierarchy, SetAssocCache
from repro.obs.metrics import metrics_block

# Tiny caches (two cores): L1 4 sets, L2/L3 8 sets, a 2-way LLC with
# 64 sets over 256 lines, so pollution keeps colliding with the lines
# the operations touch while many sets stay untouched (lazy) for a
# while.
NLINES = 256


def _small_cfg() -> HierarchyConfig:
    return HierarchyConfig(ncores=2, l1_size=512, l1_ways=2,
                           l2_size=1024, l2_ways=2, l3_size=2048,
                           l3_ways=4, llc_size=8192, llc_ways=2)


def _eager_pollute(cache: SetAssocCache, line_addrs) -> int:
    """The reference: install the whole tick now."""
    return cache.install_many(np.asarray(line_addrs).tolist())


def _drive(ops, lazy: bool) -> list:
    """Run ``ops`` on a fresh small hierarchy; every observable, in order."""
    h = MemoryHierarchy(_small_cfg())
    llc = h.llc
    snaps = []
    now = 0.0
    seen = []
    for op in ops:
        kind = op[0]
        now += 7.3
        if kind == "tick":
            lines = np.array(op[1], dtype=np.int64)
            k = llc.pollute(lines) if lazy else _eager_pollute(llc, lines)
            if k:
                h.dram.charge_bandwidth_bulk(now, k)
            out = k
        elif kind == "access":
            _, core, line, how = op
            out = h.access_line(now, core, line, how)
        elif kind == "fetch":  # straight-line code: sequential ifetch
            _, core, line, nlines = op
            out = [h.access_line(now, core, line + i, "ifetch")
                   for i in range(nlines)]
        elif kind == "stream":
            _, core, line, nlines, how = op
            out = h.stream_cost(now, core, line * 64 + 8, nlines * 64, how)
        elif kind == "dma_write":
            _, line, nlines, owner, stash = op
            h.cfg.stash_enabled = stash
            out = h.dma_write(now, line * 64, nlines * 64, owner)
        elif kind == "dma_read":
            _, line, nlines, owner = op
            out = h.dma_read(now, line * 64, nlines * 64, owner)
        elif kind == "snapshot":
            snaps.append(h.snapshot())
            out = None
        else:  # restore the latest snapshot, if any
            if snaps:
                h.restore(snaps[-1])
            out = len(snaps)
        seen.append((kind, out, h.dram.snapshot(), llc._tick, llc.hits,
                     llc.misses))
    seen.append(h.snapshot())  # materializes whatever is still queued
    return seen


def _ops(width: int):
    line = st.integers(0, NLINES - 1)
    core = st.integers(0, 1)
    span = st.integers(1, 8)
    owner = st.one_of(st.none(), core)
    tick = st.tuples(st.just("tick"),
                     st.lists(line, min_size=width, max_size=width))
    return st.lists(st.one_of(
        tick, tick, tick,
        st.tuples(st.just("access"), core, line,
                  st.sampled_from(("read", "write", "ifetch"))),
        st.tuples(st.just("fetch"), core, line, span),
        st.tuples(st.just("stream"), core, line, span,
                  st.sampled_from(("read", "write"))),
        st.tuples(st.just("dma_write"), line, span, owner, st.booleans()),
        st.tuples(st.just("dma_read"), line, span, owner),
        st.just(("snapshot",)),
        st.just(("restore",)),
    ), min_size=20, max_size=100)


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 6), cap=st.sampled_from((4, 24, 1 << 18)),
       data=st.data())
def test_property_lazy_pollution_matches_eager(width, cap, data):
    """Any interleaving of pollution ticks (at increasing ``now``) with
    demand reads/writes/ifetches, sequential ifetch runs, streams, stash
    and non-stash DMA writes, DMA reads and snapshot/restore leaves every
    returned value, the DRAM ledger, the LRU clock, LLC hits/misses and
    the final cache state exactly as eager installs do -- also when the
    pending cap forces materialization every few ticks."""
    ops = data.draw(_ops(width))
    with mock.patch.object(cache_mod, "PENDING_CAP_LINES", cap):
        lazy = _drive(ops, lazy=True)
    eager = _drive(ops, lazy=False)
    assert lazy == eager


# One queued set, then one operation on a line of it: every LLC leg must
# replay the queue first (a missed replay turns an LLC hit into a miss,
# or installs stale pollution over the operation's own line later).
_SET = 5
_POLLUTE = ("tick", [_SET, _SET + 64, _SET + 128, _SET + 192])
_LINE = _SET + 192  # resident after the eager tick


@pytest.mark.parametrize("op", [
    ("access", 0, _LINE, "read"),
    ("access", 1, _LINE, "write"),
    ("access", 0, _LINE, "ifetch"),
    ("fetch", 0, _LINE - 1, 2),  # sequential-ifetch path for _LINE
    ("stream", 0, _LINE, 1, "read"),
    ("dma_write", _LINE, 1, 0, True),
    ("dma_write", _LINE, 1, None, False),
    ("dma_read", _LINE, 1, None),
    ("dma_read", _LINE - 1, 2, 0),  # the queued set is the span's second
    ("dma_read", _LINE - 1, 3, 0),
])
def test_every_llc_leg_replays_queued_pollution(op):
    ops = [_POLLUTE, op, _POLLUTE, ("access", 0, _SET, "read")]
    assert _drive(ops, lazy=True) == _drive(ops, lazy=False)


@settings(max_examples=60, deadline=None)
@given(warm=st.lists(st.integers(0, NLINES - 1), max_size=40),
       dirty=st.lists(st.integers(0, NLINES - 1), max_size=10),
       ticks=st.lists(st.lists(st.integers(0, NLINES - 1), min_size=8,
                               max_size=8), min_size=1, max_size=40),
       touch=st.lists(st.integers(0, NLINES - 1), max_size=10))
def test_property_pollute_state_matches_install_many(warm, dirty, ticks,
                                                     touch):
    """Cache level: pollute() ticks interleaved with settles return the
    same dirty-eviction counts as install_many() and leave the same
    snapshot, from any starting state (dirty residents included)."""
    a = SetAssocCache("a", 4096, 4)
    b = SetAssocCache("b", 4096, 4)
    for c in (a, b):
        for ln in warm:
            c.install(ln)
        for ln in dirty:
            c.install(ln, dirty=True)
    for i, lines in enumerate(ticks):
        assert a.pollute(np.array(lines, dtype=np.int64)) == \
            b.install_many(lines)
        if i < len(touch):
            a.settle(touch[i], touch[i])
            assert a.probe(touch[i]) == b.probe(touch[i])
    assert a._tick == b._tick
    assert a.occupancy == b.occupancy
    assert a.snapshot() == b.snapshot()


def test_restore_and_flush_discard_pending_lines():
    c = SetAssocCache("c", 4096, 4)
    snap = c.snapshot()
    c.pollute(np.arange(32, dtype=np.int64))
    assert c._pend == 1 and not c._map  # queued, nothing installed
    c.restore(snap)
    assert c._pend == 0 and c._eager is None and c.snapshot() == snap
    c.pollute(np.arange(32, dtype=np.int64))
    assert c.flush_all() == 0
    assert c._pend == 0 and c.occupancy == 0


def test_pending_memory_is_capped(monkeypatch):
    monkeypatch.setattr(cache_mod, "PENDING_CAP_LINES", 64)
    c = SetAssocCache("c", 4096, 4)
    ref = SetAssocCache("r", 4096, 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        lines = rng.integers(0, 1 << 12, 16)
        c.pollute(lines)
        ref.install_many(lines.tolist())
        assert c._queue[0].size == 64  # four rows of sixteen, never more
        assert c._pend <= 4
    assert c.snapshot() == ref.snapshot()


# ---------------------------------------------------------------------------
# figure level: rows and meta.metrics, lazy vs eager; fork == fresh
# ---------------------------------------------------------------------------

def _smoke(name: str) -> str:
    run = run_figures([name], smoke=True, jobs=1, store=None)[0]
    return json.dumps({"rows": [dict(p.row) for p in run.points],
                       "metrics": metrics_block(run.metrics_snapshot)},
                      sort_keys=True)


def test_noise_figures_identical_to_eager_reference(monkeypatch):
    lazy = {name: _smoke(name) for name in ("fig11", "fig12")}
    with monkeypatch.context() as mp:
        mp.setattr(SetAssocCache, "pollute", _eager_pollute)
        eager = {name: _smoke(name) for name in ("fig11", "fig12")}
    assert lazy == eager


def _stressed_row(world) -> str:
    out = am_pingpong(world, "jam_ss_sum", 2048, warmup=2, iters=40,
                      stress=True)
    return json.dumps([out.one_way_ns, out.cycles_total, out.cycles_wait],
                      sort_keys=True)


def test_stressed_point_on_restored_world_matches_fresh():
    """Pollution still queued when a stressed point ends must not leak
    into the next point: a restored world measures like a fresh one."""
    fresh = _stressed_row(make_world(hier_cfg=HierarchyConfig(
        stash_enabled=False)))
    world = make_world(hier_cfg=HierarchyConfig(stash_enabled=False))
    cp = world.snapshot()
    assert _stressed_row(world) == fresh
    llcs = [node.hier.llc for node in world.bed.nodes]
    assert all(llc._pend for llc in llcs)  # the run left lines queued
    world.restore(cp)
    assert not any(llc._pend for llc in llcs)
    assert _stressed_row(world) == fresh
