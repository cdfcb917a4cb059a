"""Interference model standing in for ``stress-ng --class vm --all 1``.

The paper's §VII-C runs the benchmarks on a fully loaded system: stress-ng
VM-class workers on all four cores thrash the paging and memory systems.
Three effects matter for the measured tails and are modeled here:

1. **DRAM channel contention** — stress workers continuously stream
   memory, stealing channel time.  Modeled as periodic ``inject_busy``
   into the DRAM ledger at a configurable duty cycle with jitter.
2. **LLC pollution** — the workers' footprints evict resident lines,
   including stashed message lines if the consumer is slow.  Modeled by
   filling random clean lines into the LLC every tick.  The fills go
   through :meth:`SetAssocCache.pollute`, which installs at the tick
   only in sets the benchmark has touched (or that hold dirty lines) and
   queues the rest until an operation reaches their set: the benchmark
   touches a few percent of the LLC's sets before a restore discards
   the polluted state, so most queued fills are never installed at all,
   and the ones that are land with the same LRU ticks, the same
   evictions and the same DRAM charges as eager installs.
3. **Scheduler preemption** — benchmark threads occasionally lose the
   CPU; off-CPU episodes are heavy-tailed (lognormal).  This is the main
   source of the 99.9th-percentile spikes for *both* configurations, while
   (1)+(2) hit the non-stashed configuration much harder.

All draws come from named RNG streams so tails are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import Delay, Engine
from ..sim.rng import RngPool
from .node import Node


@dataclass
class StressConfig:
    tick_ns: float = 1000.0          # model granularity: 1 us
    dram_duty: float = 0.55          # fraction of channel stolen per tick
    dram_jitter: float = 0.8         # +- multiplicative jitter on each tick
    llc_pollution_lines: int = 48    # random LLC installs per tick
    # The benchmark threads spin at high priority; stress-ng workers only
    # rarely take the CPU from them, and briefly (the paper's stash spread
    # peaking at ~182% implies p99.9 only ~2.8x the median).
    preempt_prob: float = 0.0015    # per-core chance of losing the CPU/tick
    preempt_median_ns: float = 2600.0   # median off-CPU episode
    preempt_sigma: float = 0.6       # lognormal shape
    burst_prob: float = 0.05         # chance of a saturating burst per tick
    burst_ns: float = 2400.0         # extra channel time during a burst


class StressWorkload:
    """Background load on one node.  ``start`` spawns the driver process;
    ``stop`` lets the current tick finish and halts."""

    def __init__(self, engine: Engine, node: Node, rngs: RngPool,
                 cfg: StressConfig | None = None, cores: tuple[int, ...] = (0, 1, 2, 3)):
        self.engine = engine
        self.node = node
        self.cfg = cfg or StressConfig()
        self.cores = tuple(c for c in cores if c < node.ncores)
        self.rng = rngs.child(f"stress.n{node.node_id}")
        self._running = False
        self.ticks = 0
        self.preemptions = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.engine.spawn(self._run(), name=f"stress.n{self.node.node_id}")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        # fig11/fig12 run this body millions of times, so every per-tick
        # attribute lookup is hoisted.  LLC pollution is one pollute()
        # call per tick: it keeps the LRU clock in step and installs only
        # into eager (touched, possibly dirty) sets, queuing the rest.
        # Its count of dirty evictions is charged in one
        # charge_bandwidth_bulk at the tick's ``now``: LLC fills never
        # read DRAM state and charge_bandwidth never reads LLC state, so
        # charging after the fills is invisible to the model.  The RNG
        # draw order (rnd, rnd, integers(npoll), rnd per core) and every
        # float expression are unchanged, so results stay byte-identical.
        cfg = self.cfg
        node = self.node
        rng = self.rng
        engine = self.engine
        rnd = rng.random
        rint = rng.integers
        logn = rng.lognormal
        dram = node.hier.dram
        inject = dram.inject_busy
        charge_bulk = dram.charge_bandwidth_bulk
        pollute = node.hier.llc.pollute
        preempt = node.preempt
        dd = cfg.dram_duty
        dj = cfg.dram_jitter
        tk = cfg.tick_ns
        bp = cfg.burst_prob
        bns = cfg.burst_ns
        npoll = cfg.llc_pollution_lines
        pp = cfg.preempt_prob
        pmed = cfg.preempt_median_ns
        psig = cfg.preempt_sigma
        cores = self.cores
        delay = Delay(tk)
        llc_span_lines = node.mem.size >> 6
        while self._running:
            now = engine.now
            self.ticks += 1
            # (1) channel contention
            duty = dd * (1.0 + dj * (2.0 * rnd() - 1.0))
            inject(now, duty * tk)
            if rnd() < bp:
                inject(now, bns)
            # (2) LLC pollution
            if npoll:
                k = pollute(rint(0, llc_span_lines, npoll))
                if k:
                    charge_bulk(now, k)
            # (3) preemption
            for core in cores:
                if rnd() < pp:
                    episode = pmed * float(logn(0.0, psig))
                    preempt(core, now + episode)
                    self.preemptions += 1
            yield delay
