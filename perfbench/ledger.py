"""Host-time span ledger for the traced benchmark run.

:func:`install` wraps the entry points of every simulator layer the
benchmark reports on.  Each wrapped call (or, for generator bodies, each
resumed step) becomes one span: name, start, end, parent span and sweep
point.  Spans live in flat in-memory arrays until :meth:`Ledger.save`
writes them out; :func:`rollup` turns them into per-span-name self times
(a span's duration minus the time its child spans cover).

The wrappers live here, not in the simulator, and are installed on the
classes before the first world is built: hot paths hoist bound methods
into locals and generated-code namespaces when a node is constructed, so
a wrapper installed later would be bypassed.  The traced process is a
throwaway; nothing is ever unwrapped.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

#: Span name -> layer (the metric prefix in BENCHMARK.json).
LAYER_OF = {
    "isa.call": "isa", "isa.compile_blocks": "isa",
    "hier.access_line": "hier", "hier.access": "hier",
    "hier.stream_cost": "hier", "hier.dma_write": "hier",
    "hier.dma_read": "hier",
    "llc.install_many": "llc",
    "noise.tick": "noise",
    "dram.access": "dram", "dram.charge_bandwidth": "dram",
    "dram.charge_bandwidth_bulk": "dram", "dram.inject_busy": "dram",
    "des.run": "des",
    "runtime.prepared_send": "runtime", "runtime.send_jam": "runtime",
    "runtime.put_nbi": "runtime",
    "mailbox.dispatch": "mailbox",
    "rdma.post_put": "rdma", "rdma.post_get": "rdma",
    "chainkv.wire": "chainkv", "chainkv.put": "chainkv",
    "chainkv.get": "chainkv", "chainkv.stream_puts": "chainkv",
    "chainkv.multicast_install": "chainkv", "chainkv.send_put": "chainkv",
    "chainkv.hook": "chainkv",
    "world.build": "world", "world.snapshot": "world",
    "world.restore": "world",
    "toolchain.build": "toolchain",
    "trace.touch": "trace",
}

#: Point id of spans recorded outside any sweep point (world set-up).
SETUP_POINT = -1


class Ledger:
    """In-memory span store plus the per-name work tallies."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.points = array("i")
        self.stack = [-1]
        self.point = SETUP_POINT
        # per name id: invocations, generator steps that yielded, work
        # units (LLC lines installed for install_many)
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.work: list[int] = []
        # (point, id(hierarchy)) -> LLC set indexes the benchmark's own
        # hierarchy calls touched, and -> set count for stressed nodes
        self.touched: dict[tuple[int, int], set] = {}
        self.stressed: dict[tuple[int, int], int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.yields.append(0)
            self.work.append(0)
        return nid

    def take_tallies(self) -> dict[str, dict[str, int]]:
        """Per-name call/yield/work tallies so far; resets them to 0."""
        out = {name: {"calls": self.calls[i], "yields": self.yields[i],
                      "work": self.work[i]}
               for i, name in enumerate(self.names)}
        for tally in (self.calls, self.yields, self.work):
            tally[:] = [0] * len(tally)
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_ids, dtype=np.int32),
                "start_ns": np.frombuffer(self.starts, dtype=np.int64),
                "end_ns": np.frombuffer(self.ends, dtype=np.int64),
                "parent": np.frombuffer(self.parents, dtype=np.int32),
                "point": np.frombuffer(self.points, dtype=np.int32)}

    def save(self, path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    # -- span recording ------------------------------------------------------

    def _recorders(self, nid: int):
        """(begin, end) closures for spans named ``nid``."""
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, points, stack = self.parents, self.points, self.stack
        clock = time.perf_counter_ns
        push, pop = stack.append, stack.pop

        def begin() -> int:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            points.append(self.point)
            ends.append(0)
            push(idx)
            starts.append(clock())
            return idx

        def end(idx: int) -> None:
            ends[idx] = clock()
            pop()

        return begin, end

    def wrap_call(self, name: str, fn, pre=None, work=None):
        """A wrapper recording one span per call of ``fn``.

        ``pre(*args)`` runs before the span opens (wrap it to give its
        cost a span of its own); ``work(*args)`` returns work units added
        to the name.
        """
        nid = self.name_id(name)
        begin, end = self._recorders(nid)
        calls, work_acc = self.calls, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            calls[nid] += 1
            if work is not None:
                work_acc[nid] += work(*args)
            idx = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return wrapper

    def wrap_gen(self, name: str, fn, on_create=None):
        """A wrapper for a generator function: one span per resumed step.

        The DES drives process bodies only with ``send`` (nothing in the
        simulator throws into a generator), so forwarding ``send`` and
        the return value is a faithful delegation.
        """
        nid = self.name_id(name)
        begin, end = self._recorders(nid)
        calls, yields = self.calls, self.yields

        def steps(gen):
            value = None
            while True:
                idx = begin()
                try:
                    out = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end(idx)
                yields[nid] += 1
                value = yield out

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_create is not None:
                on_create(*args)
            calls[nid] += 1
            return steps(fn(*args, **kwargs))

        return wrapper

    # -- hierarchy footprint (noise.touched_set_share) -----------------------

    def _touch(self, hier, first: int, last: int) -> None:
        key = (self.point, id(hier))
        sets = self.touched.get(key)
        if sets is None:
            sets = self.touched[key] = set()
        mask = hier.llc._set_mask
        if last - first > mask:
            sets.update(range(mask + 1))
        else:
            sets.update(line & mask for line in range(first, last + 1))

    # Parameter names match the wrapped methods', so keyword calls bind.
    def touch_line(self, hier, now, core, line, *rest, **kw) -> None:
        self._touch(hier, line, line)

    def touch_span(self, hier, now, core, addr, size, *rest, **kw) -> None:
        if size > 0:
            self._touch(hier, addr >> 6, (addr + size - 1) >> 6)

    def touch_dma(self, hier, now, addr, size, *rest, **kw) -> None:
        if size > 0:
            self._touch(hier, addr >> 6, (addr + size - 1) >> 6)

    def note_stress(self, workload, *rest) -> None:
        hier = workload.node.hier
        self.stressed[(self.point, id(hier))] = hier.llc.sets


def install(ledger: Ledger, touch: bool) -> None:
    """Wrap every traced layer entry point (call before any world exists).

    With ``touch``, hierarchy calls also record the LLC sets they touch
    (for ``noise.touched_set_share``, so only where a stress load runs);
    that bookkeeping is a ``trace.touch`` span, harness time, so it is
    not charged to whichever layer made the hierarchy call.
    """
    from repro.core import stdworld
    from repro.core.mailbox import Waiter
    from repro.core.runtime import Connection, PreparedJam
    from repro.isa.vm import NodeCodeCache, Vm
    from repro.machine.cache import SetAssocCache
    from repro.machine.dram import Dram
    from repro.machine.hierarchy import MemoryHierarchy
    from repro.machine.noise import StressWorkload
    from repro.rdma.verbs import QueuePair
    from repro.sim.engine import Engine
    from repro.ucp.worker import UcpEndpoint
    from repro.workloads.chainkv import ChainKV

    call, gen = ledger.wrap_call, ledger.wrap_gen
    H, W = MemoryHierarchy, stdworld.World

    Vm.call = call("isa.call", Vm.call)
    NodeCodeCache.compile_blocks = call("isa.compile_blocks",
                                        NodeCodeCache.compile_blocks)

    def touched(hook):
        return call("trace.touch", hook) if touch else None

    line, span, dma = (touched(ledger.touch_line), touched(ledger.touch_span),
                       touched(ledger.touch_dma))
    H.access_line = call("hier.access_line", H.access_line, pre=line)
    H.access = call("hier.access", H.access, pre=span)
    H.stream_cost = call("hier.stream_cost", H.stream_cost, pre=span)
    H.dma_write = call("hier.dma_write", H.dma_write, pre=dma)
    H.dma_read = call("hier.dma_read", H.dma_read, pre=dma)

    SetAssocCache.install_many = call(
        "llc.install_many", SetAssocCache.install_many,
        work=lambda cache, lines: len(lines))
    StressWorkload._run = gen("noise.tick", StressWorkload._run,
                              on_create=ledger.note_stress)
    for meth in ("access", "charge_bandwidth", "charge_bandwidth_bulk",
                 "inject_busy"):
        setattr(Dram, meth, call(f"dram.{meth}", getattr(Dram, meth)))

    Engine.run = call("des.run", Engine.run)

    PreparedJam.send = gen("runtime.prepared_send", PreparedJam.send)
    Connection.send_jam = gen("runtime.send_jam", Connection.send_jam)
    UcpEndpoint.put_nbi = call("runtime.put_nbi", UcpEndpoint.put_nbi)
    Waiter._dispatch = gen("mailbox.dispatch", Waiter._dispatch)
    QueuePair.post_put = call("rdma.post_put", QueuePair.post_put)
    QueuePair.post_get = call("rdma.post_get", QueuePair.post_get)

    ChainKV.__init__ = call("chainkv.wire", ChainKV.__init__)
    for meth in ("put", "get", "stream_puts", "multicast_install"):
        setattr(ChainKV, meth, call(f"chainkv.{meth}",
                                    getattr(ChainKV, meth)))
    ChainKV.send_put = gen("chainkv.send_put", ChainKV.send_put)
    hook_factory = ChainKV._replica_hook

    def replica_hook(self, node_id, waiter):
        return gen("chainkv.hook", hook_factory(self, node_id, waiter))

    ChainKV._replica_hook = replica_hook

    stdworld.make_world = call("world.build", stdworld.make_world)
    W.snapshot = call("world.snapshot", W.snapshot)
    W.restore = call("world.restore", W.restore)
    for key, build_fn in list(stdworld.PACKAGE_BUILDERS.items()):
        stdworld.PACKAGE_BUILDERS[key] = call("toolchain.build", build_fn)


def rollup(ledger: Ledger, wall_s: float) -> dict:
    """Per-span-name totals for the measured pass, plus set-up totals.

    Returns ``{"names": {name: {"calls", "steps", "yields", "work",
    "self_s"}}, "setup": {name: self_s}, "wall_s", "attributed_s",
    "unattributed_s"}``.  Pass spans are those recorded inside a sweep
    point; self times over them sum to the time covered by root spans,
    so ``attributed_s + unattributed_s == wall_s`` by construction.
    """
    a = ledger.arrays()
    n = len(ledger.names)
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ns = dur - child
    in_pass = a["point"] != SETUP_POINT
    ids = a["name_id"]
    pass_self = np.bincount(ids[in_pass], weights=self_ns[in_pass],
                            minlength=n)
    pass_steps = np.bincount(ids[in_pass], minlength=n)
    setup_self = np.bincount(ids[~in_pass], weights=self_ns[~in_pass],
                             minlength=n)
    names = {}
    for nid, name in enumerate(ledger.names):
        names[name] = {"calls": ledger.calls[nid],
                       "steps": int(pass_steps[nid]),
                       "yields": ledger.yields[nid],
                       "work": ledger.work[nid],
                       "self_s": float(pass_self[nid]) * 1e-9}
    attributed = float(self_ns[in_pass].sum()) * 1e-9
    return {"names": names,
            "setup": {name: float(setup_self[nid]) * 1e-9
                      for nid, name in enumerate(ledger.names)},
            "wall_s": wall_s,
            "attributed_s": attributed,
            "unattributed_s": wall_s - attributed}


#: Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER_UNITS = {
    "isa.calls": "count", "isa.self_s": "s", "isa.instructions": "count",
    "isa.ns_per_instr": "ns", "isa.fused_share": "ratio",
    "isa.compile_calls": "count", "isa.compile_s": "s",
    "isa.block_invalidations": "count",
    "hier.calls": "count", "hier.self_s": "s", "hier.probes": "count",
    "hier.ns_per_probe": "ns", "hier.llc_hit_rate": "ratio",
    "llc.install_calls": "count", "llc.lines_installed": "count",
    "llc.install_s": "s", "llc.ns_per_line": "ns",
    "noise.ticks": "count", "noise.self_s": "s", "noise.ns_per_tick": "ns",
    "noise.touched_set_share": "ratio",
    "dram.calls": "count", "dram.self_s": "s",
    "des.events": "count", "des.sim_ns": "ns", "des.self_s": "s",
    "des.ns_per_event": "ns",
    "runtime.sends": "count", "runtime.self_s": "s",
    "runtime.ns_per_send": "ns",
    "mailbox.frames": "count", "mailbox.dispatch_s": "s",
    "mailbox.ns_per_frame": "ns", "mailbox.fc_stall_ns": "ns",
    "rdma.posts": "count", "rdma.self_s": "s", "rdma.ns_per_post": "ns",
    "rdma.link_bytes": "bytes",
    "chainkv.ops": "count", "chainkv.self_s": "s",
    "world.builds": "count", "world.build_s": "s", "world.restores": "count",
    "world.restore_s": "s", "toolchain.build_s": "s",
    "trace.wall_s": "s", "trace.touch_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


def _per(total_s: float, count: float) -> float:
    """Nanoseconds of host time per unit of work (0 when there is none)."""
    return total_s * 1e9 / count if count else 0.0


def layer_metrics(out: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced worker result.

    ``out`` is the worker's JSON (``counters``, ``trace``); times are the
    traced pass's self times, counts are deterministic work counters.
    """
    tr = out["trace"]
    roll = tr["rollup"]
    names = roll["names"]
    setup = roll["setup"]
    c = out["counters"]

    def self_s(layer: str) -> float:
        return sum(v["self_s"] for n, v in names.items()
                   if LAYER_OF[n] == layer)

    def calls(*span_names: str) -> int:
        return sum(names[n]["calls"] for n in span_names)

    def layer_calls(layer: str) -> int:
        return sum(v["calls"] for n, v in names.items()
                   if LAYER_OF[n] == layer)

    def metric_sum(family: str) -> float:
        return sum(point[family] for point in tr["metric_sums"])

    hits = sum(h for h, _ in tr["llc"])
    lookups = sum(h + m for h, m in tr["llc"])
    sends = calls("runtime.prepared_send", "runtime.send_jam")
    frames = calls("mailbox.dispatch")
    posts = calls("rdma.post_put", "rdma.post_get")
    lines = names["llc.install_many"]["work"]
    ticks = names["noise.tick"]["yields"]
    setup_calls = {n: v["calls"] for n, v in tr["setup_tallies"].items()}
    return {
        "isa.calls": calls("isa.call"),
        "isa.self_s": self_s("isa"),
        "isa.instructions": c["instructions"],
        "isa.ns_per_instr": _per(self_s("isa"), c["instructions"]),
        "isa.fused_share": (c["fused_instructions"] / c["instructions"]
                            if c["instructions"] else 0.0),
        "isa.compile_calls": calls("isa.compile_blocks"),
        "isa.compile_s": names["isa.compile_blocks"]["self_s"],
        "isa.block_invalidations": c["block_invalidations"],
        "hier.calls": layer_calls("hier"),
        "hier.self_s": self_s("hier"),
        "hier.probes": c["cache_probes"],
        "hier.ns_per_probe": _per(self_s("hier"), c["cache_probes"]),
        "hier.llc_hit_rate": hits / lookups if lookups else 0.0,
        "llc.install_calls": calls("llc.install_many"),
        "llc.lines_installed": lines,
        "llc.install_s": self_s("llc"),
        "llc.ns_per_line": _per(self_s("llc"), lines),
        "noise.ticks": ticks,
        "noise.self_s": self_s("noise"),
        "noise.ns_per_tick": _per(self_s("noise"), ticks),
        "noise.touched_set_share": (tr["touched_sets"] / tr["stressed_sets"]
                                    if tr["stressed_sets"] else 0.0),
        "dram.calls": layer_calls("dram"),
        "dram.self_s": self_s("dram"),
        "des.events": c["des_events"],
        "des.sim_ns": c["sim_ns"],
        "des.self_s": self_s("des"),
        "des.ns_per_event": _per(self_s("des"), c["des_events"]),
        "runtime.sends": sends,
        "runtime.self_s": self_s("runtime"),
        "runtime.ns_per_send": _per(self_s("runtime"), sends),
        "mailbox.frames": frames,
        "mailbox.dispatch_s": self_s("mailbox"),
        "mailbox.ns_per_frame": _per(self_s("mailbox"), frames),
        "mailbox.fc_stall_ns": metric_sum("tc_fc_stall_ns_total"),
        "rdma.posts": posts,
        "rdma.self_s": self_s("rdma"),
        "rdma.ns_per_post": _per(self_s("rdma"), posts),
        "rdma.link_bytes": metric_sum("tc_rdma_link_bytes_total"),
        "chainkv.ops": calls("chainkv.send_put", "chainkv.get",
                             "chainkv.multicast_install"),
        "chainkv.self_s": self_s("chainkv"),
        "world.builds": setup_calls["world.build"] + calls("world.build"),
        "world.build_s": (setup["world.build"] + setup["world.snapshot"]
                          + names["world.build"]["self_s"]
                          + names["world.snapshot"]["self_s"]),
        "world.restores": calls("world.restore"),
        "world.restore_s": names["world.restore"]["self_s"],
        "toolchain.build_s": (setup["toolchain.build"]
                              + names["toolchain.build"]["self_s"]),
        "trace.wall_s": roll["wall_s"],
        "trace.touch_s": self_s("trace"),
        "trace.unattributed_s": roll["unattributed_s"],
        "trace.overhead_pct": ((roll["wall_s"] - untraced_wall_s)
                               / untraced_wall_s * 100.0),
    }
