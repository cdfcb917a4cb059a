"""Ablation sweeps, registered alongside the §VII figures.

Each ablation from ``benchmarks/bench_ablation_*.py`` is expressed as a
:class:`~.figures.FigureSpec` so the orchestrator can run, cache, and
serialize it exactly like a paper figure.  The bench scripts keep their
qualitative assertions; the sweeps themselves live here.

Entries (x-axis is categorical for most):

* ``abl_adaptive``  — always-injected vs always-local vs adaptive sender
* ``abl_mailbox``   — injection rate vs mailbox geometry (banks x slots)
* ``abl_multicore`` — aggregate rate with N waiter cores
* ``abl_prefetch``  — prefetcher x stashing 2x2 factorial latency
* ``abl_security``  — latency cost of the §V security reconfigurations
* ``abl_got``       — GOT rewrite pass: structural before/after counts
* ``abl_tracejit``  — loop-based (non-intrinsic) sum latency vs payload;
  the one sweep whose jam carries a hot guest loop.  Its ``notes`` still
  name a cross-branch trace JIT the VM no longer has: they are part of
  the committed payload, which CI compares byte for byte.
"""

from __future__ import annotations

from ..amc import compile_amc
from ..core import AdaptiveJamSender, connect_runtimes
from ..core.config import RuntimeConfig
from ..core.gotrewrite import count_got_accesses, rewrite_got_accesses
from ..core.stdjams import (
    JAM_INDIRECT_PUT,
    JAM_SS_SUM,
    JAM_SS_SUM_NAIVE,
    JAM_TAG,
)
from ..core.stdworld import shared_world
from ..errors import ReproError
from ..machine.hierarchy import HierarchyConfig
from ..machine.pages import PROT_RW
from .figures import FigureResult, FigureSpec, board_counters, register
from .shapes import am_injection_rate, am_pingpong


def _series_at(r: FigureResult, series: str, x) -> float | None:
    """Series value at sweep point ``x``, or None on partial (smoke) runs."""
    try:
        return r.series[series][r.x.index(x)]
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# abl_adaptive: the SS VIII future-work auto-switch
# ---------------------------------------------------------------------------

def _adaptive_rate(messages: int):
    """Rate of the adaptive sender (inject 4x, then auto-switch local)."""
    world = shared_world()
    nb = 32
    fsize = world.frame_size_for("jam_indirect_put", nb, True)
    mb = world.server.create_mailbox(4, 8, fsize)
    conn = connect_runtimes(world.client, world.server, mb,
                            flow_control=True)
    pkg = world.client.packages[world.build.package_id]
    payload = world.bed.node0.map_region(64, PROT_RW)
    sender = AdaptiveJamSender(conn, pkg, "jam_indirect_put", payload,
                               nb, threshold=4)
    done = world.engine.event("done")
    seen = {"n": 0, "t": 0.0}

    def on_frame(view, slot_addr):
        seen["n"] += 1
        if seen["n"] >= messages:
            seen["t"] = world.engine.now
            done.fire()

    waiter = world.server.make_waiter(mb, on_frame=on_frame,
                                      flag_target=conn.flag_target())
    waiter.start()
    marks = {}

    def driver():
        marks["t0"] = world.engine.now
        for _ in range(messages):
            yield from sender.send()
        yield done
        waiter.stop()

    world.engine.run_process(driver())
    if not sender.stats.switched:
        raise ReproError("adaptive sender never switched to local sends")
    rate = messages / ((seen["t"] - marks["t0"]) * 1e-9)
    return rate, sender.stats, fsize, world


def _points_adaptive(fast: bool) -> list[dict]:
    return [{"mode": m, "messages": 400}
            for m in ("injected", "local", "adaptive")]


def _point_adaptive(mode: str, messages: int) -> dict:
    if mode == "adaptive":
        rate, stats, fsize, world = _adaptive_rate(messages)
        saved_pct = 100.0 * stats.wire_bytes_saved / (messages * fsize)
        injected_sends = stats.injected_sends
    else:
        world = shared_world()
        rate = am_injection_rate(world, "jam_indirect_put", 32,
                                 inject=(mode == "injected"),
                                 messages=messages).rate_mps
        saved_pct = 0.0
        injected_sends = messages if mode == "injected" else 0
    return {"x": mode, "rate_mps": rate, "wire_saved_pct": saved_pct,
            "injected_sends": injected_sends,
            "_counters": board_counters(world)}


def _metrics_adaptive(r: FigureResult) -> dict:
    inj = _series_at(r, "rate_mps", "injected")
    loc = _series_at(r, "rate_mps", "local")
    ada = _series_at(r, "rate_mps", "adaptive")
    out: dict[str, float] = {}
    if inj and loc:
        out["local_vs_injected"] = loc / inj
    if inj and ada:
        out["adaptive_vs_injected"] = ada / inj
        out["adaptive_wire_saved_pct"] = _series_at(
            r, "wire_saved_pct", "adaptive")
        out["adaptive_injected_sends"] = _series_at(
            r, "injected_sends", "adaptive")
    return out


register(FigureSpec(
    name="abl_adaptive",
    title="Ablation: adaptive injection vs always-injected/always-local",
    x_label="sender mode",
    points=_points_adaptive,
    point=_point_adaptive,
    metrics=_metrics_adaptive,
    directions={"rate_mps": "higher", "wire_saved_pct": "higher"},
    notes="adaptive injects 4x then switches to compact Local frames; "
          "message rate stays near injected while wire bytes drop >80%",
    setup_key="std",
))


# ---------------------------------------------------------------------------
# abl_mailbox: injection rate vs mailbox geometry
# ---------------------------------------------------------------------------

def _points_mailbox(fast: bool) -> list[dict]:
    return [{"banks": b, "slots": s, "messages": 300}
            for b, s in ((1, 1), (1, 8), (2, 8), (4, 8), (4, 16))]


def _point_mailbox(banks: int, slots: int, messages: int) -> dict:
    world = shared_world()
    rate = am_injection_rate(world, "jam_ss_sum", 64, messages=messages,
                             banks=banks, slots=slots).rate_mps
    return {"x": f"{banks}x{slots}", "rate_mps": rate,
            "_counters": board_counters(world)}


def _metrics_mailbox(r: FigureResult) -> dict:
    r11 = _series_at(r, "rate_mps", "1x1")
    r48 = _series_at(r, "rate_mps", "4x8")
    r416 = _series_at(r, "rate_mps", "4x16")
    out: dict[str, float] = {}
    if r11 and r48:
        out["depth_speedup"] = r48 / r11
    if r48 and r416:
        out["saturation_ratio"] = r416 / r48
    return out


register(FigureSpec(
    name="abl_mailbox",
    title="Ablation: injection rate vs mailbox geometry (banks x slots)",
    x_label="banks x slots",
    points=_points_mailbox,
    point=_point_mailbox,
    metrics=_metrics_mailbox,
    directions={"rate_mps": "higher"},
    notes="deeper mailboxes amortize the per-bank flow-control flag "
          "round-trip; a 1x1 mailbox serializes on it entirely",
    setup_key="std",
))


# ---------------------------------------------------------------------------
# abl_multicore: parallel waiter threads on separate cores
# ---------------------------------------------------------------------------

def _multicore_rate(ncores: int, messages_per_core: int,
                    payload_bytes: int):
    from ..core.runtime import PreparedJam

    world = shared_world()
    engine = world.engine
    fsize = world.frame_size_for("jam_indirect_put", payload_bytes, True)
    pkg = world.client.packages[world.build.package_id]
    total = ncores * messages_per_core
    done = engine.event("all")
    state = {"seen": 0, "t_end": 0.0}

    def on_frame(view, slot_addr):
        state["seen"] += 1
        if state["seen"] >= total:
            state["t_end"] = engine.now
            done.fire()

    lanes = []
    for core in range(ncores):
        mb = world.server.create_mailbox(2, 4, fsize)
        conn = connect_runtimes(world.client, world.server, mb,
                                flow_control=True)
        waiter = world.server.make_waiter(
            mb, on_frame=on_frame, flag_target=conn.flag_target(),
            core=core)
        waiter.start()
        payload = world.bed.node0.map_region(payload_bytes, PROT_RW)
        # distinct keys per lane so heap writes don't collide
        pj = PreparedJam(conn, pkg, "jam_indirect_put", payload,
                         payload_bytes, args=(1000 + core,))
        lanes.append((pj, waiter))

    marks = {}

    def sender():
        marks["t0"] = engine.now
        for _ in range(messages_per_core):
            for pj, _w in lanes:
                yield from pj.send()
        yield done
        for _pj, w in lanes:
            w.stop()

    engine.run_process(sender())
    return total / ((state["t_end"] - marks["t0"]) * 1e-9), world


def _points_multicore(fast: bool) -> list[dict]:
    return [{"ncores": n, "messages_per_core": 150, "payload_bytes": 4096}
            for n in (1, 2, 4)]


def _point_multicore(ncores: int, messages_per_core: int,
                     payload_bytes: int) -> dict:
    rate, world = _multicore_rate(ncores, messages_per_core, payload_bytes)
    return {"x": ncores, "rate_mps": rate, "per_core_mps": rate / ncores,
            "_counters": board_counters(world)}


def _metrics_multicore(r: FigureResult) -> dict:
    r1 = _series_at(r, "rate_mps", 1)
    r2 = _series_at(r, "rate_mps", 2)
    r4 = _series_at(r, "rate_mps", 4)
    out: dict[str, float] = {}
    if r1 and r2:
        out["scaling_2core"] = r2 / r1
    if r1 and r4:
        out["scaling_4core"] = r4 / r1
    return out


register(FigureSpec(
    name="abl_multicore",
    title="Ablation: aggregate rate with N waiter cores",
    x_label="waiter cores",
    points=_points_multicore,
    point=_point_multicore,
    metrics=_metrics_multicore,
    directions={"rate_mps": "higher"},
    notes="execution-bound at 4KB payloads: extra cores overlap message "
          "processing until the shared wire/sender binds",
    setup_key="std",
))


# ---------------------------------------------------------------------------
# abl_prefetch: prefetcher x stashing 2x2 factorial
# ---------------------------------------------------------------------------

_PF_LABELS = {(True, True): "stash+prefetch", (True, False): "stash",
              (False, True): "prefetch", (False, False): "neither"}


def _points_prefetch(fast: bool) -> list[dict]:
    return [{"stash": s, "prefetch": p, "payload_bytes": 4096,
             "warmup": 8, "iters": 20}
            for s in (True, False) for p in (True, False)]


def _point_prefetch(stash: bool, prefetch: bool, payload_bytes: int,
                    warmup: int, iters: int) -> dict:
    cfg = HierarchyConfig(stash_enabled=stash, prefetch_enabled=prefetch)
    world = shared_world(hier_cfg=cfg)
    p50 = am_pingpong(world, "jam_indirect_put", payload_bytes,
                      warmup=warmup, iters=iters).stats.p50
    return {"x": _PF_LABELS[(stash, prefetch)], "p50_ns": p50,
            "_counters": board_counters(world)}


def _metrics_prefetch(r: FigureResult) -> dict:
    sp = _series_at(r, "p50_ns", "stash+prefetch")
    s = _series_at(r, "p50_ns", "stash")
    p = _series_at(r, "p50_ns", "prefetch")
    n = _series_at(r, "p50_ns", "neither")
    out: dict[str, float] = {}
    if sp and p:
        out["stash_gain_with_pf_ns"] = p - sp
    if s and n:
        out["stash_gain_without_pf_ns"] = n - s
    if sp and s:
        out["pf_effect_when_stashed_ns"] = abs(sp - s)
    return out


register(FigureSpec(
    name="abl_prefetch",
    title="Ablation: prefetcher x stashing (2x2), Indirect Put latency",
    x_label="configuration",
    points=_points_prefetch,
    point=_point_prefetch,
    metrics=_metrics_prefetch,
    directions={"p50_ns": "lower"},
    notes="with the prefetcher disabled, non-stashed large messages lose "
          "their latency mask and the stash advantage widens",
    # Half its factorial builds the same worlds as figs 9-12, so share
    # their group (reuse happens per world key, not per group).
    setup_key="stash-pair",
))


# ---------------------------------------------------------------------------
# abl_security: latency cost of the SS V reconfigurations
# ---------------------------------------------------------------------------

def _points_security(fast: bool) -> list[dict]:
    return [{"mode": m, "warmup": 8, "iters": 30}
            for m in ("baseline", "receiver_gotp", "split_wx")]


def _point_security(mode: str, warmup: int, iters: int) -> dict:
    cfg = RuntimeConfig()
    if mode == "receiver_gotp":
        cfg = RuntimeConfig(sender_sets_gotp=False)
    elif mode == "split_wx":
        cfg = RuntimeConfig(split_code_pages=True)
    world = shared_world(server_cfg=cfg)
    world.client.cfg.sender_sets_gotp = cfg.sender_sets_gotp
    p50 = am_pingpong(world, "jam_ss_sum", 64, warmup=warmup,
                      iters=iters).stats.p50
    return {"x": mode, "p50_ns": p50, "_counters": board_counters(world)}


def _metrics_security(r: FigureResult) -> dict:
    base = _series_at(r, "p50_ns", "baseline")
    gotp = _series_at(r, "p50_ns", "receiver_gotp")
    wx = _series_at(r, "p50_ns", "split_wx")
    out: dict[str, float] = {}
    if base and gotp:
        out["receiver_gotp_cost_pct"] = 100.0 * (gotp - base) / base
    if base and wx:
        out["split_wx_cost_pct"] = 100.0 * (wx - base) / base
    return out


register(FigureSpec(
    name="abl_security",
    title="Ablation: latency cost of the SS V security reconfigurations",
    x_label="security mode",
    points=_points_security,
    point=_point_security,
    metrics=_metrics_security,
    directions={"p50_ns": "lower"},
    notes="receiver-inserted GOTP is near-free (~one store); W^X staging "
          "pays an mprotect + copy per message",
))


# ---------------------------------------------------------------------------
# abl_tracejit: hot guest loop latency
# ---------------------------------------------------------------------------

def _points_tracejit(fast: bool) -> list[dict]:
    sizes = (256, 1024, 4096) if fast else (256, 1024, 4096, 16384)
    return [{"payload_bytes": nb, "warmup": 6, "iters": 16}
            for nb in sizes]


def _point_tracejit(payload_bytes: int, warmup: int, iters: int) -> dict:
    world = shared_world()
    out = am_pingpong(world, "jam_ss_sum_naive", payload_bytes,
                      warmup=warmup, iters=iters)
    return {"x": payload_bytes, "p50_ns": out.stats.p50,
            "server_cycles_per_msg": out.server_cycles_per_iter,
            "_counters": board_counters(world)}


def _metrics_tracejit(r: FigureResult) -> dict:
    out: dict[str, float] = {}
    if len(r.x) >= 2:
        words = (r.x[-1] - r.x[0]) / 4
        p50 = r.series["p50_ns"]
        out["loop_ns_per_word"] = (p50[-1] - p50[0]) / words
    return out


register(FigureSpec(
    name="abl_tracejit",
    title="Ablation: loop-based Server-Side Sum latency vs payload size",
    x_label="payload bytes",
    points=_points_tracejit,
    point=_point_tracejit,
    metrics=_metrics_tracejit,
    directions={"p50_ns": "lower"},
    notes="jam_ss_sum_naive sums with a guest-code loop instead of the "
          "tc_sum32 intrinsic, so per-message latency scales with the "
          "payload word count and the summation loop goes hot — the "
          "workload the VM's cross-branch trace JIT compiles; simulated "
          "rows are byte-identical under --no-trace",
    setup_key="std",
))


# ---------------------------------------------------------------------------
# abl_got: the GOT rewrite pass, structurally
# ---------------------------------------------------------------------------

_STD_JAM_SOURCES = {s.name: s for s in
                    (JAM_SS_SUM, JAM_SS_SUM_NAIVE, JAM_INDIRECT_PUT,
                     JAM_TAG)}


def _points_got(fast: bool) -> list[dict]:
    return [{"jam": name} for name in _STD_JAM_SOURCES]


def _point_got(jam: str) -> dict:
    om = compile_amc(_STD_JAM_SOURCES[jam].source).module
    ldg_before, ldgi_before = count_got_accesses(om.text)
    patched = rewrite_got_accesses(om.text)
    ldg_after, ldgi_after = count_got_accesses(patched)
    if ldg_after != 0:
        raise ReproError(f"{jam}: {ldg_after} LDG left after rewrite")
    return {"x": jam,
            "code_bytes": len(om.text),
            "got_slots": len(om.externs),
            "ldg_before": ldg_before,
            "ldgi_after": ldgi_after,
            "size_delta": len(patched) - len(om.text)}


def _metrics_got(r: FigureResult) -> dict:
    return {"total_ldg_rewritten": sum(r.series["ldg_before"]),
            "max_size_delta": max(r.series["size_delta"])}


register(FigureSpec(
    name="abl_got",
    title="Ablation: GOT rewrite pass (LDG -> LDGI), per standard jam",
    x_label="jam",
    points=_points_got,
    point=_point_got,
    metrics=_metrics_got,
    directions={},
    notes="the rewrite is a same-size in-place patch: size_delta must be "
          "0 and no LDG may survive; functional necessity is asserted in "
          "benchmarks/bench_ablation_got_rewrite.py",
))
