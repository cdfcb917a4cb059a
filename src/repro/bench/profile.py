"""``twochains profile``: where does simulator wall-clock time go?

Runs figure sweeps serially (no pool — cProfile is per-process) under
cProfile and reduces the result to three views:

* **throughput** — the process-wide :mod:`repro.perf` counters for the
  profiled span, normalized per wall-second (instructions retired,
  cache probes, DES events, simulated ns).  The same block the bench
  orchestrator records in every ``BENCH_*.json`` meta.
* **subsystems** — tottime rolled up by top-level package under
  ``repro/`` (isa, machine, sim, runtime, ...), answering "which layer
  is hot" without reading 200 stack lines.
* **hotspots** — the classic top-N functions by tottime.

The report is a plain dict (JSON-able, ``--json``) plus a text renderer
for the terminal.  Profiling wraps the same ``spec.point`` calls the
orchestrator runs, so the numbers describe real benchmark work; the
point cache is deliberately bypassed.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import Path

from ..perf import COUNTERS, throughput
from .figures import full_registry
from .orchestrator import resolve_names

_SRC_MARKER = "repro"


def _subsystem_of(path: str) -> str | None:
    """Top-level repro package of a profiled file, or None if foreign."""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == _SRC_MARKER and i + 1 < len(parts):
            nxt = parts[i + 1]
            return nxt[:-3] if nxt.endswith(".py") else nxt
    return None


def profile_figures(names: list[str] | None = None, *, fast: bool = True,
                    smoke: bool = False, top: int = 12,
                    hot_loops: bool = False) -> dict:
    """Profile the named sweeps (all registered figures by default).

    ``smoke`` runs only the first point of each sweep — the CI quick
    check.  ``hot_loops`` additionally collects the VM's trace-JIT
    observability registries (profiled backward branches and installed
    traces) and attaches a ``hot_loops`` block: the top back-edges by
    dispatch count and per-anchor trace coverage.  Returns the
    JSON-able report dict.
    """
    names = resolve_names(names)
    registry = full_registry()
    tasks: list[tuple[str, dict]] = []
    for name in names:
        points = registry[name].points(fast)
        if smoke:
            points = points[:1]
        tasks.extend((name, params) for params in points)

    if hot_loops:
        from ..isa import vm as _vm
        _vm.reset_trace_observability()
    before = COUNTERS.snapshot()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    for name, params in tasks:
        registry[name].point(**params)
    profiler.disable()
    wall_s = time.perf_counter() - t0
    counters = COUNTERS.delta(before)

    stats = pstats.Stats(profiler)
    subsystems: dict[str, dict] = {}
    hotspots = []
    for (path, line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        sub = _subsystem_of(path)
        bucket = subsystems.setdefault(sub or "(stdlib/other)",
                                       {"tottime_s": 0.0, "calls": 0})
        bucket["tottime_s"] += tottime
        bucket["calls"] += ncalls
        if sub is not None:
            hotspots.append({
                "func": f"{Path(path).name}:{line}({func})",
                "calls": ncalls,
                "tottime_s": round(tottime, 4),
                "cumtime_s": round(cumtime, 4),
            })
    hotspots.sort(key=lambda h: -h["tottime_s"])

    report = {
        "figures": names,
        "points": len(tasks),
        "smoke": smoke,
        "fast": fast,
        "wall_s": round(wall_s, 4),
        "sim_throughput": throughput(counters, wall_s),
        "subsystems": sorted(
            ({"name": k, "tottime_s": round(v["tottime_s"], 4),
              "calls": v["calls"]} for k, v in subsystems.items()),
            key=lambda s: -s["tottime_s"]),
        "hotspots": hotspots[:top],
    }
    if hot_loops:
        sites, recs = _vm.trace_observability()
        report["hot_loops"] = _hot_loops_block(sites, recs, counters, top)
    return report


def _hot_loops_block(sites: list, recs: list, counters: dict,
                     top: int) -> dict:
    """Reduce the VM's trace-JIT registries to a report block.

    ``sites`` are profiled backward branches ``(node, pc, target, aux)``
    with ``aux = [taken, not_taken, target, is_back]``; ``recs`` are
    installed trace records ``(n0, fn, live, [dispatches, instrs],
    info)``.  Coverage is the share of all retired instructions that
    retired inside traces — the headline number for "is the trace tier
    engaging on this workload".
    """
    back_edges = sorted(
        ({"node": node, "branch_pc": pc, "target_pc": tgt,
          "taken": aux[0], "not_taken": aux[1]}
         for node, pc, tgt, aux in sites if aux[0] or aux[1]),
        key=lambda s: -(s["taken"] + s["not_taken"]))[:top]
    traces = sorted(
        ({"node": info["node"], "anchor_pc": info["anchor"],
          "loop": info["loop"], "guards": info["guards"],
          "instrs_per_pass": info["instrs"], "dispatches": stats[0],
          "instructions": stats[1], "live": live[0]}
         for _n0, _fn, live, stats, info in recs),
        key=lambda t: -t["dispatches"])[:top]
    instrs = counters.get("instructions", 0)
    traced = counters.get("trace_instructions", 0)
    return {
        "traces_compiled": counters.get("traces_compiled", 0),
        "trace_dispatches": counters.get("trace_dispatches", 0),
        "trace_instructions": traced,
        "guard_bails": counters.get("guard_bails", 0),
        "coverage_pct": round(100.0 * traced / instrs, 2) if instrs else 0.0,
        "back_edges": back_edges,
        "traces": traces,
    }


def render_profile_text(report: dict) -> str:
    """Terminal rendering of a :func:`profile_figures` report."""
    tp = report["sim_throughput"]
    lines = [
        f"profiled {', '.join(report['figures'])} "
        f"({report['points']} points{', smoke' if report['smoke'] else ''}) "
        f"in {report['wall_s']:.2f}s",
        "",
        "simulator throughput:",
        f"  instructions retired   {tp['instructions']:>14,}"
        f"   ({tp['instructions_per_s']:,.0f}/s)",
        f"  cache probes           {tp['cache_probes']:>14,}",
        f"  DES events             {tp['des_events']:>14,}",
        f"  simulated ns           {tp['sim_ns']:>14,.0f}"
        f"   ({tp['sim_ns_per_wall_s']:,.0f} sim-ns/wall-s)",
        f"  fused dispatches       {tp['fused_dispatches']:>14,}"
        f"   ({tp['blocks_compiled']:,} blocks compiled, "
        f"{tp['block_invalidations']:,} invalidated)",
        "",
        "time by subsystem (tottime):",
    ]
    for sub in report["subsystems"]:
        lines.append(f"  {sub['name']:<16} {sub['tottime_s']:>8.3f}s"
                     f"  ({sub['calls']:,} calls)")
    lines += ["", f"top {len(report['hotspots'])} functions (tottime):"]
    for h in report["hotspots"]:
        lines.append(f"  {h['tottime_s']:>8.3f}s  {h['calls']:>10,}  "
                     f"{h['func']}")
    hl = report.get("hot_loops")
    if hl is not None:
        lines += [
            "",
            "hot loops (trace JIT):",
            f"  traces compiled        {hl['traces_compiled']:>14,}",
            f"  trace dispatches       {hl['trace_dispatches']:>14,}"
            f"   ({hl['guard_bails']:,} guard bails)",
            f"  traced instructions    {hl['trace_instructions']:>14,}"
            f"   ({hl['coverage_pct']:.2f}% of all retired)",
        ]
        if hl["back_edges"]:
            lines.append("  top back-edges (taken / not-taken):")
            for s in hl["back_edges"]:
                lines.append(
                    f"    n{s['node']} pc={s['branch_pc']:#x} -> "
                    f"{s['target_pc']:#x}   {s['taken']:,} / "
                    f"{s['not_taken']:,}")
        else:
            lines.append("  no profiled backward branches "
                         "(straight-line or intrinsic-bound workload)")
        if hl["traces"]:
            lines.append("  installed traces (by dispatches):")
            for t in hl["traces"]:
                lines.append(
                    f"    n{t['node']} anchor={t['anchor_pc']:#x} "
                    f"{'loop' if t['loop'] else 'line'} "
                    f"guards={t['guards']} "
                    f"instrs/pass={t['instrs_per_pass']} "
                    f"dispatches={t['dispatches']:,} "
                    f"retired={t['instructions']:,}"
                    f"{'' if t['live'] else ' (dead)'}")
    return "\n".join(lines)
