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
                    smoke: bool = False, top: int = 12) -> dict:
    """Profile the named sweeps (all registered figures by default).

    ``smoke`` runs only the first point of each sweep — the CI quick
    check.  Returns the JSON-able report dict.
    """
    names = resolve_names(names)
    registry = full_registry()
    tasks: list[tuple[str, dict]] = []
    for name in names:
        points = registry[name].points(fast)
        if smoke:
            points = points[:1]
        tasks.extend((name, params) for params in points)

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

    return {
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
    return "\n".join(lines)
