"""Parallel benchmark orchestrator: run figure sweeps, cache, serialize.

One entry point (``twochains bench run``) discovers every registered
sweep (:func:`repro.bench.figures.full_registry`), fans the independent
sweep points out across a ``multiprocessing`` pool (each DES run is
single-threaded and embarrassingly parallel), and caches completed
points in a :class:`~.resultstore.ResultStore` so re-runs only pay for
what actually changed.  Every run writes one versioned
``BENCH_<figure>.json`` per figure (schema: docs/BENCHMARKS.md) and
``bench diff`` compares two result sets, flagging direction-aware
regressions beyond a noise threshold.

Scheduling is setup-aware (docs/ARCHITECTURE.md, "Performance
engineering"): uncached points are grouped by their spec's
``setup_key`` and each pool worker owns whole groups, so inside a group
every point after the first forks the warm worlds the first point built
(:mod:`repro.core.stdworld`'s setup cache) instead of repaying the
build+link prefix.  Groups are ordered longest-expected-first (LPT,
from the :class:`~.resultstore.TimingStore` history) so the slowest
group cannot start last and stretch the tail of a parallel run.

Results are deterministic: points are assembled in sweep order no matter
which worker finished first, forked worlds measure byte-identically to
fresh ones (enforced by the fork determinism tests), and everything
host- or time-dependent lives under the payload's ``meta`` key.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from ..core.stdworld import SETUP_CACHE
from ..obs.attribution import phase_breakdown, phase_durations
from ..obs.metrics import METRICS, merge_snapshots, metrics_block
from ..obs.slo import DEFAULT_HEALTH_THRESHOLD_PCT, health_diff_payloads
from ..obs.tracer import TRACER
from ..perf import COUNTERS, throughput
from ..sim.rng import DEFAULT_SEED
from .figures import FigureResult, FigureSpec, assemble, full_registry
from .report import bench_payload, render_figure
from .resultstore import (
    ResultStore,
    TimingStore,
    canonical_json,
    code_version,
    git_sha,
)
from .stats import pct_diff


@dataclass
class PointRecord:
    """One sweep point: its params, measured row, and cache provenance."""

    params: dict
    row: dict
    cached: bool
    key: str | None
    elapsed_s: float = 0.0
    # SimCounters delta for the point's execution (None for cache hits,
    # which did no simulation work this run).
    sim: dict | None = None
    # span-name -> [dur_ns, ...] captured while the point ran (None
    # unless the run was traced; see run_figures(trace=True))
    phases: dict | None = None
    # world setup-cache activity while this point ran: forks of a warm
    # pooled world vs fresh builds (both 0 for result-cache hits and
    # fork-disabled runs)
    setup_hits: int = 0
    setup_misses: int = 0
    # stable-metrics snapshot captured while the point ran (or recalled
    # from the result cache — it is as deterministic as the row itself);
    # None when the run had metrics disabled
    metrics: dict | None = None


@dataclass
class FigureRun:
    """One figure's completed sweep plus orchestration bookkeeping."""

    spec: FigureSpec
    result: FigureResult
    points: list[PointRecord]
    # Sum of per-point execution times — the work actually done for this
    # figure this run.  Cached points contribute 0.
    wall_s: float
    # End-to-end wall clock of the whole ``run_figures`` invocation that
    # produced this run (shared by every figure of the invocation).
    # Distinct from ``wall_s``: a fully cached sweep has wall_s == 0 but
    # the invocation still took real time.
    sweep_wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    setup_hits: int = 0
    setup_misses: int = 0

    @property
    def sim_counters(self) -> dict:
        """Summed SimCounters deltas over the points actually executed."""
        total: dict = {}
        for rec in self.points:
            if rec.sim:
                for k, v in rec.sim.items():
                    total[k] = total.get(k, 0) + v
        return total

    @property
    def phase_durs(self) -> dict:
        """Per-phase span durations merged over the points, sweep order."""
        merged: dict = {}
        for rec in self.points:
            if rec.phases:
                for name, durs in rec.phases.items():
                    merged.setdefault(name, []).extend(durs)
        return merged

    @property
    def metrics_snapshot(self) -> dict | None:
        """Figure-level metrics snapshot: the per-point stable snapshots
        merged in sweep order (so parallel runs reproduce serial ones
        byte for byte), or None unless every point carried one."""
        if not self.points or any(rec.metrics is None
                                  for rec in self.points):
            return None
        return merge_snapshots([rec.metrics for rec in self.points])


def resolve_names(names: list[str] | None) -> list[str]:
    """Validate figure names against the registry (None = everything)."""
    registry = full_registry()
    if not names:
        return list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ValueError(
            f"unknown figure(s) {', '.join(unknown)}; choices: "
            f"{', '.join(registry)}")
    return list(names)


def _exec_point(task: tuple[str, dict, bool, bool]
                ) -> tuple[dict, float, dict, dict | None, dict | None,
                           int, int]:
    """Run one sweep point in the current process.

    Returns (row, elapsed seconds, SimCounters delta, phase durations,
    metrics snapshot, setup-cache hits, setup-cache misses).  Counters
    are process-wide, so the delta — not the absolute value — is what
    ships back from pool workers; the parent sums deltas per figure.
    With ``trace`` set the point runs under the structured tracer and
    the span durations travel back as a plain name -> [dur_ns] dict
    (the Tracer itself never crosses the process boundary); likewise
    ``metrics`` captures the registry and ships back its plain-dict
    stable snapshot.
    """
    name, params, trace, metrics = task
    spec = full_registry()[name]
    before = COUNTERS.snapshot()
    hits0, misses0 = SETUP_CACHE.counts()
    SETUP_CACHE.begin_point()
    phases = None
    msnap = None
    t0 = time.perf_counter()
    if metrics:
        METRICS.attach()
    if trace:
        with TRACER.capture():
            row = spec.point(**params)
            phases = phase_durations(TRACER.events)
    else:
        row = spec.point(**params)
    if metrics:
        METRICS.detach()
        msnap = METRICS.snapshot(stable_only=True)
        METRICS.clear()
    elapsed = time.perf_counter() - t0
    hits1, misses1 = SETUP_CACHE.counts()
    return (row, elapsed, COUNTERS.delta(before), phases, msnap,
            hits1 - hits0, misses1 - misses0)


def _exec_group(task: tuple[list[tuple[str, dict, bool, bool]], bool]
                ) -> list[tuple[dict, float, dict, dict | None, dict | None,
                                int, int]]:
    """Pool worker: run one setup-key group of sweep points, in order.

    The whole group runs in this process with the world setup cache
    enabled (unless ``fork`` is off), so every point after the first
    forks the warm worlds its predecessors built instead of repaying
    the build+link prefix.  The cache is torn down afterwards — pool
    workers may process several groups and must not leak worlds between
    them.
    """
    group, fork = task
    if fork:
        SETUP_CACHE.enabled = True
        SETUP_CACHE.clear()
    try:
        return [_exec_point(t) for t in group]
    finally:
        SETUP_CACHE.enabled = False
        SETUP_CACHE.clear()


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Container-aware: a cgroup cpuset (docker --cpuset-cpus, CI runners,
    taskset) shrinks ``sched_getaffinity`` but not ``os.cpu_count``, so
    prefer the affinity mask where the platform has one.
    """
    getaff = getattr(os, "sched_getaffinity", None)
    if getaff is not None:
        try:
            return max(1, len(getaff(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int | str) -> int:
    """Resolve a ``--jobs`` value; ``"auto"`` means one per available CPU."""
    if jobs == "auto":
        return available_cpus()
    n = int(jobs)
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    return n


def _group_pending(pending: list[tuple[str, int]], plan_by_name: dict,
                   registry: dict, trace: bool, metrics: bool,
                   timings: TimingStore | None
                   ) -> list[list[tuple[str, dict, bool, bool]]]:
    """Bucket uncached points into setup-key groups, longest-first.

    Group membership follows each spec's ``setup_key_for``; ordering is
    LPT by the summed elapsed history of the group's points, with
    never-measured groups first (their duration is unknown, so starting
    them early bounds how badly they can stretch a parallel schedule —
    and running them fills in the history).  Points keep sweep order
    inside their group.
    """
    groups: dict[str, list[tuple[str, dict, bool, bool]]] = {}
    expected: dict[str, float] = {}
    unknown: dict[str, bool] = {}
    for name, i in pending:
        params = plan_by_name[name][i]
        gkey = canonical_json(registry[name].setup_key_for(params))
        groups.setdefault(gkey, []).append((name, params, trace, metrics))
        hist = timings.get(name, params) if timings else None
        if hist is None:
            unknown[gkey] = True
        else:
            expected[gkey] = expected.get(gkey, 0.0) + hist
    return [groups[k] for k in sorted(
        groups,
        key=lambda k: (0 if unknown.get(k) else 1, -expected.get(k, 0.0), k))]


def run_figures(names: list[str] | None = None, *, fast: bool = True,
                smoke: bool = False, jobs: int | str = 1,
                store: ResultStore | None = None,
                trace: bool = False, fork: bool = True,
                metrics: bool = True,
                log=None) -> list[FigureRun]:
    """Run the requested sweeps, reusing cached points, fanning out misses.

    ``smoke`` keeps only the first point of every sweep (the CI target).
    ``jobs`` > 1 (or ``"auto"``) runs uncached work in a process pool;
    assembly order is always the sweep order, so parallel runs are
    bit-identical to serial ones.  Work is dispatched as whole setup-key
    groups so same-setup points land on one worker and — with ``fork``
    on — reuse each other's built worlds through the setup cache;
    ``fork=False`` keeps the grouping but builds every world fresh.
    ``trace`` runs every point under the structured tracer and attaches
    the per-phase span durations to its record; traced runs skip cache
    *reads* (a cached row carries no spans) but still refresh the store,
    and tracing never changes the measured rows.
    ``metrics`` (default on; ``--no-metrics`` clears it) captures the
    sim-time metrics registry around every executed point.  The stable
    snapshot is a deterministic pure function of the point, so — unlike
    tracing — it is cached next to the row, and cache entries that
    predate the metrics field simply count as misses and refresh.
    """
    names = resolve_names(names)
    registry = full_registry()
    jobs = resolve_jobs(jobs)
    t_start = time.perf_counter()

    plans: list[tuple[str, list[dict]]] = []
    records: dict[str, list[PointRecord | None]] = {}
    pending: list[tuple[str, int]] = []
    for name in names:
        points = registry[name].points(fast)
        if smoke:
            points = points[:1]
        plans.append((name, points))
        records[name] = [None] * len(points)
        for i, params in enumerate(points):
            key = store.key_for(name, params) if store else None
            entry = (store.get_entry(key, require_metrics=metrics)
                     if (store and not trace) else None)
            if entry is not None:
                records[name][i] = PointRecord(
                    params, entry["row"], True, key,
                    metrics=entry.get("metrics") if metrics else None)
            else:
                pending.append((name, i))

    plan_by_name = dict(plans)
    timings = TimingStore(store.root) if store else None
    group_tasks = _group_pending(pending, plan_by_name, registry, trace,
                                 metrics, timings)

    if log and pending:
        log(f"bench: {sum(len(p) for _, p in plans)} points, "
            f"{len(pending)} to run in {len(group_tasks)} setup group(s), "
            f"jobs={jobs}"
            + (", traced" if trace else "")
            + ("" if fork else ", fork disabled"))

    if group_tasks:
        payload = [(g, fork) for g in group_tasks]
        if jobs > 1 and len(group_tasks) > 1:
            with multiprocessing.Pool(min(jobs, len(group_tasks))) as pool:
                group_outs = pool.map(_exec_group, payload, chunksize=1)
        else:
            group_outs = [_exec_group(t) for t in payload]
        # Flatten back to per-point results keyed by (figure, params):
        # groups reorder across figures, never within one sweep.
        out_by_task: dict[str, tuple] = {}
        for group, outs in zip(group_tasks, group_outs):
            for (name, params, _trace, _metrics), result in zip(group, outs):
                out_by_task[canonical_json([name, params])] = result
        for name, i in pending:
            params = plan_by_name[name][i]
            row, elapsed, sim, phases, msnap, shits, smisses = out_by_task[
                canonical_json([name, params])]
            key = store.key_for(name, params) if store else None
            if store:
                store.put(key, name, params, row, metrics=msnap)
            if timings is not None:
                timings.record(name, params, elapsed)
            records[name][i] = PointRecord(params, row, False, key,
                                           elapsed_s=elapsed, sim=sim,
                                           phases=phases, setup_hits=shits,
                                           setup_misses=smisses,
                                           metrics=msnap)
        if timings is not None:
            timings.save()

    runs: list[FigureRun] = []
    for name, points in plans:
        recs = records[name]
        result = assemble(registry[name], [r.row for r in recs])
        runs.append(FigureRun(
            spec=registry[name],
            result=result,
            points=recs,
            wall_s=sum(r.elapsed_s for r in recs),
            cache_hits=sum(1 for r in recs if r.cached),
            cache_misses=sum(1 for r in recs if not r.cached),
            setup_hits=sum(r.setup_hits for r in recs),
            setup_misses=sum(r.setup_misses for r in recs),
        ))
    total_wall = time.perf_counter() - t_start
    for run in runs:
        run.sweep_wall_s = total_wall
    if log:
        hits = sum(r.cache_hits for r in runs)
        misses = sum(r.cache_misses for r in runs)
        forks = sum(r.setup_hits for r in runs)
        log(f"bench: done in {total_wall:.1f}s "
            f"({hits} cached, {misses} run, {forks} world fork(s))")
    return runs


def build_meta(*, fast: bool, smoke: bool, jobs: int,
               trace: bool = False, fork: bool = True,
               metrics: bool = True) -> dict:
    """Host/run metadata shared by every figure payload of one run.

    Everything here is allowed to differ between two otherwise identical
    runs; nothing outside ``meta`` is.
    """
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "code_version": code_version(),
        "seed": DEFAULT_SEED,
        "fast": fast,
        "smoke": smoke,
        "jobs": jobs,
        "trace": trace,
        "fork": fork,
        "metrics_enabled": metrics,
        # The cores the run could use (the affinity mask, not the host
        # count): every wall-clock claim states it.
        "cpus": available_cpus(),
    }


def write_runs(runs: list[FigureRun], out_dir: str | Path,
               meta: dict) -> list[Path]:
    """Write one ``BENCH_<figure>.json`` per run into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for run in runs:
        run_meta = dict(meta)
        run_meta["wall_clock_s"] = round(run.wall_s, 6)
        run_meta["sweep_wall_s"] = round(run.sweep_wall_s, 6)
        run_meta["cache_hits"] = run.cache_hits
        run_meta["cache_misses"] = run.cache_misses
        # World setup-cache activity: forked (warm) vs freshly built
        # worlds while this figure's points executed.
        run_meta["setup_cache"] = {"hits": run.setup_hits,
                                   "misses": run.setup_misses}
        # Simulator throughput for the points actually executed (empty
        # when everything came from cache).  Lives in meta: it tracks
        # the simulator's own speed, not the simulated system's.
        run_meta["sim_throughput"] = throughput(run.sim_counters, run.wall_s)
        # Per-phase latency attribution from a traced run (span name ->
        # p50/p95/mean/total over every span the sweep emitted).  Lives
        # in meta: spans describe where simulated time went, and their
        # counts vary with sweep depth, not with correctness.
        durs = run.phase_durs
        if durs:
            run_meta["phase_breakdown"] = phase_breakdown(durs)
        # The figure's merged stable-metrics block (docs/METRICS.md).
        # Lives in meta by the schema's rule of thumb — it is extra
        # diagnosis, not the measured series — but unlike the rest of
        # meta it IS deterministic (the determinism tests pin it across
        # --jobs and fork settings).
        msnap = run.metrics_snapshot
        if msnap is not None:
            run_meta["metrics"] = metrics_block(msnap)
        payload = bench_payload(run, run_meta)
        path = out / f"BENCH_{run.result.figure}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        paths.append(path)
    return paths


def render_runs_text(runs: list[FigureRun]) -> str:
    """The classic text report for a set of runs, one table per figure."""
    return "\n\n".join(render_figure(run.result) for run in runs)


# ---------------------------------------------------------------------------
# bench diff
# ---------------------------------------------------------------------------

@dataclass
class SeriesDiff:
    """Comparison of one series between a baseline and a new result set."""

    figure: str
    series: str
    direction: str          # "lower" | "higher" (better)
    base_mean: float
    new_mean: float
    mean_pct: float         # pct change of the mean, signed
    worst_point_pct: float  # largest per-point change in the bad direction
    regression: bool


def load_payload(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def diff_payloads(base: dict, new: dict,
                  threshold_pct: float = 5.0) -> list[SeriesDiff]:
    """Direction-aware comparison of two BENCH payloads for one figure.

    Only series named in the baseline's ``directions`` map are judged
    (the rest are raw data with no better/worse ordering).  A series
    regresses when the mean over aligned points moves beyond
    ``threshold_pct`` in its bad direction.
    """
    out: list[SeriesDiff] = []
    directions = base.get("directions", {})
    figure = base.get("figure", "?")
    for name, direction in directions.items():
        b = base.get("series", {}).get(name)
        n = new.get("series", {}).get(name)
        if not b or not n:
            continue
        m = min(len(b), len(n))
        b, n = b[:m], n[:m]
        base_mean = sum(b) / m
        new_mean = sum(n) / m
        mean_pct = pct_diff(new_mean, base_mean)
        point_pcts = [pct_diff(nv, bv) for nv, bv in zip(n, b) if bv]
        if direction == "lower":
            worst = max(point_pcts, default=0.0)
            regression = mean_pct > threshold_pct
        else:
            worst = min(point_pcts, default=0.0)
            regression = mean_pct < -threshold_pct
        out.append(SeriesDiff(figure=figure, series=name,
                              direction=direction, base_mean=base_mean,
                              new_mean=new_mean, mean_pct=mean_pct,
                              worst_point_pct=worst,
                              regression=regression))
    return out


def wall_clock_diff_payloads(base: dict, new: dict,
                             threshold_pct: float = 20.0
                             ) -> tuple[list[SeriesDiff], list[str]]:
    """Compare simulator *throughput* (not simulated results) of two runs.

    Judges ``meta.sim_throughput.sim_ns_per_wall_s`` — simulated
    nanoseconds produced per wall-clock second, direction "higher is
    better".  A drop beyond ``threshold_pct`` flags a host-performance
    regression of the simulator itself.  Payloads whose runs were fully
    cached (or that predate the field) carry no throughput and are
    skipped with a note.
    """
    figure = base.get("figure", "?")
    notes: list[str] = []
    bv = base.get("meta", {}).get("sim_throughput", {}).get("sim_ns_per_wall_s")
    nv = new.get("meta", {}).get("sim_throughput", {}).get("sim_ns_per_wall_s")
    if not bv:
        notes.append(f"{figure}: baseline has no sim_throughput (cached or "
                     "pre-schema run); skipped")
        return [], notes
    if not nv:
        notes.append(f"{figure}: new result has no sim_throughput (cached "
                     "run?); skipped")
        return [], notes
    mean_pct = pct_diff(nv, bv)
    return [SeriesDiff(figure=figure, series="sim_ns_per_wall_s",
                       direction="higher", base_mean=bv, new_mean=nv,
                       mean_pct=mean_pct, worst_point_pct=mean_pct,
                       regression=mean_pct < -threshold_pct)], notes


def diff_paths(base: str | Path, new: str | Path,
               threshold_pct: float | None = None, *,
               wall_clock: bool = False, health: bool = False
               ) -> tuple[list[SeriesDiff], list[str]]:
    """Diff two BENCH files, or two directories of BENCH_*.json files.

    ``wall_clock=True`` compares simulator throughput metadata instead
    of simulated series (see :func:`wall_clock_diff_payloads`);
    ``health=True`` compares the derived health indicators of
    ``meta.metrics`` (see :mod:`repro.obs.slo`).  When ``threshold_pct``
    is not given it defaults per mode: 5% for series diffs, 20% for the
    (noisier) wall-clock throughput comparison, 10% for the health gate
    — matching the three underlying diff functions.
    Returns (series diffs, notes about unmatched figures).
    """
    if threshold_pct is None:
        threshold_pct = (20.0 if wall_clock
                         else DEFAULT_HEALTH_THRESHOLD_PCT if health
                         else 5.0)
    base, new = Path(base), Path(new)
    notes: list[str] = []

    def one(bp: dict, np_: dict) -> list[SeriesDiff]:
        if wall_clock:
            diffs, wc_notes = wall_clock_diff_payloads(bp, np_, threshold_pct)
            notes.extend(wc_notes)
            return diffs
        if health:
            diffs, h_notes = health_diff_payloads(bp, np_, threshold_pct)
            notes.extend(h_notes)
            return diffs
        return diff_payloads(bp, np_, threshold_pct)

    if base.is_dir() or new.is_dir():
        base_files = {p.name: p for p in sorted(base.glob("BENCH_*.json"))}
        new_files = {p.name: p for p in sorted(new.glob("BENCH_*.json"))}
        diffs: list[SeriesDiff] = []
        for name in base_files:
            if name not in new_files:
                notes.append(f"{name}: only in baseline")
                continue
            diffs.extend(one(load_payload(base_files[name]),
                             load_payload(new_files[name])))
        for name in new_files:
            if name not in base_files:
                notes.append(f"{name}: only in new result set")
        return diffs, notes
    return one(load_payload(base), load_payload(new)), notes
