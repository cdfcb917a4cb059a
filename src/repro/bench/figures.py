"""Per-figure reproduction drivers and the sweep-point registry.

Every figure in §VII (and every ablation, see :mod:`.ablations`) is
described by a :class:`FigureSpec`: an ordered list of *sweep points*
(plain JSON-serializable parameter dicts) plus a module-level point
function that measures one point and returns one row of series values.
Because points are independent — each builds its own fresh
:class:`~repro.core.stdworld.World` — the orchestrator
(:mod:`.orchestrator`) can fan them out across a process pool and cache
them individually (:mod:`.resultstore`).

The classic ``fig*`` callables are kept as thin wrappers that run their
spec's points serially and assemble a :class:`FigureResult`: labelled
series plus the derived headline metrics EXPERIMENTS.md tracks.
``fast=True`` shrinks sweeps/iterations for CI and pytest-benchmark; the
full sweeps are what EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.config import RuntimeConfig, WaitMode
from ..core.stdworld import World, shared_world
from ..machine.hierarchy import HierarchyConfig
from ..machine.noise import StressConfig
from ..sim.trace import Scoreboard
from .calibration import (
    BYTE_SIZES,
    INT_COUNTS,
    MEASURE_ITERS,
    RATE_MESSAGES,
    TAIL_BYTE_SIZES,
    TAIL_INT_COUNTS,
    TAIL_ITERS,
    TARGETS,
    WARMUP_ITERS,
)
from .shapes import (
    am_injection_rate,
    am_pingpong,
    ucx_put_pingpong,
    ucx_put_stream,
)
from .stats import pct_diff


@dataclass
class FigureResult:
    figure: str
    title: str
    x_label: str
    x: list
    series: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""
    # simulator Scoreboard counters summed over every world the sweep
    # built (sorted by name for stable serialization)
    counters: dict[str, int] = field(default_factory=dict)

    def as_rows(self) -> list[list]:
        rows = [[self.x_label, *self.series.keys()]]
        for i, xv in enumerate(self.x):
            rows.append([xv, *(self.series[k][i] for k in self.series)])
        return rows


@dataclass(frozen=True)
class FigureSpec:
    """One registered sweep: how to enumerate, run, and summarize it.

    ``points(fast)`` returns the ordered sweep-point parameter dicts
    (every value JSON-serializable — they are hashed into cache keys).
    ``point(**params)`` measures one point and returns a row: the ``"x"``
    value, one entry per series, and optionally ``"_counters"`` (a
    Scoreboard counter dict; keys starting with ``_`` never become
    series).  ``metrics(result)`` derives the headline metrics once all
    rows are assembled.  ``directions`` marks, per series, whether
    ``"lower"`` or ``"higher"`` values are better — ``bench diff`` only
    flags regressions on series listed here.

    ``setup_key`` names the world-setup profile the point function
    builds: a JSON-serializable constant, or a callable mapping one
    point's params to such a value.  Equal keys promise equal
    ``shared_world`` acquisition sequences, so the orchestrator keeps
    whole equal-key groups on one pool worker where later points fork
    the warm worlds the first point built.  Defaults to the spec name —
    always correct, but blind to cross-figure sharing.
    """

    name: str
    title: str
    x_label: str
    points: Callable[[bool], list[dict]]
    point: Callable[..., dict]
    metrics: Callable[[FigureResult], dict] | None = None
    directions: dict[str, str] = field(default_factory=dict)
    notes: str = ""
    setup_key: Callable[[dict], object] | str | None = None

    def setup_key_for(self, params: dict) -> object:
        """The setup-group key for one sweep point (JSON-serializable)."""
        if callable(self.setup_key):
            return self.setup_key(params)
        return self.setup_key if self.setup_key is not None else self.name


REGISTRY: dict[str, FigureSpec] = {}


def register(spec: FigureSpec) -> FigureSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate figure spec {spec.name!r}")
    REGISTRY[spec.name] = spec
    return spec


def full_registry() -> dict[str, FigureSpec]:
    """The complete spec registry: §VII figures, the ablations, and the
    chain-KV figure family."""
    from . import ablations, chainfigs  # noqa: F401  (import: registers)

    return REGISTRY


def assemble(spec: FigureSpec, rows: list[dict]) -> FigureResult:
    """Build a FigureResult from ordered point rows."""
    if not rows:
        raise ValueError(f"{spec.name}: no sweep points")
    keys = [k for k in rows[0] if k != "x" and not k.startswith("_")]
    # Per-point counter dicts (shipped back from pool workers as plain
    # dicts) fold through a Scoreboard — same merge the workers' own
    # boards would use if they survived the process boundary.
    board = Scoreboard()
    for row in rows:
        board.merge(row.get("_counters", {}))
    counters = {name: int(value) for name, value in board.counters.items()}
    result = FigureResult(
        figure=spec.name,
        title=spec.title,
        x_label=spec.x_label,
        x=[row["x"] for row in rows],
        series={k: [row[k] for row in rows] for k in keys},
        notes=spec.notes,
        counters=dict(sorted(counters.items())),
    )
    if spec.metrics is not None:
        result.metrics = spec.metrics(result)
    return result


def run_spec(spec: FigureSpec | str, fast: bool = True,
             smoke: bool = False) -> FigureResult:
    """Run one spec's sweep serially (the orchestrator parallelizes)."""
    if isinstance(spec, str):
        spec = full_registry()[spec]
    points = spec.points(fast)
    if smoke:
        points = points[:1]
    return assemble(spec, [spec.point(**p) for p in points])


# ---------------------------------------------------------------------------
# sweep-axis helpers
# ---------------------------------------------------------------------------

def _sizes(fast: bool) -> tuple[int, ...]:
    return (64, 1024, 16384) if fast else BYTE_SIZES


def _ints(fast: bool) -> tuple[int, ...]:
    return (1, 16, 256, 1024) if fast else INT_COUNTS


def _iters(fast: bool) -> tuple[int, int]:
    return (8, 30) if fast else (WARMUP_ITERS, MEASURE_ITERS)


def _messages(fast: bool) -> int:
    return 400 if fast else RATE_MESSAGES


def board_counters(*worlds: World) -> dict[str, int]:
    """Sum every node's Scoreboard counters across the point's worlds."""
    out: dict[str, int] = {}
    for w in worlds:
        for node in w.bed.nodes:
            for name, value in node.board.counters.items():
                out[name] = out.get(name, 0) + int(value)
    return out


# ---------------------------------------------------------------------------
# Figs 5-6: Two-Chains AM put without execution vs UCX put
# ---------------------------------------------------------------------------

def _points_fig5(fast: bool) -> list[dict]:
    warmup, iters = _iters(fast)
    return [{"size": s, "warmup": warmup, "iters": iters}
            for s in _sizes(fast)]


def _point_fig5(size: int, warmup: int, iters: int) -> dict:
    w = shared_world()
    am = am_pingpong(w, "jam_ss_sum", size, inject=False, no_exec=True,
                     warmup=warmup, iters=iters)
    w2 = shared_world()
    ucx = ucx_put_pingpong(w2, am.wire_size, warmup=warmup, iters=iters)
    return {"x": am.wire_size,
            "am_ns": am.stats.p50,
            "ucx_put_ns": ucx.stats.p50,
            "overhead_pct": pct_diff(am.stats.p50, ucx.stats.p50),
            "_counters": board_counters(w, w2)}


def _metrics_fig5(r: FigureResult) -> dict:
    overhead = r.series["overhead_pct"]
    return {"max_overhead_pct": max(overhead),
            "paper_max_overhead_pct": TARGETS.fig5_max_latency_overhead_pct}


register(FigureSpec(
    name="fig5",
    title="Server-Side Sum: AM put without-execution latency overhead",
    x_label="message bytes",
    points=_points_fig5,
    point=_point_fig5,
    metrics=_metrics_fig5,
    directions={"am_ns": "lower", "ucx_put_ns": "lower",
                "overhead_pct": "lower"},
    notes="paper: <=1.5% worse at worst; ours lands at or below the "
          "UCX baseline",
    setup_key="std",
))


def _points_fig6(fast: bool) -> list[dict]:
    return [{"size": s, "messages": _messages(fast)} for s in _sizes(fast)]


def _point_fig6(size: int, messages: int) -> dict:
    w = shared_world()
    am = am_injection_rate(w, "jam_ss_sum", size, inject=False,
                           no_exec=True, messages=messages)
    w2 = shared_world()
    ucx = ucx_put_stream(w2, am.wire_size, messages=messages)
    return {"x": am.wire_size,
            "am_gbps": am.wire_gbps,
            "ucx_gbps": ucx.wire_gbps,
            "speedup": am.wire_gbps / ucx.wire_gbps,
            "_counters": board_counters(w, w2)}


def _metrics_fig6(r: FigureResult) -> dict:
    speedup = r.series["speedup"]
    return {"min_speedup": min(speedup), "max_speedup": max(speedup),
            "paper_speedup_lo": TARGETS.fig6_speedup_range[0],
            "paper_speedup_hi": TARGETS.fig6_speedup_range[1]}


register(FigureSpec(
    name="fig6",
    title="Server-Side Sum: AM put without-execution bandwidth overhead",
    x_label="message bytes",
    points=_points_fig6,
    point=_point_fig6,
    metrics=_metrics_fig6,
    directions={"am_gbps": "higher", "ucx_gbps": "higher",
                "speedup": "higher"},
    setup_key="std",
))


# ---------------------------------------------------------------------------
# Figs 7-8: Injected vs Local Function
# ---------------------------------------------------------------------------

def _points_fig7(fast: bool, jam: str) -> list[dict]:
    warmup, iters = _iters(fast)
    return [{"jam": jam, "ints": n, "warmup": warmup, "iters": iters}
            for n in _ints(fast)]


def _point_fig7(jam: str, ints: int, warmup: int, iters: int) -> dict:
    nb = ints * 4
    w = shared_world()
    inj = am_pingpong(w, jam, nb, inject=True, warmup=warmup, iters=iters)
    w2 = shared_world()
    loc = am_pingpong(w2, jam, nb, inject=False, warmup=warmup, iters=iters)
    return {"x": ints,
            "injected_ns": inj.stats.p50,
            "local_ns": loc.stats.p50,
            "loss_pct": pct_diff(inj.stats.p50, loc.stats.p50),
            "_counters": board_counters(w, w2)}


def _metrics_fig7(r: FigureResult) -> dict:
    loss = r.series["loss_pct"]
    return {"small_payload_loss_pct": loss[0],
            "largest_payload_loss_pct": loss[-1],
            "paper_small_loss_pct": TARGETS.fig7_small_payload_loss_pct}


_FIG7_NOTES = ("loss should start high (~40% in the paper) and converge "
               "toward 0 with payload size; protocol-threshold bumps appear "
               "where the injected frame crosses a UCX code-path boundary")

for _jam, _name in (("jam_indirect_put", "fig7"), ("jam_ss_sum", "fig7_sum")):
    register(FigureSpec(
        name=_name,
        title=f"{_jam}: latency, Injected vs Local Function",
        x_label="payload (4B integers)",
        points=(lambda fast, _j=_jam: _points_fig7(fast, _j)),
        point=_point_fig7,
        metrics=_metrics_fig7,
        directions={"injected_ns": "lower", "local_ns": "lower",
                    "loss_pct": "lower"},
        notes=_FIG7_NOTES,
        setup_key="std",
    ))


def _points_fig8(fast: bool) -> list[dict]:
    return [{"ints": n, "messages": _messages(fast)} for n in _ints(fast)]


def _point_fig8(ints: int, messages: int) -> dict:
    nb = ints * 4
    w = shared_world()
    inj = am_injection_rate(w, "jam_indirect_put", nb, inject=True,
                            messages=messages)
    w2 = shared_world()
    loc = am_injection_rate(w2, "jam_indirect_put", nb, inject=False,
                            messages=messages)
    return {"x": ints,
            "injected_mps": inj.rate_mps,
            "local_mps": loc.rate_mps,
            "rate_loss_pct": pct_diff(inj.rate_mps, loc.rate_mps),
            "_counters": board_counters(w, w2)}


def _metrics_fig8(r: FigureResult) -> dict:
    loss = r.series["rate_loss_pct"]
    return {"small_payload_rate_loss_pct": loss[0],
            "largest_payload_rate_loss_pct": loss[-1]}


register(FigureSpec(
    name="fig8",
    title="Indirect Put: message rate, Injected vs Local Function",
    x_label="payload (4B integers)",
    points=_points_fig8,
    point=_point_fig8,
    metrics=_metrics_fig8,
    directions={"injected_mps": "higher", "local_mps": "higher",
                "rate_loss_pct": "higher"},
    setup_key="std",
))


# ---------------------------------------------------------------------------
# Figs 9-10: LLC stashing
# ---------------------------------------------------------------------------

def _stash_worlds() -> tuple[World, World]:
    return (shared_world(hier_cfg=HierarchyConfig(stash_enabled=True)),
            shared_world(hier_cfg=HierarchyConfig(stash_enabled=False)))


def _points_fig9(fast: bool) -> list[dict]:
    warmup, iters = _iters(fast)
    return [{"ints": n, "warmup": warmup, "iters": iters}
            for n in _ints(fast)]


def _point_fig9(ints: int, warmup: int, iters: int) -> dict:
    nb = ints * 4
    ws, wn = _stash_worlds()
    st = am_pingpong(ws, "jam_indirect_put", nb, warmup=warmup, iters=iters)
    ns = am_pingpong(wn, "jam_indirect_put", nb, warmup=warmup, iters=iters)
    return {"x": ints,
            "stash_ns": st.stats.p50,
            "nonstash_ns": ns.stats.p50,
            "reduction_pct": -pct_diff(st.stats.p50, ns.stats.p50),
            "_counters": board_counters(ws, wn)}


def _metrics_fig9(r: FigureResult) -> dict:
    return {"max_reduction_pct": max(r.series["reduction_pct"]),
            "paper_max_reduction_pct": TARGETS.fig9_max_latency_gain_pct}


register(FigureSpec(
    name="fig9",
    title="Indirect Put: latency reduction with LLC stashing",
    x_label="payload (4B integers)",
    points=_points_fig9,
    point=_point_fig9,
    metrics=_metrics_fig9,
    directions={"stash_ns": "lower", "nonstash_ns": "lower",
                "reduction_pct": "higher"},
    setup_key="stash-pair",
))


def _points_fig10(fast: bool, jam: str) -> list[dict]:
    # Indirect Put sweeps put counts (4B integers); Server-Side Sum
    # sweeps byte sizes, like the corresponding paper plots.
    if jam == "jam_indirect_put":
        xs, to_bytes = _ints(fast), 4
    else:
        xs, to_bytes = _sizes(fast), 1
    return [{"jam": jam, "x": xv, "nbytes": xv * to_bytes,
             "messages": _messages(fast)} for xv in xs]


def _point_fig10(jam: str, x, nbytes: int, messages: int) -> dict:
    ws, wn = _stash_worlds()
    st = am_injection_rate(ws, jam, nbytes, messages=messages)
    ns = am_injection_rate(wn, jam, nbytes, messages=messages)
    return {"x": x,
            "stash_mps": st.rate_mps,
            "nonstash_mps": ns.rate_mps,
            "increase_pct": pct_diff(st.rate_mps, ns.rate_mps),
            "_counters": board_counters(ws, wn)}


def _metrics_fig10(r: FigureResult, target: float) -> dict:
    return {"max_increase_pct": max(r.series["increase_pct"]),
            "paper_max_increase_pct": target}


for _jam, _name, _xl in (
        ("jam_indirect_put", "fig10", "payload (4B integers)"),
        ("jam_ss_sum", "fig10_sum", "payload bytes")):
    _target = (TARGETS.fig10_max_rate_gain_pct if _jam == "jam_indirect_put"
               else TARGETS.fig10_sum_rate_gain_pct)
    register(FigureSpec(
        name=_name,
        title=f"{_jam}: message rate increase with LLC stashing",
        x_label=_xl,
        points=(lambda fast, _j=_jam: _points_fig10(fast, _j)),
        point=_point_fig10,
        metrics=(lambda r, _t=_target: _metrics_fig10(r, _t)),
        directions={"stash_mps": "higher", "nonstash_mps": "higher",
                    "increase_pct": "higher"},
        setup_key="stash-pair",
    ))


# ---------------------------------------------------------------------------
# Figs 11-12: tail latency on a fully loaded system
# ---------------------------------------------------------------------------

def _points_tail(fast: bool, jam: str) -> list[dict]:
    iters = 600 if fast else TAIL_ITERS
    if jam == "jam_indirect_put":
        xs, to_bytes = ((1, 64, 1024) if fast else TAIL_INT_COUNTS), 4
    else:
        xs, to_bytes = ((64, 2048, 32768) if fast else TAIL_BYTE_SIZES), 1
    return [{"jam": jam, "x": xv, "nbytes": xv * to_bytes, "iters": iters}
            for xv in xs]


def _tail_stats(world: World, jam: str, nb: int, iters: int,
                stress_cfg: StressConfig | None = None):
    out = am_pingpong(world, jam, nb, warmup=16, iters=iters, stress=True,
                      stress_cfg=stress_cfg)
    return out.stats


def _point_tail(jam: str, x, nbytes: int, iters: int) -> dict:
    ws, wn = _stash_worlds()
    st = _tail_stats(ws, jam, nbytes, iters)
    ns = _tail_stats(wn, jam, nbytes, iters)
    return {"x": x,
            "stash_p50": st.p50, "stash_p999": st.p999,
            "stash_spread_pct": st.tail_spread_pct,
            "nonstash_p50": ns.p50, "nonstash_p999": ns.p999,
            "nonstash_spread_pct": ns.tail_spread_pct,
            "tail_improvement": ns.p999 / st.p999,
            "_counters": board_counters(ws, wn)}


def _metrics_tail(r: FigureResult, paper_gain: float) -> dict:
    gain = r.series["tail_improvement"]
    return {"max_tail_improvement": max(gain),
            "paper_tail_improvement": paper_gain,
            "stash_spread_peak_pct": max(r.series["stash_spread_pct"]),
            "nonstash_spread_peak_pct": max(r.series["nonstash_spread_pct"])}


for _jam, _name, _xl, _gain in (
        ("jam_indirect_put", "fig11", "payload (4B integers)",
         TARGETS.fig11_tail_improvement_max),
        ("jam_ss_sum", "fig12", "payload bytes", 2.0)):
    register(FigureSpec(
        name=_name,
        title=f"{_jam}: tail latency on a fully loaded system",
        x_label=_xl,
        points=(lambda fast, _j=_jam: _points_tail(fast, _j)),
        point=_point_tail,
        metrics=(lambda r, _g=_gain: _metrics_tail(r, _g)),
        directions={"stash_p50": "lower", "stash_p999": "lower",
                    "stash_spread_pct": "lower",
                    "nonstash_p50": "lower", "nonstash_p999": "lower",
                    "tail_improvement": "higher"},
        setup_key="stash-pair",
    ))


# ---------------------------------------------------------------------------
# Figs 13-14: WFE vs polling
# ---------------------------------------------------------------------------

def _points_wfe(fast: bool, jam: str) -> list[dict]:
    warmup, iters = _iters(fast)
    if jam == "jam_indirect_put":
        xs, to_bytes = ((16, 256, 1024) if fast else INT_COUNTS), 4
    else:
        xs, to_bytes = ((512, 4096, 32768) if fast else BYTE_SIZES), 1
    return [{"jam": jam, "x": xv, "nbytes": xv * to_bytes,
             "warmup": warmup, "iters": iters} for xv in xs]


def _point_wfe(jam: str, x, nbytes: int, warmup: int, iters: int) -> dict:
    wp = shared_world(client_cfg=RuntimeConfig(wait_mode=WaitMode.POLL),
                      server_cfg=RuntimeConfig(wait_mode=WaitMode.POLL))
    pol = am_pingpong(wp, jam, nbytes, warmup=warmup, iters=iters)
    ww = shared_world(client_cfg=RuntimeConfig(wait_mode=WaitMode.WFE),
                      server_cfg=RuntimeConfig(wait_mode=WaitMode.WFE))
    wfe = am_pingpong(ww, jam, nbytes, warmup=warmup, iters=iters)
    return {"x": x,
            "poll_ns": pol.stats.p50,
            "wfe_ns": wfe.stats.p50,
            "latency_penalty_pct": pct_diff(wfe.stats.p50, pol.stats.p50),
            "poll_cycles_per_msg": pol.server_cycles_per_iter,
            "wfe_cycles_per_msg": wfe.server_cycles_per_iter,
            "cycle_reduction": (pol.server_cycles_per_iter
                                / max(wfe.server_cycles_per_iter, 1.0)),
            "_counters": board_counters(wp, ww)}


def _metrics_wfe(r: FigureResult) -> dict:
    return {"max_latency_penalty_pct": max(r.series["latency_penalty_pct"]),
            "min_cycle_reduction": min(r.series["cycle_reduction"]),
            "max_cycle_reduction": max(r.series["cycle_reduction"])}


for _jam, _name, _xl in (
        ("jam_indirect_put", "fig13", "payload (4B integers)"),
        ("jam_ss_sum", "fig14", "payload bytes")):
    register(FigureSpec(
        name=_name,
        title=f"{_jam}: effects of WFE on Two-Chains active messages",
        x_label=_xl,
        points=(lambda fast, _j=_jam: _points_wfe(fast, _j)),
        point=_point_wfe,
        metrics=_metrics_wfe,
        directions={"poll_ns": "lower", "wfe_ns": "lower",
                    "latency_penalty_pct": "lower",
                    "poll_cycles_per_msg": "lower",
                    "wfe_cycles_per_msg": "lower",
                    "cycle_reduction": "higher"},
        setup_key="wfe-pair",
    ))


# ---------------------------------------------------------------------------
# Legacy per-figure entry points (serial; used by tests and examples)
# ---------------------------------------------------------------------------

def fig5_put_latency_overhead(fast: bool = True) -> FigureResult:
    """Server-Side Sum AM put (without-execution) vs UCX put latency.

    Comparison is at equal bytes-on-the-wire: the AM frame for payload S
    vs a raw put of the same wire size."""
    return run_spec("fig5", fast=fast)


def fig6_put_bandwidth_overhead(fast: bool = True) -> FigureResult:
    """Server-Side Sum AM streaming vs UCX put streaming bandwidth."""
    return run_spec("fig6", fast=fast)


def fig7_injected_vs_local_latency(fast: bool = True, jam: str =
                                   "jam_indirect_put") -> FigureResult:
    return run_spec("fig7" if jam == "jam_indirect_put" else "fig7_sum",
                    fast=fast)


def fig8_injected_vs_local_rate(fast: bool = True) -> FigureResult:
    return run_spec("fig8", fast=fast)


def fig9_stash_latency(fast: bool = True) -> FigureResult:
    return run_spec("fig9", fast=fast)


def fig10_stash_rate(fast: bool = True, jam: str = "jam_indirect_put"
                     ) -> FigureResult:
    return run_spec("fig10" if jam == "jam_indirect_put" else "fig10_sum",
                    fast=fast)


def fig11_tail_indirect(fast: bool = True) -> FigureResult:
    return run_spec("fig11", fast=fast)


def fig12_tail_sum(fast: bool = True) -> FigureResult:
    return run_spec("fig12", fast=fast)


def fig13_wfe_indirect(fast: bool = True) -> FigureResult:
    return run_spec("fig13", fast=fast)


def fig14_wfe_sum(fast: bool = True) -> FigureResult:
    return run_spec("fig14", fast=fast)


ALL_FIGURES = {
    "fig5": fig5_put_latency_overhead,
    "fig6": fig6_put_bandwidth_overhead,
    "fig7": fig7_injected_vs_local_latency,
    "fig8": fig8_injected_vs_local_rate,
    "fig9": fig9_stash_latency,
    "fig10": fig10_stash_rate,
    "fig11": fig11_tail_indirect,
    "fig12": fig12_tail_sum,
    "fig13": fig13_wfe_indirect,
    "fig14": fig14_wfe_sum,
}
