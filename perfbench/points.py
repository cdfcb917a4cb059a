"""The benchmark's three workloads: ordered sweep points and their rows.

Each workload is a fixed list of sweep points.  A point acquires its
worlds through the setup cache (``shared_world(..., seed=seed)``), runs
one benchmark shape on them and returns a row shaped like a committed
``BENCH_<figure>.json`` point: ``{"x", "values", "counters"}``.  The
point bodies mirror the registered figure point functions
(``repro.bench.figures`` / ``repro.bench.chainfigs``) with one change:
the workload seed reaches every world, so only the stress RNG streams
move with ``--seed``.

Why each workload exists (README.md has the full layer map):

* ``stress_tail`` -- Fig 12 points 0-1: the interference model
  (noise ticks, LLC pollution, DRAM contention) dominates host time.
* ``inject_rate`` -- Fig 8: VM execution, mailbox dispatch and
  hierarchy streaming with no noise at all, so an interference-model
  change must leave it unchanged.
* ``chain_kv`` -- chain-KV puts/gets/streams on 2..9-node fabrics plus a
  k=8 multicast: event-heavy, and injected code is re-staged into a
  fresh mailbox slot on every hop, so it is the compile/invalidate-heavy
  use of the VM.
"""

from __future__ import annotations

from repro.bench.calibration import TARGETS
from repro.bench.figures import board_counters
from repro.bench.shapes import am_injection_rate, am_pingpong
from repro.bench.stats import pct_diff, summarize
from repro.core.stdworld import shared_world
from repro.machine.hierarchy import HierarchyConfig
from repro.sim.rng import DEFAULT_SEED  # noqa: F401  (re-exported)
from repro.workloads.chainkv import chain_point, chain_topology

#: A second seed, never used while tuning, for checking claims.
HELD_OUT_SEED = 7

#: fig12's registered ``paper_tail_improvement`` (§VII-C: the Server-Side
#: Sum tail is "up to 2x better" with stashing).
FIG12_PAPER_TAIL_GAIN = 2.0

WORKLOADS = ("stress_tail", "inject_rate", "chain_kv")

#: Workloads that start a stress load: the only ones that draw from the
#: seed, and the only ones with a ``noise.touched_set_share``.
STRESSED = ("stress_tail",)


def _row(x, values: dict, worlds) -> dict:
    return {"x": x, "values": values, "counters": board_counters(*worlds)}


# -- stress_tail: Fig 12 points 0-1 ----------------------------------------

def _stress_worlds(params: dict, seed: int) -> list:
    return [shared_world(hier_cfg=HierarchyConfig(stash_enabled=True),
                         seed=seed),
            shared_world(hier_cfg=HierarchyConfig(stash_enabled=False),
                         seed=seed)]


def _stress_point(params: dict, worlds: list) -> dict:
    ws, wn = worlds
    nb, iters = params["nbytes"], params["iters"]
    st = am_pingpong(ws, "jam_ss_sum", nb, warmup=16, iters=iters,
                     stress=True).stats
    ns = am_pingpong(wn, "jam_ss_sum", nb, warmup=16, iters=iters,
                     stress=True).stats
    return _row(params["x"], {
        "stash_p50": st.p50, "stash_p999": st.p999,
        "stash_spread_pct": st.tail_spread_pct,
        "nonstash_p50": ns.p50, "nonstash_p999": ns.p999,
        "nonstash_spread_pct": ns.tail_spread_pct,
        "tail_improvement": ns.p999 / st.p999}, worlds)


# -- inject_rate: Fig 8 ------------------------------------------------------

def _pair_worlds(params: dict, seed: int) -> list:
    return [shared_world(seed=seed), shared_world(seed=seed)]


def _rate_point(params: dict, worlds: list) -> dict:
    w, w2 = worlds
    nb, messages = params["ints"] * 4, params["messages"]
    inj = am_injection_rate(w, "jam_indirect_put", nb, inject=True,
                            messages=messages)
    loc = am_injection_rate(w2, "jam_indirect_put", nb, inject=False,
                            messages=messages)
    return _row(params["ints"], {
        "injected_mps": inj.rate_mps, "local_mps": loc.rate_mps,
        "rate_loss_pct": pct_diff(inj.rate_mps, loc.rate_mps)}, worlds)


# -- chain_kv: figchain at full depth, then one k=8 multicast ---------------

def _chain_worlds(params: dict, seed: int) -> list:
    return [shared_world(topology=chain_topology(params["k"]),
                         package="chainkv", seed=seed)]


def _chain_point(params: dict, worlds: list) -> dict:
    (w,) = worlds
    if params["kind"] == "mcast":
        out = chain_point(w, warmup=0, iters=0, mcast_iters=params["iters"])
        install = summarize(out.mcast_ns).p50
        return _row(params["k"], {"install_ns": install,
                                  "per_replica_ns": install / params["k"]},
                    worlds)
    out = chain_point(w, value_bytes=params["value_bytes"],
                      warmup=params["warmup"], iters=params["iters"],
                      stream_count=params["stream"])
    return _row(params["k"], {"put_ns": summarize(out.put_ns).p50,
                              "get_ns": summarize(out.get_ns).p50,
                              "put_mps": out.put_rate_mps}, worlds)


_SPECS = {
    "stress_tail": (
        [{"x": x, "nbytes": x, "iters": 600} for x in (64, 2048)],
        _stress_worlds, _stress_point),
    "inject_rate": (
        [{"ints": n, "messages": 400} for n in (1, 16, 256, 1024)],
        _pair_worlds, _rate_point),
    "chain_kv": (
        [{"kind": "chain", "k": k, "value_bytes": 64, "warmup": 8,
          "iters": 30, "stream": 192} for k in (1, 2, 4, 8)]
        + [{"kind": "mcast", "k": 8, "iters": 15}],
        _chain_worlds, _chain_point),
}


def points(workload: str) -> list[dict]:
    """The workload's sweep points, in pass order."""
    return _SPECS[workload][0]


def acquire(workload: str, params: dict, seed: int) -> list:
    """The point's worlds, in the point's acquisition order."""
    return _SPECS[workload][1](params, seed)


def run_point(workload: str, params: dict, worlds: list) -> dict:
    """Measure one point on already-acquired worlds; returns its row."""
    return _SPECS[workload][2](params, worlds)


def paper_err_pct(workload: str, rows: list[dict]) -> float | None:
    """Relative error (%) of the workload's headline shape against the
    paper, from its rows; None for ``chain_kv`` (no paper reference).

    * stress_tail: best stash tail improvement vs Fig 12's 2x.
    * inject_rate: small-payload injected-vs-local rate loss vs the
      paper's ~40% (Figs 7-8).
    """
    if workload == "stress_tail":
        gain = max(r["values"]["tail_improvement"] for r in rows)
        return abs(gain - FIG12_PAPER_TAIL_GAIN) / FIG12_PAPER_TAIL_GAIN * 100
    if workload == "inject_rate":
        loss = -rows[0]["values"]["rate_loss_pct"]
        target = TARGETS.fig7_small_payload_loss_pct
        return abs(loss - target) / target * 100
    return None

