"""Chain-KV figure family: latency/throughput and multicast cost vs k.

Two registered sweeps over the chain-replicated KV store
(:mod:`repro.workloads.chainkv`, docs/TOPOLOGY.md):

* ``figchain`` — put latency (client -> head -> ... -> tail -> ack),
  get latency (served at the tail), and pipelined put throughput as the
  chain length k grows 1..8.  Put latency should climb ~linearly with k
  (one injected-message hop per replica); get latency should stay flat
  (always exactly client<->tail); throughput degrades more gently than
  latency because the hops pipeline.
* ``figchain_mcast`` — multicast install: one sweep posts the same
  injected jam to all k replicas back-to-back over per-peer QPs and
  waits for every ack.  The per-replica cost should *fall* with k as
  the post software path overlaps earlier frames' flight time.

Every point builds (or forks) a ``Topology.chain(k)`` world with the
``"chainkv"`` package; the per-k ``setup_key`` keeps equal-k points on
one pool worker so they share warm worlds through the setup cache, and
the fork==fresh identity tests cover these specs like any other.
"""

from __future__ import annotations

from ..core.stdworld import shared_world
from ..workloads.chainkv import chain_point, chain_topology
from .figures import FigureResult, FigureSpec, board_counters, register
from .stats import summarize

CHAIN_KS = (1, 2, 3, 4, 5, 6, 7, 8)
CHAIN_KS_FAST = (1, 2, 4)


def _points_chain(fast: bool) -> list[dict]:
    ks = CHAIN_KS_FAST if fast else CHAIN_KS
    warmup, iters = (4, 12) if fast else (8, 30)
    stream = 48 if fast else 192
    return [{"k": k, "value_bytes": 64, "warmup": warmup, "iters": iters,
             "stream": stream} for k in ks]


def _point_chain(k: int, value_bytes: int, warmup: int, iters: int,
                 stream: int) -> dict:
    w = shared_world(topology=chain_topology(k), package="chainkv")
    out = chain_point(w, value_bytes=value_bytes, warmup=warmup,
                      iters=iters, stream_count=stream)
    return {"x": k,
            "put_ns": summarize(out.put_ns).p50,
            "get_ns": summarize(out.get_ns).p50,
            "put_mps": out.put_rate_mps,
            "_counters": board_counters(w)}


def _metrics_chain(r: FigureResult) -> dict:
    put, get, x = r.series["put_ns"], r.series["get_ns"], r.x
    per_hop = ((put[-1] - put[0]) / (x[-1] - x[0])) if len(x) > 1 else 0.0
    return {"put_ns_per_hop": per_hop,
            "get_flatness_pct": (max(get) - min(get)) / min(get) * 100.0,
            "rate_k1_over_kmax": (r.series["put_mps"][0]
                                  / r.series["put_mps"][-1])}


register(FigureSpec(
    name="figchain",
    title="Chain KV: put/get latency and put throughput vs chain length",
    x_label="chain length (replicas)",
    points=_points_chain,
    point=_point_chain,
    metrics=_metrics_chain,
    directions={"put_ns": "lower", "get_ns": "lower", "put_mps": "higher"},
    notes="put pays one injected-jam hop per replica; get is flat (tail "
          "serves it regardless of k); streamed puts pipeline the hops",
    setup_key=lambda p: {"chain": p["k"]},
))


def _points_mcast(fast: bool) -> list[dict]:
    ks = CHAIN_KS_FAST if fast else CHAIN_KS
    iters = 5 if fast else 15
    return [{"k": k, "iters": iters} for k in ks]


def _point_mcast(k: int, iters: int) -> dict:
    w = shared_world(topology=chain_topology(k), package="chainkv")
    out = chain_point(w, warmup=0, iters=0, mcast_iters=iters)
    install = summarize(out.mcast_ns).p50
    return {"x": k,
            "install_ns": install,
            "per_replica_ns": install / k,
            "_counters": board_counters(w)}


def _metrics_mcast(r: FigureResult) -> dict:
    per = r.series["per_replica_ns"]
    return {"per_replica_k1_ns": per[0], "per_replica_kmax_ns": per[-1],
            "amortization": per[0] / per[-1]}


register(FigureSpec(
    name="figchain_mcast",
    title="Chain KV: multicast jam install cost vs replica count",
    x_label="replicas installed",
    points=_points_mcast,
    point=_point_mcast,
    metrics=_metrics_mcast,
    directions={"install_ns": "lower", "per_replica_ns": "lower"},
    notes="one sweep posts the injected frame to k replicas back-to-back; "
          "per-replica cost amortizes as posts overlap earlier flights",
    setup_key=lambda p: {"chain": p["k"]},
))
