"""Convenience construction of Two-Chains worlds: the standard two-node
testbed and arbitrary N-node fabrics.

Used by tests, examples, and every benchmark driver: a world is a
:class:`~repro.rdma.fabric.Fabric` (nodes + HCAs + QP mesh, described by
a :class:`~repro.rdma.fabric.Topology`) with one Two-Chains runtime per
node and a named package loaded on every side.  The default topology is
the paper's back-to-back pair (§VI-C); ``Topology.chain(k)`` and custom
topologies build the N-node worlds docs/TOPOLOGY.md describes.

Beyond plain construction (:func:`make_world`), this module is the home
of the **setup cache** (:class:`SetupCache` / :func:`shared_world`): a
world's build — AMC compile, ELF build, load, remote link — is identical
for every sweep point that shares a construction key, so the first
acquisition builds and checkpoints the world and later acquisitions
rewind the same instance via :meth:`World.restore` instead of paying the
build again (docs/ARCHITECTURE.md, "Performance engineering").
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import asdict, dataclass, is_dataclass

from ..errors import TwoChainsError
from ..machine.hierarchy import HierarchyConfig
from ..obs.tracer import PID_SIM, TID_TOOL, TRACER as _T
from ..rdma.fabric import Fabric, Topology
from ..rdma.params import LinkParams, DEFAULT_LINK
from ..ucp.worker import UcpConfig
from .config import RuntimeConfig
from .message import frame_wire_size
from .runtime import TwoChainsRuntime
from .stdjams import build_std_package
from .toolchain import PackageBuild

#: Named package builders: worlds constructed from a *named* package are
#: reproducible from their setup key alone (unlike ad-hoc ``build=``
#: packages), so they participate in the setup cache.  Workload modules
#: register their packages here on import (e.g. ``repro.workloads.chainkv``
#: registers ``"chainkv"``).
PACKAGE_BUILDERS = {"std": build_std_package}


@dataclass
class WorldCheckpoint:
    """Opaque state capture of one :class:`World` (see ``World.snapshot``)."""

    engine: tuple
    rngs: dict
    nodes: list            # per-node dicts, in node-id order
    hcas: list             # per-HCA tuples, in node-id order
    qps: dict              # (src, dst) -> QueuePair tuple
    runtimes: list         # per-runtime dicts, in node-id order


@dataclass
class World:
    __test__ = False  # not a pytest class

    bed: Fabric
    runtimes: list[TwoChainsRuntime]
    build: PackageBuild

    @property
    def engine(self):
        return self.bed.engine

    @property
    def topology(self) -> Topology:
        return self.bed.topology

    # node0/node1 keep their historical names on the two-node world; the
    # fabric surface addresses every node by id or role.
    @property
    def client(self) -> TwoChainsRuntime:
        return self.runtimes[0]

    @property
    def server(self) -> TwoChainsRuntime:
        return self.runtimes[1]

    def runtime(self, who) -> TwoChainsRuntime:
        """The runtime of one node, by node id or role name."""
        return self.runtimes[self.topology.resolve(who)]

    def node(self, who):
        """The machine node, by node id or role name."""
        return self.bed.nodes[self.topology.resolve(who)]

    def frame_size_for(self, jam_name: str, payload_bytes: int,
                       inject: bool) -> int:
        """Fixed frame size for a benchmark point (paper: messages sized
        to the nearest 64 B)."""
        code = len(self.build.jam(jam_name).blob) if inject else 0
        return frame_wire_size(code, payload_bytes)

    # -- checkpoint / fork -------------------------------------------------

    def snapshot(self) -> WorldCheckpoint:
        """Checkpoint every mutable subsystem of this world.

        Requires quiescence — empty event queue, no parked WFE waiters,
        no in-flight UCX requests — which is exactly the state right
        after :func:`make_world` or after a completed benchmark shape.
        Violations raise instead of producing an approximate capture.
        """
        bed = self.bed
        return WorldCheckpoint(
            engine=bed.engine.snapshot(),
            rngs=bed.rngs.snapshot(),
            nodes=[node.snapshot() for node in bed.nodes],
            hcas=[hca.snapshot() for hca in bed.hcas],
            qps={pair: qp.snapshot() for pair, qp in bed.qps.items()},
            runtimes=[rt.snapshot() for rt in self.runtimes],
        )

    def restore(self, cp: WorldCheckpoint) -> None:
        """Rewind this world to a checkpoint, in place.

        After the rewind every observable — memory bytes, cache/LRU
        state, DRAM ledger, RNG streams, rkey sequence, scoreboard
        counters, simulated clock — matches the snapshot instant
        exactly, so a restored world measures byte-identically to a
        freshly built one (enforced by the fork determinism tests).
        """
        bed = self.bed
        bed.engine.restore(cp.engine)
        bed.rngs.restore(cp.rngs)
        for node, snap in zip(bed.nodes, cp.nodes):
            node.restore(snap)
        for hca, snap in zip(bed.hcas, cp.hcas):
            hca.restore(snap)
        for pair, snap in cp.qps.items():
            bed.qps[pair].restore(snap)
        for rt, snap in zip(self.runtimes, cp.runtimes):
            rt.restore(snap)


def make_world(hier_cfg: HierarchyConfig | None = None,
               client_cfg: RuntimeConfig | None = None,
               server_cfg: RuntimeConfig | None = None,
               link: LinkParams = DEFAULT_LINK,
               ucp_cfg: UcpConfig | None = None,
               build: PackageBuild | None = None,
               seed: int | None = None,
               topology: Topology | None = None,
               package: str = "std") -> World:
    """Build a world: a fabric, one runtime per node, the package loaded
    everywhere.

    ``topology`` defaults to the two-node pair over ``link``; pass
    ``Topology.chain(k)`` (or any custom Topology) for an N-node world.
    ``client_cfg`` configures node 0 (the initiator by convention),
    ``server_cfg`` every other node.  ``package`` names a registered
    builder in :data:`PACKAGE_BUILDERS`; an explicit ``build`` overrides
    it (and makes the world uncacheable — see :func:`world_setup_key`).
    """
    bed = Fabric.create(hier_cfg=hier_cfg, link=link, seed=seed,
                        topology=topology)
    runtimes = []
    for i, (node, hca) in enumerate(zip(bed.nodes, bed.hcas)):
        if i == 0:
            cfg = client_cfg
        elif i == 1 or server_cfg is None:
            cfg = server_cfg
        else:
            # Nodes beyond the pair get their own config instance: a
            # RuntimeConfig is mutable and must not alias across nodes.
            cfg = RuntimeConfig(**vars(server_cfg))
        runtimes.append(TwoChainsRuntime(bed.engine, node, hca,
                                         bed.qps_from(i), cfg=cfg,
                                         ucp_cfg=ucp_cfg))
    if build is not None:
        pkg_build = build
    else:
        try:
            builder = PACKAGE_BUILDERS[package]
        except KeyError:
            raise TwoChainsError(
                f"unknown world package {package!r}; registered: "
                f"{sorted(PACKAGE_BUILDERS)}") from None
        pkg_build = builder()
    for rt in runtimes:
        rt.load_package(pkg_build)
    return World(bed=bed, runtimes=runtimes, build=pkg_build)


# ---------------------------------------------------------------------------
# setup cache: fork warm worlds instead of rebuilding them per sweep point
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def world_setup_key(hier_cfg: HierarchyConfig | None = None,
                    client_cfg: RuntimeConfig | None = None,
                    server_cfg: RuntimeConfig | None = None,
                    link: LinkParams = DEFAULT_LINK,
                    ucp_cfg: UcpConfig | None = None,
                    build: PackageBuild | None = None,
                    seed: int | None = None,
                    topology: Topology | None = None,
                    package: str = "std") -> str | None:
    """Canonical JSON key over everything :func:`make_world` consumes.

    Two calls with equal keys build byte-identical worlds, so their
    setups are interchangeable.  Returns None (uncacheable) for a custom
    ``build``: ad-hoc packages have no serializable identity.
    """
    if build is not None:
        return None
    doc = {
        "hier": _jsonable(asdict(hier_cfg)) if is_dataclass(hier_cfg) else None,
        "client": _jsonable(asdict(client_cfg)) if is_dataclass(client_cfg)
        else None,
        "server": _jsonable(asdict(server_cfg)) if is_dataclass(server_cfg)
        else None,
        "link": _jsonable(asdict(link)),
        "ucp": _jsonable(asdict(ucp_cfg)) if is_dataclass(ucp_cfg) else None,
        "seed": seed,
        "topology": topology.canonical() if topology is not None else None,
        "package": package,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class SetupCache:
    """Per-process pool of checkpointed worlds, keyed by construction args.

    Disabled by default: ``make_world`` callers outside the benchmark
    orchestrator always get a fresh world.  When enabled (pool workers of
    ``twochains bench run``, unless ``--no-fork``), :func:`shared_world`
    hands out pooled instances: the first acquisition under a key builds
    the world and checkpoints it; later acquisitions rewind that same
    instance via :meth:`World.restore` and skip the whole build+link
    prefix.  A sweep point may acquire several worlds (comparison points
    build two); :meth:`begin_point` resets the per-key cursors so every
    point sees the same instance sequence — point N's k-th world under a
    key is always pool slot k, freshly rewound.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._pools: dict[str, list[tuple[World, WorldCheckpoint]]] = {}
        self._cursor: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self._pools.clear()
        self._cursor.clear()
        self.hits = 0
        self.misses = 0

    def begin_point(self) -> None:
        """Reset acquisition cursors; call at every sweep-point boundary."""
        self._cursor.clear()

    def counts(self) -> tuple[int, int]:
        return self.hits, self.misses

    def acquire(self, key: str, **kwargs) -> World:
        pool = self._pools.setdefault(key, [])
        idx = self._cursor.get(key, 0)
        self._cursor[key] = idx + 1
        if idx < len(pool):
            world, cp = pool[idx]
            t0 = time.perf_counter()
            world.restore(cp)
            if _T.enabled:
                # Host-side cost of the fork, made visible on the trace
                # timeline (sim clock just rewound to cp time).
                wall_ns = (time.perf_counter() - t0) * 1e9
                now = world.engine.now
                _T.span(PID_SIM, TID_TOOL, "world.fork", now, now + wall_ns,
                        {"pool_slot": idx, "restore_wall_ns": round(wall_ns)})
            self.hits += 1
            return world
        world = make_world(**kwargs)
        pool.append((world, world.snapshot()))
        self.misses += 1
        return world


#: Process-wide setup cache; the bench orchestrator's pool workers enable
#: it around each task group and clear it afterwards.
SETUP_CACHE = SetupCache()


def shared_world(hier_cfg: HierarchyConfig | None = None,
                 client_cfg: RuntimeConfig | None = None,
                 server_cfg: RuntimeConfig | None = None,
                 link: LinkParams = DEFAULT_LINK,
                 ucp_cfg: UcpConfig | None = None,
                 build: PackageBuild | None = None,
                 seed: int | None = None,
                 topology: Topology | None = None,
                 package: str = "std") -> World:
    """Drop-in for :func:`make_world` that goes through the setup cache.

    With the cache disabled (the default) or an uncacheable request this
    IS ``make_world``; enabled, equal-keyed acquisitions after the first
    rewind a pooled world instead of rebuilding it.
    """
    kwargs = dict(hier_cfg=hier_cfg, client_cfg=client_cfg,
                  server_cfg=server_cfg, link=link, ucp_cfg=ucp_cfg,
                  build=build, seed=seed, topology=topology,
                  package=package)
    if not SETUP_CACHE.enabled:
        return make_world(**kwargs)
    key = world_setup_key(**kwargs)
    if key is None:
        return make_world(**kwargs)
    return SETUP_CACHE.acquire(key, **kwargs)
