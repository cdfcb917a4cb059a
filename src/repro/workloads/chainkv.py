"""Chain-replicated KV store over injected functions (docs/TOPOLOGY.md).

The paper's motivating setting (§I) is disaggregated services that ship
*functions* to where the data lives.  This workload builds the canonical
distributed-systems version of that idea on the N-node fabric: a
chain-replicated key/value store whose replication and lookup logic are
**injected jams**, not pre-installed server code.

Topology (``chain_topology(k)``): node 0 is the client; nodes 1..k are
replicas with roles ``head`` (node 1) and ``tail`` (node k).

* ``put(key, value)`` — the client sends an injected ``jam_chain_put``
  to the head; the head's waiter applies it to the local store and its
  hook *forwards the same active message* (payload read straight out of
  the mailbox slot) to its successor, hop by hop, until the tail applies
  it and sends a small no-exec ack back to the client.
* ``get(key)`` — served at the tail (chain replication's consistency
  point): an injected ``jam_chain_get`` copies the value into the
  tail-side ``ck_reply`` ried buffer, and the tail's hook ships those
  bytes back in a no-exec reply frame.
* ``multicast_install(...)`` — one sweep installs a jam on every
  replica: the client posts the injected frame to all k replicas
  back-to-back (the posts pipeline over per-peer QPs) and waits for all
  acks; the cost vs k is the ``figchain_mcast`` figure family.
* ``drop_replica(i)`` / relink-on-reconfig — removing a middle replica
  re-links the chain: the predecessor runs a fresh out-of-band exchange
  (a new :class:`~repro.core.runtime.Connection`) with the successor, so
  subsequent injected frames carry the successor's element-GOT address
  (the GOT patch) and the store keeps operating as a (k-1)-chain.

Importing this module registers the ``"chainkv"`` package with
:mod:`repro.core.stdworld`'s named-builder registry, so chain worlds
stay setup-cacheable (``make_world(topology=chain_topology(k),
package="chainkv")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.stdworld import PACKAGE_BUILDERS, World
from ..core.runtime import Connection, connect_runtimes
from ..core.toolchain import JamSource, PackageBuild, RiedSource, build_package
from ..errors import TwoChainsError
from ..machine.pages import PROT_RW
from ..obs.metrics import METRICS as _M
from ..rdma.fabric import Topology
from ..rdma.params import DEFAULT_LINK, LinkParams

#: Chain worlds default to a smaller per-node memory than the two-node
#: testbed: k+1 nodes are live at once and the store's footprint is
#: bounded by the ried arrays below.
CHAIN_MEM_SIZE = 16 * 1024 * 1024

CK_SLOTS = 1024          # open-addressed table slots (power of two)
CK_DATA_BYTES = 262144   # per-replica value heap
CK_REPLY_BYTES = 4096    # tail-side reply staging buffer (max value size)

# -- the replica-side ried ---------------------------------------------------

RIED_CHAIN = RiedSource("ried_chain", r"""
// Per-replica chain-KV store: open-addressed key table binding keys to
// (offset, size) in a value heap, plus the tail's reply staging buffer.
extern long tc_hash64(long k);
long ck_keys[1024];
long ck_offsets[1024];
long ck_sizes[1024];
char ck_data[262144];
char ck_reply[4096];
long ck_cursor = 0;
long ck_puts = 0;
long ck_gets = 0;
long ck_installs = 0;

// Replica-local lookup used by tests (the jams carry their own probe
// loops — the client controls the lookup function).
long ck_find(long key) {
    long idx = tc_hash64(key) & 1023;
    long probes = 0;
    while (probes < 1024) {
        long k = ck_keys[idx];
        if (k == 0) { return -1; }
        if (k == key + 1) { return ck_offsets[idx]; }
        idx = (idx + 1) & 1023;
        probes = probes + 1;
    }
    return -1;
}

long ck_put_count() { return ck_puts; }
""")

# -- the injected jams -------------------------------------------------------

JAM_CHAIN_PUT = JamSource("jam_chain_put", r"""
extern long tc_hash64(long k);
extern long tc_memcpy(char* dst, char* src, long n);
extern long ck_keys[];
extern long ck_offsets[];
extern long ck_sizes[];
extern char ck_data[];
extern long ck_cursor;
extern long ck_puts;

long jam_chain_put(char* payload, long nbytes, long key, long a1) {
    // probe with the client-chosen key (key rides in inline arg 0; the
    // payload is the value bytes)
    long mask = 1023;
    long idx = tc_hash64(key) & mask;
    long probes = 0;
    while (probes < 1024) {
        long k = ck_keys[idx];
        if (k == 0 || k == key + 1) { break; }
        idx = (idx + 1) & mask;
        probes = probes + 1;
    }
    long off;
    if (ck_keys[idx] == key + 1) {
        off = ck_offsets[idx];
    } else {
        ck_keys[idx] = key + 1;
        off = ck_cursor;
        ck_cursor = off + nbytes;
        ck_offsets[idx] = off;
    }
    ck_sizes[idx] = nbytes;
    tc_memcpy(ck_data + off, payload, nbytes);
    ck_puts = ck_puts + 1;
    return off;
}
""", pad_code_to=1152)

JAM_CHAIN_GET = JamSource("jam_chain_get", r"""
extern long tc_hash64(long k);
extern long tc_memcpy(char* dst, char* src, long n);
extern long ck_keys[];
extern long ck_offsets[];
extern long ck_sizes[];
extern char ck_data[];
extern char ck_reply[];
extern long ck_gets;

long jam_chain_get(char* payload, long nbytes, long key, long a1) {
    long mask = 1023;
    long idx = tc_hash64(key) & mask;
    long probes = 0;
    long sz = 0;
    while (probes < 1024) {
        long k = ck_keys[idx];
        if (k == 0) { break; }
        if (k == key + 1) {
            sz = ck_sizes[idx];
            tc_memcpy(ck_reply, ck_data + ck_offsets[idx], sz);
            break;
        }
        idx = (idx + 1) & mask;
        probes = probes + 1;
    }
    ck_gets = ck_gets + 1;
    return sz;
}
""", pad_code_to=768)

# The multicast-install probe jam: tiny, so install cost is dominated by
# the per-replica injection sweep, not execution.
JAM_MC_TOUCH = JamSource("jam_mc_touch", r"""
extern long ck_installs;

long jam_mc_touch(char* payload, long nbytes, long a0, long a1) {
    ck_installs = ck_installs + 1;
    return ck_installs;
}
""", pad_code_to=256)


def build_chain_package() -> PackageBuild:
    """The chain-KV package: put/get/multicast jams + the replica ried."""
    return build_package("tcchain", [JAM_CHAIN_PUT, JAM_CHAIN_GET,
                                     JAM_MC_TOUCH], [RIED_CHAIN])


PACKAGE_BUILDERS.setdefault("chainkv", build_chain_package)


def chain_topology(replicas: int, link: LinkParams = DEFAULT_LINK,
                   mem_size: int = CHAIN_MEM_SIZE) -> Topology:
    """The chain world: client (node 0) + ``replicas`` chain nodes."""
    return Topology.chain(replicas, link=link, mem_size=mem_size)


# ---------------------------------------------------------------------------
# the wired store
# ---------------------------------------------------------------------------

@dataclass
class _Hop:
    """Receiver-side state of one chain link on a replica."""
    mailbox: object
    waiter: object
    conn: Connection       # the sender-side handle feeding this mailbox


class ChainKV:
    """A chain-replicated KV store wired onto a chain-topology world.

    Construction performs every out-of-band exchange the paper's model
    requires: per-hop mailboxes + connections down the chain, the tail's
    get/ack/reply channels, and per-replica multicast channels.  All
    replication logic then travels as injected jams at ``put``/``get``
    time — nothing store-specific is pre-installed beyond the package.
    """

    def __init__(self, world: World, value_bytes: int = 64,
                 banks: int = 2, slots: int = 4):
        topo = world.topology
        if "head" not in topo.roles or "tail" not in topo.roles:
            raise TwoChainsError(
                "ChainKV needs a chain topology (roles head/tail); "
                "build the world with topology=chain_topology(k)")
        if value_bytes < 1 or value_bytes > CK_REPLY_BYTES:
            raise TwoChainsError(
                f"value_bytes must be 1..{CK_REPLY_BYTES}")
        self.world = world
        self.engine = world.engine
        self.value_bytes = value_bytes
        self.client = world.runtime("client")
        self.head = topo.role_id("head")
        self.tail = topo.role_id("tail")
        self.replicas = list(range(self.head, self.tail + 1))
        self.build = world.build
        self._pkg = {i: world.runtimes[i].packages[self.build.package_id]
                     for i in range(topo.nodes)}
        put_frame = world.frame_size_for("jam_chain_put", value_bytes, True)
        get_frame = world.frame_size_for("jam_chain_get", 0, True)
        reply_frame = world.frame_size_for("jam_chain_get", value_bytes,
                                           False)
        mc_frame = world.frame_size_for("jam_mc_touch", 0, True)
        ack_frame = world.frame_size_for("jam_chain_put", 0, False)

        # successor connection of each live replica (tail maps to the
        # client ack channel); hooks look this up at send time so a
        # relink only has to swap the dict entry.
        self._next: dict[int, Connection] = {}
        self._hops: dict[int, _Hop] = {}

        # -- put path: client -> head -> ... -> tail -> ack ----------------
        self._in_conn: dict[int, Connection] = {}
        prev_rt = self.client
        for i in self.replicas:
            rt = world.runtimes[i]
            mb = rt.create_mailbox(banks, slots, put_frame)
            conn = connect_runtimes(prev_rt, rt, mb, flow_control=True)
            waiter = rt.make_waiter(mb, flag_target=conn.flag_target())
            waiter.on_frame = self._replica_hook(i, waiter)
            waiter.start()
            self._hops[i] = _Hop(mailbox=mb, waiter=waiter, conn=conn)
            if i > self.head:
                self._next[i - 1] = conn
            prev_rt = rt
        self.c2h = self._hops[self.head].conn

        # -- ack path: tail -> client --------------------------------------
        ack_mb = self.client.create_mailbox(banks, slots, ack_frame)
        self._ack_conn = connect_runtimes(world.runtimes[self.tail],
                                          self.client, ack_mb,
                                          flow_control=True)
        self._next[self.tail] = self._ack_conn
        self.acks: list[tuple[int, int]] = []   # (key, offset), arrival order
        self._ack_ev = self.engine.event("chainkv.ack")

        def ack_hook(view, slot_addr):
            self.acks.append((view.args[0], view.args[1]))
            self._ack_ev.fire()
            return None

        self._ack_waiter = self.client.make_waiter(
            ack_mb, on_frame=ack_hook,
            flag_target=self._ack_conn.flag_target())
        self._ack_waiter.start()

        # -- get path: client -> tail, reply: tail -> client ---------------
        tail_rt = world.runtimes[self.tail]
        get_mb = tail_rt.create_mailbox(1, 1, get_frame)
        self._get_conn = connect_runtimes(self.client, tail_rt, get_mb)
        reply_mb = self.client.create_mailbox(1, 1, reply_frame)
        self._reply_conn = connect_runtimes(tail_rt, self.client, reply_mb)
        self._reply_addr = self._pkg[self.tail].library.symbol("ck_reply")
        self._reply: dict[str, object] = {}
        self._reply_ev = self.engine.event("chainkv.reply")

        def tail_get_hook(waiter):
            def hook(view, slot_addr):
                sz = waiter.stats.last_exec_ret
                pkg = self._pkg[self.tail]
                yield from self._reply_conn.send_jam(
                    pkg, "jam_chain_get", self._reply_addr, sz,
                    args=(view.args[0], sz), inject=False, no_exec=True)
            return hook

        self._get_waiter = tail_rt.make_waiter(get_mb)
        self._get_waiter.on_frame = tail_get_hook(self._get_waiter)
        self._get_waiter.start()

        def reply_hook(view, slot_addr):
            node = self.client.node
            self._reply["size"] = view.args[1]
            self._reply["value"] = node.mem.read(
                slot_addr + view.payload_off, view.payload_size)
            self._reply_ev.fire()
            return None

        self._reply_waiter = self.client.make_waiter(reply_mb,
                                                     on_frame=reply_hook)
        self._reply_waiter.start()

        # -- multicast channels: client -> each replica, ack back ----------
        self._mc_conn: dict[int, Connection] = {}
        self._mc_waiters = []
        self._mc_acks = 0
        self._mc_ev = self.engine.event("chainkv.mc")
        for i in self.replicas:
            rt = world.runtimes[i]
            mc_mb = rt.create_mailbox(1, 1, mc_frame)
            conn = connect_runtimes(self.client, rt, mc_mb)
            self._mc_conn[i] = conn
            mcack_mb = self.client.create_mailbox(1, 1, ack_frame)
            back = connect_runtimes(rt, self.client, mcack_mb)

            def mc_hook(view, slot_addr, _back=back, _i=i):
                pkg = self._pkg[_i]
                yield from _back.send_jam(pkg, "jam_mc_touch", 0, 0,
                                          args=(_i,), inject=False,
                                          no_exec=True)

            w = rt.make_waiter(mc_mb, on_frame=mc_hook)
            w.start()
            self._mc_waiters.append(w)

            def mcack_hook(view, slot_addr):
                self._mc_acks += 1
                self._mc_ev.fire()
                return None

            wa = self.client.make_waiter(mcack_mb, on_frame=mcack_hook)
            wa.start()
            self._mc_waiters.append(wa)

        # value staging buffer in client memory
        self._val_addr = self.client.node.map_region(
            max(value_bytes, 64), PROT_RW, label="ck.value")

    # -- chain hooks --------------------------------------------------------

    def _replica_hook(self, node_id: int, waiter):
        """After a put applies on ``node_id``: forward down-chain, or ack
        back to the client when this node is the current tail."""
        def hook(view, slot_addr):
            conn = self._next[node_id]
            pkg = self._pkg[node_id]
            t0 = self.engine.now
            if conn is self._ack_conn:
                yield from conn.send_jam(
                    pkg, "jam_chain_put", 0, 0,
                    args=(view.args[0], waiter.stats.last_exec_ret),
                    inject=False, no_exec=True)
                if _M.enabled:
                    _M.observe(f"tc_chainkv_ack_ns|node={node_id}",
                               self.engine.now - t0)
            else:
                yield from conn.send_jam(
                    pkg, "jam_chain_put", slot_addr + view.payload_off,
                    view.payload_size, args=(view.args[0],), inject=True)
                if _M.enabled:
                    # Per-hop forward latency: apply done -> next-replica
                    # frame posted (fc stalls on the down-chain link
                    # included, which is what makes it diagnostic).
                    _M.observe(f"tc_chainkv_hop_ns|node={node_id}",
                               self.engine.now - t0)
                    _M.count(f"tc_chainkv_forwards_total|node={node_id}",
                             self.engine.now)
        return hook

    # -- client operations ---------------------------------------------------

    def _stage_value(self, value: bytes) -> int:
        if not value or len(value) > self.value_bytes:
            raise TwoChainsError(
                f"value must be 1..{self.value_bytes} bytes")
        self.client.node.mem.write(self._val_addr, value)
        return len(value)

    def send_put(self, key: int, value: bytes):
        """Process body: post one put into the chain (does not wait for
        the tail ack — streaming callers overlap puts with acks)."""
        nbytes = self._stage_value(value)
        pkg = self._pkg[0]
        yield from self.c2h.send_jam(pkg, "jam_chain_put", self._val_addr,
                                     nbytes, args=(key,), inject=True)

    def wait_acks(self, count: int):
        """Process body: park until ``count`` total acks have arrived."""
        while len(self.acks) < count:
            yield self._ack_ev

    def put(self, key: int, value: bytes) -> int:
        """Synchronous put: drive the DES until the tail ack arrives.
        Returns the tail-assigned value offset."""
        want = len(self.acks) + 1

        def proc():
            yield from self.send_put(key, value)
            yield from self.wait_acks(want)

        self.engine.run_process(proc(), name="chainkv.put")
        return self.acks[-1][1]

    def get(self, key: int) -> bytes | None:
        """Synchronous get at the tail: returns the value bytes, or None
        for a missing key."""
        def proc():
            pkg = self._pkg[0]
            yield from self._get_conn.send_jam(pkg, "jam_chain_get", 0, 0,
                                               args=(key,), inject=True)
            yield self._reply_ev

        self.engine.run_process(proc(), name="chainkv.get")
        size = self._reply["size"]
        if not size:
            return None
        return self._reply["value"][:size]

    def stream_puts(self, count: int, key_base: int = 1000) -> float:
        """Pipelined puts: post ``count`` back-to-back, wait for all tail
        acks.  Returns the elapsed simulated ns (tail-applied)."""
        value = bytes((3 * i + 5) & 0xFF for i in range(self.value_bytes))
        want = len(self.acks) + count
        marks = {}

        def proc():
            marks["t0"] = self.engine.now
            for j in range(count):
                yield from self.send_put(key_base + (j % 32), value)
            yield from self.wait_acks(want)
            marks["t1"] = self.engine.now

        self.engine.run_process(proc(), name="chainkv.stream")
        return marks["t1"] - marks["t0"]

    def multicast_install(self, element: str = "jam_mc_touch") -> float:
        """Install one jam on every live replica in a single sweep: post
        the injected frame to all replicas back-to-back, then wait for
        every ack.  Returns the elapsed simulated ns."""
        self._mc_acks = 0
        marks = {}

        def proc():
            marks["t0"] = self.engine.now
            pkg = self._pkg[0]
            for i in self.replicas:
                yield from self._mc_conn[i].send_jam(pkg, element, 0, 0,
                                                     args=(i,), inject=True)
            if _M.enabled:
                # Replication fan-out: replicas reached by one install.
                _M.count("tc_chainkv_mcast_installs_total", self.engine.now)
                _M.count("tc_chainkv_mcast_fanout_total", self.engine.now,
                         len(self.replicas))
            while self._mc_acks < len(self.replicas):
                yield self._mc_ev
            marks["t1"] = self.engine.now

        self.engine.run_process(proc(), name="chainkv.mcast")
        return marks["t1"] - marks["t0"]

    # -- reconfiguration ----------------------------------------------------

    def drop_replica(self, node_id: int) -> Connection:
        """Remove a middle replica and re-link the chain around it.

        The predecessor runs a fresh out-of-band exchange with the
        successor: a new mailbox on the successor, a new
        :class:`Connection` whose frames carry the successor's
        element-GOT address (the GOT patch — returned for inspection).
        The dropped replica's waiters stop; its store is abandoned.
        """
        if node_id in (self.head, self.tail):
            raise TwoChainsError(
                "only middle replicas can be dropped (head/tail handoff "
                "is a different reconfiguration)")
        if node_id not in self.replicas:
            raise TwoChainsError(f"node {node_id} is not a live replica")
        idx = self.replicas.index(node_id)
        pred, succ = self.replicas[idx - 1], self.replicas[idx + 1]

        # stop the dropped replica's put waiter and detach it
        hop = self._hops.pop(node_id)
        hop.waiter.stop()
        self.replicas.remove(node_id)
        del self._next[node_id]

        # fresh exchange pred -> succ: new mailbox, new connection, new
        # waiter (the successor's old mailbox kept its old sender's
        # sequence state, so reconfig always starts a clean channel).
        old = self._hops[succ]
        old.waiter.stop()
        succ_rt = self.world.runtimes[succ]
        mb = succ_rt.create_mailbox(old.mailbox.banks, old.mailbox.slots,
                                    old.mailbox.frame_size)
        conn = connect_runtimes(self.world.runtimes[pred], succ_rt, mb,
                                flow_control=True)
        waiter = succ_rt.make_waiter(mb, flag_target=conn.flag_target())
        waiter.on_frame = self._replica_hook(succ, waiter)
        waiter.start()
        self._hops[succ] = _Hop(mailbox=mb, waiter=waiter, conn=conn)
        if pred == 0:
            self.c2h = conn
        self._next[pred] = conn
        return conn

    # -- introspection / teardown -------------------------------------------

    def put_count(self, node_id: int) -> int:
        """Replica-side ck_puts counter (how many puts applied there)."""
        lib = self._pkg[node_id].library
        return self.world.node(node_id).mem.read_u64(lib.symbol("ck_puts"))

    def install_count(self, node_id: int) -> int:
        lib = self._pkg[node_id].library
        return self.world.node(node_id).mem.read_u64(
            lib.symbol("ck_installs"))

    def element_got_addr(self, node_id: int, element: str) -> int:
        return self._pkg[node_id].element(element).got_addr

    def shutdown(self) -> None:
        """Stop every waiter (leaves the world quiescent for snapshots)."""
        for hop in self._hops.values():
            hop.waiter.stop()
        self._ack_waiter.stop()
        self._get_waiter.stop()
        self._reply_waiter.stop()
        for w in self._mc_waiters:
            w.stop()


@dataclass
class ChainOutcome:
    """One chain benchmark point (consumed by bench.chainfigs)."""
    replicas: int
    put_ns: list[float] = field(default_factory=list)
    get_ns: list[float] = field(default_factory=list)
    stream_elapsed_ns: float = 0.0
    stream_count: int = 0
    mcast_ns: list[float] = field(default_factory=list)

    @property
    def put_rate_mps(self) -> float:
        return self.stream_count / (self.stream_elapsed_ns * 1e-9)


def chain_point(world: World, *, value_bytes: int = 64, warmup: int = 4,
                iters: int = 12, stream_count: int = 0,
                mcast_iters: int = 0) -> ChainOutcome:
    """Measure one chain world: put/get latency, streaming put rate, and
    multicast install sweeps.  Keys cycle over a small working set so the
    value heap stays bounded regardless of iteration count."""
    kv = ChainKV(world, value_bytes=value_bytes)
    engine = world.engine
    out = ChainOutcome(replicas=len(kv.replicas))
    value = bytes((5 * i + 1) & 0xFF for i in range(value_bytes))
    for i in range(warmup + iters):
        key = 7 + (i % 32)
        t0 = engine.now
        kv.put(key, value)
        t1 = engine.now
        kv.get(key)
        t2 = engine.now
        if i >= warmup:
            out.put_ns.append(t1 - t0)
            out.get_ns.append(t2 - t1)
    if stream_count:
        out.stream_elapsed_ns = kv.stream_puts(stream_count)
        out.stream_count = stream_count
    for i in range(mcast_iters):
        out.mcast_ns.append(kv.multicast_install())
    kv.shutdown()
    return out
