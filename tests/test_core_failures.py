"""Failure-injection tests: corrupted frames, bad code, protocol misuse."""

import pytest

from repro.core import connect_runtimes, unpack_header
from repro.core.stdworld import make_world
from repro.errors import MailboxError, VmFault
from repro.machine import PROT_RW


def setup_world():
    world = make_world()
    fsize = world.frame_size_for("jam_ss_sum", 32, True)
    mb = world.server.create_mailbox(1, 1, fsize)
    conn = connect_runtimes(world.client, world.server, mb)
    waiter = world.server.make_waiter(mb)
    pkg = world.client.packages[world.build.package_id]
    payload = world.bed.node0.map_region(64, PROT_RW)
    return world, mb, conn, waiter, pkg, payload


class TestCorruptedFrames:
    def test_bad_magic_raises_at_dispatch(self):
        world, mb, conn, waiter, pkg, payload = setup_world()
        waiter.start()

        def sender():
            req = yield from conn.send_jam(pkg, "jam_ss_sum", payload, 32)
            return req

        # Corrupt the magic after delivery but before dispatch can't be
        # interleaved deterministically from outside, so instead corrupt
        # the staged frame pre-send.
        world.bed.node0.mem.write_u8(conn._staging, 0)  # will be repacked
        proc = world.engine.spawn(sender())
        # sabotage: after the frame lands, flip magic then signal again
        slot = mb.slot_addr(0, 0)

        def saboteur():
            yield world.bed.node1.monitor_event(slot + mb.frame_size - 1)
            world.bed.node1.mem.write_u8(slot, 0xFF)

        world.engine.spawn(saboteur())
        with pytest.raises(MailboxError, match="magic"):
            world.engine.run()

    def test_unknown_package_id_rejected_by_waiter(self):
        world, mb, conn, waiter, pkg, payload = setup_world()
        waiter.start()

        def sender():
            yield from conn.send_jam(pkg, "jam_ss_sum", payload, 32)

        slot = mb.slot_addr(0, 0)

        def saboteur():
            yield world.bed.node1.monitor_event(slot + mb.frame_size - 1)
            # overwrite package id (header bytes 8..12)
            world.bed.node1.mem.write_u32(slot + 8, 0xDEAD)

        world.engine.spawn(saboteur())
        world.engine.spawn(sender())
        with pytest.raises(MailboxError, match="unknown package"):
            world.engine.run()

    def test_oversized_sections_rejected_by_waiter(self):
        """A header whose payload size runs past its slot must not hand
        the jam a range over the neighbouring frames."""
        world, mb, conn, waiter, pkg, payload = setup_world()
        waiter.start()

        def sender():
            yield from conn.send_jam(pkg, "jam_ss_sum", payload, 32)

        slot = mb.slot_addr(0, 0)

        def saboteur():
            yield world.bed.node1.monitor_event(slot + mb.frame_size - 1)
            # overwrite the payload size (header bytes 20..24)
            world.bed.node1.mem.write_u32(slot + 20, 1 << 20)

        world.engine.spawn(saboteur())
        world.engine.spawn(sender())
        with pytest.raises(MailboxError, match=f"only {mb.frame_size} fit"):
            world.engine.run()

    def test_corrupted_code_faults_the_vm(self):
        world, mb, conn, waiter, pkg, payload = setup_world()
        waiter.start()

        def sender():
            yield from conn.send_jam(pkg, "jam_ss_sum", payload, 32)

        slot = mb.slot_addr(0, 0)

        def saboteur():
            yield world.bed.node1.monitor_event(slot + mb.frame_size - 1)
            view = unpack_header(world.bed.node1.mem.data, slot,
                                 frame_size=mb.frame_size)
            # stomp the entry instruction with an illegal opcode
            world.bed.node1.mem.write(slot + view.code_off, b"\xee" * 8)

        world.engine.spawn(saboteur())
        world.engine.spawn(sender())
        with pytest.raises(VmFault, match="illegal opcode"):
            world.engine.run()


class TestProtocolMisuse:
    def test_stale_sequence_is_not_dispatched(self):
        """A frame with yesterday's sequence tag must not wake the slot."""
        world, mb, conn, waiter, pkg, payload = setup_world()
        waiter.start()

        def sender():
            yield from conn.send_jam(pkg, "jam_ss_sum", payload, 32)

        world.engine.spawn(sender())
        world.engine.run()
        assert waiter.stats.frames == 1
        # Replay the exact same frame bytes (same seq=1): the waiter now
        # expects seq=2, so nothing should execute.
        blob = world.bed.node1.mem.read(mb.slot_addr(0, 0), mb.frame_size)
        req = world.bed.qp01.post_put(world.engine.now, 0,
                                      mb.slot_addr(0, 0), mb.frame_size,
                                      mb.mr.rkey, payload=blob)
        world.engine.run(until=world.engine.now + 50_000)
        assert waiter.stats.frames == 1
        waiter.stop()

    def test_mailbox_geometry_validation(self):
        world = make_world()
        with pytest.raises(MailboxError):
            world.server.create_mailbox(0, 1, 64)
        with pytest.raises(MailboxError):
            world.server.create_mailbox(1, 1, 100)  # not 64-aligned
        mb = world.server.create_mailbox(2, 2, 128)
        with pytest.raises(MailboxError):
            mb.slot_addr(2, 0)

    def test_jam_runaway_loop_hits_step_limit(self):
        """An injected infinite loop is contained by the VM step limit,
        not by the simulation hanging."""
        from repro.core import JamSource, build_package
        from repro.core.stdworld import make_world as mw
        bad = build_package("runaway", [JamSource("jam_spin", """
            long jam_spin(long* p, long n, long a0, long a1) {
                long x = 1;
                while (x) { x = x + 1; if (x == 0) { x = 1; } }
                return x;
            }
        """)])
        world = mw(build=bad)
        mb = world.server.create_mailbox(1, 1, 1024)
        conn = connect_runtimes(world.client, world.server, mb)
        waiter = world.server.make_waiter(mb)
        waiter.start()
        payload = world.bed.node0.map_region(64, PROT_RW)
        pkg = world.client.packages[bad.package_id]

        def sender():
            yield from conn.send_jam(pkg, "jam_spin", payload, 8)

        world.engine.spawn(sender())
        with pytest.raises(VmFault, match="step limit"):
            world.engine.run()
