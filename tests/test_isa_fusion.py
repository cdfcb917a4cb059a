"""Straight-line VM programs: invalidation, computed jumps, exact faults.

The predecoded interpreter caches each executable 64-byte line's slot
executors in ``PhysicalMemory.code_lines``.  These tests pin that cache
against the bytes it was decoded from — self-modifying stores, GOT-style
patches, bulk rewrites, writes to the next line — and check that
computed jumps into a line's interior, fault pcs and ``max_steps``
accounting are exact.  Hot loops are covered in test_isa_trace.py.

Some test names (``block``, ``refuses``) come from the fused-block tier
these programs were first written for; the predecoded interpreter is
now the VM's only tier (docs/ARCHITECTURE.md, "One VM tier").
"""

from __future__ import annotations

import pytest

from repro.errors import VmFault
from repro.isa import Vm, assemble
from repro.perf import COUNTERS
from tests.util import fresh_node, native_got, raw_load


def run(source, args=(), node=None, entry="f", max_steps=4_000_000):
    if node is None:
        _, node = fresh_node()
    om = assemble(source)
    vm = Vm(node)
    got = native_got(vm.intrinsics, om.externs) if om.externs else None
    syms = raw_load(node, om, got)
    res = vm.call(syms[entry], args, max_steps=max_steps)
    return res, node, syms, vm


def outcome(source, args=(), max_steps=4_000_000):
    """(kind, payload) for a run on a fresh node — comparable across runs."""
    try:
        res, *_ = run(source, args, max_steps=max_steps)
        return ("ok", res.ret, res.steps, res.elapsed_ns)
    except VmFault as e:
        return ("fault", str(e), e.pc)


def encoded(instr):
    """The 8 instruction bytes of one assembled instruction."""
    return assemble(f"f:\n    {instr}\n").text[:8]


STRAIGHT = """
f:
    movi a0, 0
    addi a0, a0, 1
    addi a0, a0, 2
    addi a0, a0, 3
    addi a0, a0, 4
    addi a0, a0, 5
    ret
"""


# ---------------------------------------------------------------------------
# invalidation adversaries
# ---------------------------------------------------------------------------

SELF_MODIFY = """
f:
    adr t0, donor
    adr t1, patch
    ld t2, 0(t0)
    st t2, 0(t1)
patch:
    movi a0, 1
    ret
donor:
    movi a0, 99
    ret
"""


def test_self_modifying_store_bails_and_refuses():
    # The store lands in the line it is executing from: the line's
    # decode must be dropped, and the patched instruction must execute
    # with its new semantics on the very next step.
    before = COUNTERS.snapshot()
    res, *_ = run(SELF_MODIFY)
    d = COUNTERS.delta(before)
    assert res.ret == 99
    assert d["block_invalidations"] >= 1


def test_got_style_patch_drops_block_identical_repatch_keeps_it():
    res, node, syms, vm = run(STRAIGHT)
    assert res.ret == 15
    mem = node.mem
    f = syms["f"]
    line = f >> 6
    decode = mem.code_lines[line]
    # identical bytes (a GOT re-patch of the same target): decode stays
    mem.write_u64(f, mem.read_u64(f))
    assert mem.code_lines.get(line) is decode
    # changed bytes: the line's decode dies, and the new bytes run
    mem.write_u64(f, int.from_bytes(encoded("movi a0, 100"), "little"))
    assert line not in mem.code_lines
    assert vm.call(f).ret == 100 + 15


def test_bulk_rewrite_identical_payload_keeps_block():
    # Message redelivery rewrites mailbox code with identical bytes —
    # the selective _retire_changed path must keep the decode.
    res, node, syms, vm = run(STRAIGHT)
    mem = node.mem
    line = syms["f"] >> 6
    decode = mem.code_lines[line]
    raw = mem.read(line << 6, 64)
    mem.write(line << 6, raw)
    assert mem.code_lines.get(line) is decode
    changed = bytearray(raw)
    changed[0] ^= 0xFF
    mem.write(line << 6, bytes(changed))
    assert line not in mem.code_lines


SPANNING = "f:\n" + "\n".join(
    f"    addi a0, a0, {i}" for i in range(1, 13)) + "\n    ret\n"


def test_next_line_write_drops_only_that_line():
    # SPANNING runs across two lines; a write changing the second line
    # drops its decode and keeps the first line's.
    res, node, syms, vm = run(SPANNING, args=(0,))
    assert res.ret == sum(range(1, 13)) == 78
    mem = node.mem
    line0 = syms["f"] >> 6
    line1 = line0 + 1
    decode0 = mem.code_lines[line0]
    assert line1 in mem.code_lines
    mem.write_u64(line1 << 6, mem.read_u64(line1 << 6) ^ 0xFF)
    assert line1 not in mem.code_lines
    assert mem.code_lines.get(line0) is decode0


def test_refused_after_invalidation_still_correct():
    _, node, syms, vm = run(SPANNING, args=(0,))
    mem = node.mem
    # clobber then restore the second line: forces a full re-decode
    raw = mem.read_u64((syms["f"] >> 6 << 6) + 64)
    mem.write_u64((syms["f"] >> 6 << 6) + 64, raw ^ 0xFF)
    mem.write_u64((syms["f"] >> 6 << 6) + 64, raw)
    res = vm.call(syms["f"], (0,))
    assert res.ret == sum(range(1, 13))


# ---------------------------------------------------------------------------
# computed jumps into the interior of a line
# ---------------------------------------------------------------------------

JUMP_MID = """
f:
    adr t2, mid
    mov t0, zr
    mov a0, zr
head:
    addi a0, a0, 1
mid:
    addi a0, a0, 10
    addi t0, t0, 1
    movi t1, 2
    blt t0, t1, indirect
    ret
indirect:
    jr t2
"""


def test_computed_jump_into_block_interior():
    # Second pass enters at `mid`, an interior slot of the straight run
    # from `head`: execution must resume there, not replay from `head`.
    assert outcome(JUMP_MID)[:2] == ("ok", 1 + 10 + 10)


def test_misaligned_computed_jump_same_on_every_run():
    # pc & 7 != 0 can only come from a computed jump; the VM decodes it
    # via the uncached misaligned path.  Whatever it does (execute the
    # overlapping bytes or fault), it must do it identically every run.
    src = JUMP_MID.replace("jr t2", "addi t2, t2, 4\n    jr t2")
    assert outcome(src) == outcome(src)


# ---------------------------------------------------------------------------
# fault pc exactness inside a straight run
# ---------------------------------------------------------------------------

DIV_FAULT = """
f:
    movi a0, 6
    addi a0, a0, 1
    mov t0, zr
    div a0, a0, t0
    ret
"""


def test_fault_pc_is_exact_inside_fused_block():
    om = assemble(DIV_FAULT)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="division by zero") as exc:
        vm.call(syms["f"])
    assert exc.value.pc == syms["f"] + 24  # the div, not the line head


# ---------------------------------------------------------------------------
# max_steps: the limit faults at the exact instruction count
# ---------------------------------------------------------------------------

TEN_PLUS_RET = "f:\n" + "\n".join(
    "    addi a0, a0, 1" for _ in range(10)) + "\n    ret\n"


def test_max_steps_exact_at_boundary():
    # 10 addi + ret = 11 steps.  Exactly 11 succeeds; a limit of 10
    # faults at the ret.
    res, *_ = run(TEN_PLUS_RET, args=(0,), max_steps=11)
    assert res.ret == 10 and res.steps == 11

    om = assemble(TEN_PLUS_RET)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="step limit") as exc:
        vm.call(syms["f"], (0,), max_steps=10)
    assert exc.value.pc == syms["f"] + 80  # faults at the ret, step 11


def test_max_steps_mid_block_falls_back_to_stepping():
    # A limit inside the straight run: the fault pc pins the exact
    # instruction where the limit hit.
    om = assemble(TEN_PLUS_RET)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="step limit") as exc:
        vm.call(syms["f"], (0,), max_steps=7)
    assert exc.value.pc == syms["f"] + 56
