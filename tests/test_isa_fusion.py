"""Basic-block fusion JIT tests.

Fusion is a pure host-side optimization: grouping straight-line slots
into one closure must never change a measured value, a fault pc, or a
step count.  These tests pin that contract — full-registry row identity
against the unfused per-instruction executors, adversarial invalidation
(self-modifying stores, GOT-style patches, bulk rewrites, cross-line
deps), computed jumps into the middle of fused blocks, and exact
``max_steps`` accounting.  Hot loops are covered in test_isa_trace.py.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.figures import full_registry
from repro.core.stdworld import SETUP_CACHE
from repro.errors import VmFault
from repro.isa import Vm, assemble
from repro.isa import vm as vmmod
from repro.perf import COUNTERS
from tests.util import fresh_node, native_got, raw_load


@pytest.fixture(autouse=True)
def _fusion_restored():
    """Tests toggle the process-wide fusion flag; always restore it."""
    prev = vmmod.fusion_enabled()
    SETUP_CACHE.enabled = False
    SETUP_CACHE.clear()
    yield
    vmmod.set_fusion(prev)
    SETUP_CACHE.enabled = False
    SETUP_CACHE.clear()


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
    """(kind, payload) for a run — comparable across fusion modes."""
    try:
        res, *_ = run(source, args, max_steps=max_steps)
        return ("ok", res.ret, res.steps, res.elapsed_ns)
    except VmFault as e:
        return ("fault", str(e), e.pc)


def both_modes(source, args=(), max_steps=4_000_000):
    vmmod.set_fusion(True)
    fused = outcome(source, args, max_steps)
    vmmod.set_fusion(False)
    plain = outcome(source, args, max_steps)
    return fused, plain


# ---------------------------------------------------------------------------
# counters: fusion engages on straight-line code, and only when enabled
# ---------------------------------------------------------------------------

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


def test_fused_run_bumps_counters():
    vmmod.set_fusion(True)
    before = COUNTERS.snapshot()
    res, *_ = run(STRAIGHT)
    d = COUNTERS.delta(before)
    assert res.ret == 15
    assert d["fused_dispatches"] >= 1
    assert d["blocks_compiled"] >= 1


def test_no_fuse_never_dispatches_blocks():
    vmmod.set_fusion(False)
    before = COUNTERS.snapshot()
    res, *_ = run(STRAIGHT)
    d = COUNTERS.delta(before)
    assert res.ret == 15
    assert d["fused_dispatches"] == 0
    assert d["blocks_compiled"] == 0


def test_steps_and_elapsed_identical_across_modes():
    fused, plain = both_modes(STRAIGHT)
    assert fused == plain


# ---------------------------------------------------------------------------
# full-registry identity: every spec's smoke row is byte-identical
# with fusion on and off (the unfused executors are the reference)
# ---------------------------------------------------------------------------

def _row(spec, params):
    return json.dumps(spec.point(**params), sort_keys=True)


@pytest.mark.parametrize("name", sorted(full_registry()))
def test_rows_identical_with_and_without_fusion(name):
    spec = full_registry()[name]
    params = spec.points(True)[0]  # smoke point
    vmmod.set_fusion(True)
    fused = _row(spec, params)
    vmmod.set_fusion(False)
    plain = _row(spec, params)
    assert fused == plain


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
    # The store lands inside its own fused block: the block must bail at
    # the exact pc, the decode must be dropped, and the patched
    # instruction must execute with its new semantics.
    vmmod.set_fusion(True)
    before = COUNTERS.snapshot()
    res, *_ = run(SELF_MODIFY)
    d = COUNTERS.delta(before)
    assert res.ret == 99
    assert d["block_invalidations"] >= 1


def test_self_modifying_store_identical_across_modes():
    fused, plain = both_modes(SELF_MODIFY)
    assert fused == plain
    assert fused[1] == 99


def test_got_style_patch_drops_block_identical_repatch_keeps_it():
    vmmod.set_fusion(True)
    res, node, syms, vm = run(STRAIGHT)
    mem = node.mem
    line = syms["f"] >> 6
    assert line in mem.code_blocks and line in mem.code_lines
    # identical bytes (a GOT re-patch of the same target): decode stays
    mem.write_u64(syms["f"], mem.read_u64(syms["f"]))
    assert line in mem.code_blocks
    # changed bytes: block and line decode both die
    mem.write_u64(syms["f"], mem.read_u64(syms["f"]) ^ 0xFF)
    assert line not in mem.code_blocks
    assert line not in mem.code_lines


def test_bulk_rewrite_identical_payload_keeps_block():
    # Message redelivery rewrites mailbox code with identical bytes —
    # the selective _retire_changed path must keep the fused block.
    vmmod.set_fusion(True)
    res, node, syms, vm = run(STRAIGHT)
    mem = node.mem
    line = syms["f"] >> 6
    raw = mem.read(line << 6, 64)
    mem.write(line << 6, raw)
    assert line in mem.code_blocks
    changed = bytearray(raw)
    changed[0] ^= 0xFF
    mem.write(line << 6, bytes(changed))
    assert line not in mem.code_blocks
    assert line not in mem.code_lines


SPANNING = "f:\n" + "\n".join(
    f"    addi a0, a0, {i}" for i in range(1, 13)) + "\n    ret\n"


def test_dep_line_write_kills_spanning_block():
    # A block fused across a line boundary records the extension line in
    # block_deps; a write that changes the extension must kill the
    # anchor's block while keeping the anchor's per-slot decode.
    vmmod.set_fusion(True)
    res, node, syms, vm = run(SPANNING, args=(0,))
    assert res.ret == sum(range(1, 13))
    mem = node.mem
    line0 = syms["f"] >> 6
    line1 = line0 + 1
    assert line0 in mem.code_blocks
    assert line0 in mem.block_deps.get(line1, set())
    mem.write_u64(line1 << 6, mem.read_u64(line1 << 6) ^ 0xFF)
    assert line0 not in mem.code_blocks   # anchor block died with its dep
    assert line0 in mem.code_lines        # per-slot decode survives
    assert line1 not in mem.block_deps


def test_refused_after_invalidation_still_correct():
    vmmod.set_fusion(True)
    _, node, syms, vm = run(SPANNING, args=(0,))
    mem = node.mem
    # clobber then restore the extension line: forces a full re-fuse
    raw = mem.read_u64((syms["f"] >> 6 << 6) + 64)
    mem.write_u64((syms["f"] >> 6 << 6) + 64, raw ^ 0xFF)
    mem.write_u64((syms["f"] >> 6 << 6) + 64, raw)
    res = vm.call(syms["f"], (0,))
    assert res.ret == sum(range(1, 13))


# ---------------------------------------------------------------------------
# computed jumps into the middle of a fused block
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
    # Second pass enters at `mid`, an interior slot of the run fused
    # from `head`: suffix fusion must serve it a correct (shorter)
    # block, not replay from the head.
    fused, plain = both_modes(JUMP_MID)
    assert fused == plain
    assert fused[0] == "ok" and fused[1] == 1 + 10 + 10


def test_misaligned_computed_jump_identical_across_modes():
    # pc & 7 != 0 can only come from a computed jump; the VM decodes it
    # via the uncached misaligned path.  Whatever it does (execute the
    # overlapping bytes or fault), it must do it identically either way.
    src = JUMP_MID.replace("jr t2", "addi t2, t2, 4\n    jr t2")
    fused, plain = both_modes(src)
    assert fused == plain


# ---------------------------------------------------------------------------
# fault pc exactness inside fused blocks
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
    vmmod.set_fusion(True)
    om = assemble(DIV_FAULT)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="division by zero") as exc:
        vm.call(syms["f"])
    assert exc.value.pc == syms["f"] + 24  # the div, not the block head


def test_fault_identical_across_modes():
    fused, plain = both_modes(DIV_FAULT)
    assert fused == plain
    assert fused[0] == "fault"


# ---------------------------------------------------------------------------
# max_steps: bulk retirement must not overshoot the limit
# ---------------------------------------------------------------------------

TEN_PLUS_RET = "f:\n" + "\n".join(
    "    addi a0, a0, 1" for _ in range(10)) + "\n    ret\n"


def test_max_steps_exact_at_boundary():
    # 10 addi + ret = 11 steps.  Exactly 11 succeeds; the fused block
    # (all 10 addi) must not push steps past a limit of 10.
    vmmod.set_fusion(True)
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
    # A limit below the block length forces single-stepping; the fault
    # pc pins the exact instruction where the limit hit.
    vmmod.set_fusion(True)
    om = assemble(TEN_PLUS_RET)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="step limit") as exc:
        vm.call(syms["f"], (0,), max_steps=7)
    assert exc.value.pc == syms["f"] + 56


def test_max_steps_identical_across_modes():
    for limit in (7, 10, 11):
        fused, plain = both_modes(TEN_PLUS_RET, args=(0,), max_steps=limit)
        assert fused == plain, f"max_steps={limit}"
