"""Hot-loop tests for the VM's fused-block tier.

A loop re-enters the same fused blocks across its back-edge.  Like all
fusion, that must never change a measured value, a fault pc, or a step
count.  These tests run hand-written loop programs fused and through
the per-instruction executors (the unfused reference): loop-exit fault
pc exactness, self-modifying stores inside a running loop, and exact
``max_steps`` accounting mid-loop.  They also check that structured
tracing (:data:`repro.obs.tracer.TRACER`) leaves every registered
spec's smoke row unchanged.

Some test names (``mid_trace``, ``kills_trace``, ``mispredict``) come
from the cross-branch trace tier these loops were first written for.
Fused blocks are now the only compiled tier (docs/ARCHITECTURE.md,
"One JIT tier").
"""

from __future__ import annotations

import json

import pytest

from repro.bench.figures import full_registry
from repro.core.stdworld import SETUP_CACHE
from repro.errors import VmFault
from repro.isa import Vm, assemble
from repro.isa import vm as vmmod
from repro.obs.tracer import TRACER
from repro.perf import COUNTERS
from tests.util import fresh_node, raw_load


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
    syms = raw_load(node, om)
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
# hot loops: both back-edge shapes retire identically fused and unfused
# ---------------------------------------------------------------------------

# Conditional back-edge: `blt ... head` is both the loop's bottom test
# and its backward branch (the hand-written-assembly loop shape).
HOT_LOOP = """
f:
    mov t0, zr
    mov a0, zr
head:
    addi a0, a0, 3
    addi t0, t0, 1
    blt t0, a1, head
    ret
"""

# Unconditional back-edge: top-tested head with a forward conditional
# exit and an unconditional `b head` — the shape the AMC compiler emits
# for every for/while loop (e.g. jam_ss_sum_naive).
HOT_LOOP_B = """
f:
    mov t0, zr
    mov a0, zr
head:
    bge t0, a1, exit
    addi a0, a0, 3
    addi t0, t0, 1
    b head
exit:
    ret
"""


def test_steps_and_elapsed_identical_across_modes():
    for src in (HOT_LOOP, HOT_LOOP_B):
        fused, plain = both_modes(src, (0, 200))
        assert fused == plain
        assert fused[0] == "ok" and fused[1] == 600


# ---------------------------------------------------------------------------
# full-registry identity: every spec's smoke row is byte-identical
# with structured tracing on and off
# ---------------------------------------------------------------------------

def _row(spec, params):
    return json.dumps(spec.point(**params), sort_keys=True)


@pytest.mark.parametrize("name", sorted(full_registry()))
def test_rows_identical_with_and_without_traces(name):
    spec = full_registry()[name]
    params = spec.points(True)[0]  # smoke point
    vmmod.set_fusion(True)
    try:
        with TRACER.capture():
            traced = _row(spec, params)
        events = len(TRACER)
    finally:
        TRACER.clear()
    plain = _row(spec, params)
    assert events > 0  # the traced run did record
    assert traced == plain


# ---------------------------------------------------------------------------
# loop exit: the final, not-taken back-edge hands back at the exact pc
# ---------------------------------------------------------------------------

BAIL_FAULT = """
f:
    mov t0, zr
    mov a0, zr
head:
    addi a0, a0, 1
    addi t0, t0, 1
    blt t0, a1, head
    div a0, a0, zr
    ret
"""


def test_mispredict_bail_pc_is_exact():
    # The back-edge is taken 99 times; the final iteration falls
    # through to exactly the next pc — the div, whose fault pc pins it.
    vmmod.set_fusion(True)
    om = assemble(BAIL_FAULT)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    before = COUNTERS.snapshot()
    with pytest.raises(VmFault, match="division by zero") as exc:
        vm.call(syms["f"], (0, 100))
    assert exc.value.pc == syms["f"] + 40  # the div, not the branch
    assert COUNTERS.delta(before)["fused_dispatches"] >= 1


def test_mispredict_fault_identical_across_modes():
    fused, plain = both_modes(BAIL_FAULT, (0, 100))
    assert fused == plain
    assert fused[0] == "fault"


# ---------------------------------------------------------------------------
# self-modifying store inside a running loop
# ---------------------------------------------------------------------------

# Iteration 64 patches `slot` (addi +1 -> addi +100) from inside the
# hot loop, after its blocks have long been fused: the store must drop
# the block over `slot` at the exact iteration, and the re-fused code
# must run the new semantics.  a0 = 64*1 + 36*100 = 3664 for a1=100.
SELF_MOD_LOOP = """
f:
    adr a2, slot
    adr a3, donor
    ld a4, 0(a3)
    mov t0, zr
    mov a0, zr
head:
    addi t0, t0, 1
slot:
    addi a0, a0, 1
    movi t1, 64
    bne t0, t1, skip
    st a4, 0(a2)
skip:
    blt t0, a1, head
    ret
donor:
    addi a0, a0, 100
"""


def test_self_modifying_store_kills_trace_and_refuses():
    vmmod.set_fusion(True)
    before = COUNTERS.snapshot()
    res, *_ = run(SELF_MOD_LOOP, (0, 100))
    d = COUNTERS.delta(before)
    assert res.ret == 64 + 36 * 100
    assert d["block_invalidations"] >= 1


def test_self_modifying_store_identical_across_modes():
    fused, plain = both_modes(SELF_MOD_LOOP, (0, 100))
    assert fused == plain
    assert fused[1] == 64 + 36 * 100


def test_invalidated_trace_rebuilds_and_stays_correct():
    # The iteration-64 patch drops the block over `slot`; the loop
    # re-fuses the *patched* code within the same call.
    vmmod.set_fusion(True)
    before = COUNTERS.snapshot()
    res, node, syms, vm = run(SELF_MOD_LOOP, (0, 100))
    assert res.ret == 3664
    d = COUNTERS.delta(before)
    assert d["block_invalidations"] >= 1
    assert d["blocks_compiled"] >= 2  # original + rebuild over the patch
    # patched code now adds 100 every iteration (the iteration-64 store
    # rewrites identical bytes, which keeps the decode and its blocks).
    # Call 2 may fuse the one block call 1 ran only before the patch
    # dropped its decode; from call 3 on nothing compiles.
    for most_compiled in (1, 0):
        before = COUNTERS.snapshot()
        res2 = vm.call(syms["f"], (0, 100))
        assert res2.ret == 100 * 100
        d = COUNTERS.delta(before)
        assert d["fused_dispatches"] >= 1  # the rebuilt blocks serve it
        assert d["block_invalidations"] == 0
        assert d["blocks_compiled"] <= most_compiled


# ---------------------------------------------------------------------------
# max_steps: looping through fused blocks must not overshoot the limit
# ---------------------------------------------------------------------------

def test_max_steps_mid_trace_identical_to_interpreter():
    # HOT_LOOP with a1=100 retires 2 + 3*100 + 1 = 303 steps.  Limits
    # landing mid-loop, at the boundary, and one short of it must fault
    # (or not) with identical pcs and counts in both modes.
    for limit in (50, 150, 302, 303):
        fused, plain = both_modes(HOT_LOOP, (0, 100), max_steps=limit)
        assert fused == plain, f"max_steps={limit}"
    ok = outcome(HOT_LOOP, (0, 100), max_steps=303)
    assert ok[0] == "ok" and ok[2] == 303


def test_max_steps_fault_pc_exact_mid_trace():
    vmmod.set_fusion(True)
    om = assemble(HOT_LOOP)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="step limit") as exc:
        vm.call(syms["f"], (0, 100), max_steps=302)
    assert exc.value.pc == syms["f"] + 40  # the final ret, step 303
