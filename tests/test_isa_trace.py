"""Hot-loop tests for the VM.

A loop re-executes the same predecoded lines across its back-edge.
These tests run hand-written loop programs and check their results,
loop-exit fault pc exactness, self-modifying stores inside a running
loop, and exact ``max_steps`` accounting mid-loop.  They also check
that structured tracing (:data:`repro.obs.tracer.TRACER`) leaves every
registered spec's smoke row unchanged.

Some test names (``mid_trace``, ``kills_trace``, ``mispredict``) come
from the cross-branch trace tier these loops were first written for.
The predecoded interpreter is now the VM's only tier
(docs/ARCHITECTURE.md, "One VM tier").
"""

from __future__ import annotations

import json

import pytest

from repro.bench.figures import full_registry
from repro.core.stdworld import SETUP_CACHE
from repro.errors import VmFault
from repro.isa import Vm, assemble
from repro.obs.tracer import TRACER
from repro.perf import COUNTERS
from tests.util import fresh_node, raw_load


@pytest.fixture(autouse=True)
def _setup_cache_off():
    """Rows are computed on fresh worlds; leave the cache as found."""
    SETUP_CACHE.enabled = False
    SETUP_CACHE.clear()
    yield
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


# ---------------------------------------------------------------------------
# hot loops: both back-edge shapes
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


def test_both_back_edge_shapes_run_exactly():
    # 2 + 3*200 + 1 and 2 + 4*200 + 2 (the final bge exits) steps
    for src, steps in ((HOT_LOOP, 603), (HOT_LOOP_B, 804)):
        res, *_ = run(src, (0, 200))
        assert (res.ret, res.steps) == (600, steps)


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
    om = assemble(BAIL_FAULT)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    with pytest.raises(VmFault, match="division by zero") as exc:
        vm.call(syms["f"], (0, 100))
    assert exc.value.pc == syms["f"] + 40  # the div, not the branch


# ---------------------------------------------------------------------------
# self-modifying store inside a running loop
# ---------------------------------------------------------------------------

# Iteration 64 patches `slot` (addi +1 -> addi +100) from inside the
# hot loop, after its line has long been decoded: the store must drop
# the line's decode at the exact iteration, and the re-decoded line
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
    before = COUNTERS.snapshot()
    res, *_ = run(SELF_MOD_LOOP, (0, 100))
    d = COUNTERS.delta(before)
    assert res.ret == 64 + 36 * 100
    assert d["block_invalidations"] >= 1


def test_invalidated_trace_rebuilds_and_stays_correct():
    # The iteration-64 patch drops the decode of the line holding
    # `slot`; the loop re-decodes the *patched* code within the same call.
    before = COUNTERS.snapshot()
    res, node, syms, vm = run(SELF_MOD_LOOP, (0, 100))
    assert res.ret == 3664
    assert COUNTERS.delta(before)["block_invalidations"] >= 1
    # patched code now adds 100 every iteration, and the iteration-64
    # store rewrites identical bytes, which keeps the decode
    for _ in range(2):
        before = COUNTERS.snapshot()
        res2 = vm.call(syms["f"], (0, 100))
        assert res2.ret == 100 * 100
        assert COUNTERS.delta(before)["block_invalidations"] == 0


# ---------------------------------------------------------------------------
# max_steps: the limit faults at the exact instruction mid-loop
# ---------------------------------------------------------------------------

def test_max_steps_fault_pc_exact_mid_trace():
    # HOT_LOOP with a1=100 retires 2 + 3*100 + 1 = 303 steps.  Limits
    # landing mid-loop and one short of the end fault at the pc of the
    # next instruction; the full count returns.
    om = assemble(HOT_LOOP)
    _, node = fresh_node()
    vm = Vm(node)
    syms = raw_load(node, om)
    for limit, off in ((50, 16), (150, 24), (302, 40)):  # 40: the ret
        with pytest.raises(VmFault, match="step limit") as exc:
            vm.call(syms["f"], (0, 100), max_steps=limit)
        assert exc.value.pc == syms["f"] + off, f"max_steps={limit}"
    res = vm.call(syms["f"], (0, 100), max_steps=303)
    assert res.ret == 300 and res.steps == 303
