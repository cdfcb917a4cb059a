"""CHAIN instruction-set interpreter.

Executes machine code resident in a node's physical memory, charging every
instruction fetch and data access to the node's cache hierarchy.  This is
what makes "the function binary travelled in the message" observable: the
receiver's VM fetches the *mailbox bytes* as instructions, so whether those
bytes were stashed into the LLC or drained to DRAM changes execution time.

The VM is synchronous with respect to the DES: ``call`` runs to completion
and returns the simulated time the execution took; the caller advances the
event clock.  ``WFE`` therefore faults here — event waits belong to the
runtime layer, which models them against the engine.

Cost model: the testbed CPU is a 2.6 GHz out-of-order superscalar; we charge
a flat ~0.5 cycles/instruction (IPC 2) which covers L1-hit loads, plus the
hierarchy latency beyond L1 for memory operations, plus intrinsic costs.

Interpreter engine
------------------

The hot loop runs *predecoded* code.  Each executable 64-byte line is
decoded once into 8 slot executors — closures specialized by an
opcode-indexed dispatch table (:data:`_COMPILERS`, one compiler per
opcode byte) with the operand fields, next-pc, branch targets, and
PC-relative GOT addresses bound in at decode time.  They live in
``PhysicalMemory.code_lines``, shared by every VM on the node.  The
memory layer drops overlapping entries on any write that *changes*
bytes (local stores, GOT rewrites, DMA into mailbox pages — identical
rewrites keep the decode), so self-modifying code re-decodes exactly
like a real I-side refetch; the timing model is unchanged either way
because instruction-fetch latency is charged per line transition, not
per decode.  Per instruction the loop does a step-limit check, a line
transition check, one dict lookup, and one call — no struct unpacking
and no 40-arm opcode ladder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import VmFault
from ..machine.node import Node
from ..machine.pages import PAGE_SIZE as _PAGE_SIZE, PROT_R as _PROT_R, \
    PROT_W as _PROT_W, PROT_X as _PROT_X
from ..obs.metrics import METRICS as _M
from ..obs.tracer import TRACER as _T, node_pid
from ..perf import COUNTERS as _C
from .encoding import decode_fields
from .opcodes import Op
from .registers import LR, NREGS, SP, ZR

_PAGE_SHIFT = _PAGE_SIZE.bit_length() - 1

MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
SIGN64 = 1 << 63

# Addresses at and above this are native intrinsic entry points, not memory.
NATIVE_BASE = 0x7000_0000
NATIVE_STRIDE = 16
# `call()` plants this as the return address of the outermost frame.
RETURN_SENTINEL = 0x7FFF_FF00

# Flat per-instruction cost: 0.5 cycles at 2.6 GHz.
CPI_NS = 0.5 / 2.6

DEFAULT_STACK_BYTES = 64 * 1024

# One 64-byte code line = 8 instruction words, unpacked in a single call
# (field layout matches encoding._WORD).
_LINE_WORDS = struct.Struct("<" + "BBBBi" * 8)


def _sx(value: int) -> int:
    """Unsigned 64-bit -> signed."""
    return value - (1 << 64) if value & SIGN64 else value


def _ux(value: int) -> int:
    return value & MASK64


@dataclass
class CallResult:
    ret: int          # a0 on return (signed)
    elapsed_ns: float  # simulated execution time
    steps: int        # instructions retired (intrinsics count as one)


# ---------------------------------------------------------------------------
# Opcode-indexed dispatch table of per-instruction compilers.
#
# ``_COMPILERS[opcode_byte]`` maps a decoded instruction to a slot
# executor ``fn(vm, regs, ebox, now) -> next_pc``: ``regs`` is the
# per-call register file, ``ebox`` a one-element list holding the
# accumulated elapsed-ns (handlers add any latency beyond the flat CPI
# charge), ``now`` the call's DES start time.  Executors are compiled
# per (node, line) and shared by every VM on the node, so node-level
# objects (mem/hier/pages) are bound at compile time while per-VM state
# (core, page checking, intrinsics) is read off the ``vm`` argument.
# Unknown opcode bytes compile to a raiser — lines are decoded whole, so
# data slots sharing a line with code must not fault until executed.
# ---------------------------------------------------------------------------

def _c_illegal(cc, op, rd, rs1, rs2, imm, pc):
    def f(vm, regs, ebox, now):
        raise VmFault(f"illegal opcode {op:#x}", pc=pc)
    return f


def _c_nop(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    return lambda vm, regs, ebox, now: nxt


def _c_halt(cc, op, rd, rs1, rs2, imm, pc):
    return lambda vm, regs, ebox, now: RETURN_SENTINEL


def _c_wfe(cc, op, rd, rs1, rs2, imm, pc):
    def f(vm, regs, ebox, now):
        raise VmFault(
            "WFE executed in synchronous VM context (runtime-only op)",
            pc=pc)
    return f


def _c_sev(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    node = cc.node

    def f(vm, regs, ebox, now):
        node.notify_write(regs[rs1], 8)
        return nxt
    return f


def _c_movi(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt
    val = imm & MASK64

    def f(vm, regs, ebox, now):
        regs[rd] = val
        return nxt
    return f


def _c_movhi(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt
    hi = (imm & 0xFFFFFFFF) << 32

    def f(vm, regs, ebox, now):
        regs[rd] = (regs[rd] & 0xFFFFFFFF) | hi
        return nxt
    return f


def _c_mov(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = regs[rs1]
        return nxt
    return f


def _c_adr(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt
    val = (pc + imm) & MASK64

    def f(vm, regs, ebox, now):
        regs[rd] = val
        return nxt
    return f


# -- register arithmetic ----------------------------------------------------

def _rr(value_fn):
    """Compiler for a pure two-register ALU op; ``value_fn(a, b)`` must
    return the masked 64-bit result."""
    def compiler(cc, op, rd, rs1, rs2, imm, pc):
        nxt = pc + 8
        if rd == ZR:  # pure op: no side effects to preserve
            return lambda vm, regs, ebox, now: nxt

        def f(vm, regs, ebox, now):
            regs[rd] = value_fn(regs[rs1], regs[rs2])
            return nxt
        return f
    return compiler


def _c_div(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8

    def f(vm, regs, ebox, now):
        sa, sb = _sx(regs[rs1]), _sx(regs[rs2])
        if sb == 0:
            raise VmFault("division by zero", pc=pc)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        if rd != ZR:
            regs[rd] = q & MASK64
        return nxt
    return f


def _c_rem(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8

    def f(vm, regs, ebox, now):
        sa, sb = _sx(regs[rs1]), _sx(regs[rs2])
        if sb == 0:
            raise VmFault("division by zero", pc=pc)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        if rd != ZR:
            regs[rd] = (sa - q * sb) & MASK64
        return nxt
    return f


# -- immediate arithmetic ---------------------------------------------------

def _ri(value_fn):
    """Compiler for a pure register+immediate ALU op; ``value_fn`` is
    called at compile time with ``imm`` and returns ``a -> result``."""
    def compiler(cc, op, rd, rs1, rs2, imm, pc):
        nxt = pc + 8
        if rd == ZR:
            return lambda vm, regs, ebox, now: nxt
        apply_fn = value_fn(imm)

        def f(vm, regs, ebox, now):
            regs[rd] = apply_fn(regs[rs1])
            return nxt
        return f
    return compiler


def _c_addi(cc, op, rd, rs1, rs2, imm, pc):
    # ADDI is the single hottest opcode (pointer/stack math): open-code
    # it rather than paying the generic _ri double call.
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = (regs[rs1] + imm) & MASK64
        return nxt
    return f


# The remaining loop-body staples get the same treatment as ADDI: one
# closure, operation inline, no per-execution value_fn call.

def _c_add(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = (regs[rs1] + regs[rs2]) & MASK64
        return nxt
    return f


def _c_sub(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = (regs[rs1] - regs[rs2]) & MASK64
        return nxt
    return f


def _c_and(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = regs[rs1] & regs[rs2]
        return nxt
    return f


def _c_or(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = regs[rs1] | regs[rs2]
        return nxt
    return f


def _c_xor(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        regs[rd] = regs[rs1] ^ regs[rs2]
        return nxt
    return f


def _c_shli(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt
    s = imm & 63

    def f(vm, regs, ebox, now):
        regs[rd] = (regs[rs1] << s) & MASK64
        return nxt
    return f


def _c_shri(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt
    s = imm & 63

    def f(vm, regs, ebox, now):
        regs[rd] = regs[rs1] >> s
        return nxt
    return f


def _c_andi(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt
    u = imm & MASK64

    def f(vm, regs, ebox, now):
        regs[rd] = regs[rs1] & u
        return nxt
    return f


def _c_slti(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    if rd == ZR:
        return lambda vm, regs, ebox, now: nxt

    def f(vm, regs, ebox, now):
        a = regs[rs1]
        if a & SIGN64:
            a -= _TWO64
        regs[rd] = 1 if a < imm else 0
        return nxt
    return f


# -- loads ------------------------------------------------------------------

def _load(size, read_fn):
    """Compiler factory for the load family.  ``read_fn(mem, addr)``
    returns the (masked) register value.

    The body open-codes the two dominant fast paths — a one-page
    permission probe and a one-line L1D hit — with bit-identical
    bookkeeping to ``PageTable.check_read`` / ``MemoryHierarchy.access``
    (probe counter, hit count, LRU tick); anything unusual (page
    straddle, denial, L1 miss, line straddle) falls back to the full
    calls.  An L1D hit costs exactly ``l1_lat``, which the VM's CPI
    already covers, so the hit path charges no time — same as before.
    """
    def compiler(cc, op, rd, rs1, rs2, imm, pc):
        nxt = pc + 8
        mem, hier, pages, l1_lat = cc.mem, cc.hier, cc.pages, cc.l1_lat
        prot, mem_size = pages.prot, pages.mem_size
        l1d = hier.l1d
        need = _PROT_R
        size1 = size - 1
        # Unchecked variant of read_fn: the in-bounds test it would do is
        # folded into the fast-path guard below (``end <= mem_size``), so
        # the accessor itself can skip it.  Same value, same faults.
        fast_fn = _FAST_READS.get(read_fn, read_fn)

        def f(vm, regs, ebox, now):
            addr = (regs[rs1] + imm) & MASK64
            end = addr + size
            if vm.check_pages:
                page = addr >> _PAGE_SHIFT
                if (end > mem_size or (end - 1) >> _PAGE_SHIFT != page
                        or prot[page] & need != need):
                    pages.check_read(addr, size)
            line = addr >> 6
            l1 = l1d[vm.core]
            way = l1._map.get(line)
            if way is not None and (addr + size1) >> 6 == line:
                _C.cache_probes += 1
                l1.hits += 1
                l1._tick += 1
                l1.lru[line & l1._set_mask][way] = l1._tick
            else:
                lat = hier.access(now + ebox[0], vm.core, addr, size, "read")
                if lat > l1_lat:
                    ebox[0] += lat - l1_lat
            if end <= mem_size:  # addr is already masked non-negative
                value = fast_fn(mem, addr)
            else:
                value = read_fn(mem, addr)  # out of range: checked path faults
            if rd != ZR:
                regs[rd] = value
            return nxt
        return f
    return compiler


def _read_ld(mem, addr):
    return mem.read_u64(addr)


def _read_lw(mem, addr):
    value = mem.read_u32(addr)
    return (value - (1 << 32)) & MASK64 if value >= (1 << 31) else value


def _read_lwu(mem, addr):
    return mem.read_u32(addr)


def _read_lh(mem, addr):
    value = int.from_bytes(mem.read(addr, 2), "little")
    return (value - (1 << 16)) & MASK64 if value >= (1 << 15) else value


def _read_lhu(mem, addr):
    return int.from_bytes(mem.read(addr, 2), "little")


def _read_lb(mem, addr):
    value = mem.read_u8(addr)
    return (value - (1 << 8)) & MASK64 if value >= (1 << 7) else value


def _read_lbu(mem, addr):
    return mem.read_u8(addr)


# Unchecked scalar readers for the compiled fast path: the caller proves
# ``addr + size <= mem.size`` before dispatching here, so the bounds
# check inside PhysicalMemory.read_* is pure overhead.  Values (and sign
# extension) are identical to the checked counterparts.
def _fast_ld(mem, addr):
    return int.from_bytes(mem._mv[addr:addr + 8], "little")


def _fast_lw(mem, addr):
    value = int.from_bytes(mem._mv[addr:addr + 4], "little")
    return (value - (1 << 32)) & MASK64 if value >= (1 << 31) else value


def _fast_lwu(mem, addr):
    return int.from_bytes(mem._mv[addr:addr + 4], "little")


def _fast_lb(mem, addr):
    value = mem._mv[addr]
    return (value - (1 << 8)) & MASK64 if value >= (1 << 7) else value


def _fast_lbu(mem, addr):
    return mem._mv[addr]


_FAST_READS = {
    _read_ld: _fast_ld,
    _read_lw: _fast_lw,
    _read_lwu: _fast_lwu,
    _read_lb: _fast_lb,
    _read_lbu: _fast_lbu,
}


# -- stores -----------------------------------------------------------------

def _store(size, write_fn):
    """Compiler factory for the store family. ``write_fn(mem, addr, v)``.

    Open-codes the same fast paths as ``_load`` (one-page permission
    probe, one-line L1D hit — which additionally sets the dirty bit,
    as ``access`` does for writes); unusual cases take the full calls.
    """
    def compiler(cc, op, rd, rs1, rs2, imm, pc):
        nxt = pc + 8
        mem, hier, pages, l1_lat = cc.mem, cc.hier, cc.pages, cc.l1_lat
        node = cc.node
        prot, mem_size = pages.prot, pages.mem_size
        l1d = hier.l1d
        need = _PROT_W
        size1 = size - 1
        # Unchecked variant (bounds folded into the fast-path guard, as in
        # the load family above).
        fast_fn = _FAST_WRITES.get(write_fn, write_fn)

        def f(vm, regs, ebox, now):
            addr = (regs[rs1] + imm) & MASK64
            end = addr + size
            if vm.check_pages:
                page = addr >> _PAGE_SHIFT
                if (end > mem_size or (end - 1) >> _PAGE_SHIFT != page
                        or prot[page] & need != need):
                    pages.check_write(addr, size)
            line = addr >> 6
            l1 = l1d[vm.core]
            way = l1._map.get(line)
            one_line = (addr + size1) >> 6 == line
            if way is not None and one_line:
                _C.cache_probes += 1
                l1.hits += 1
                l1._tick += 1
                sidx = line & l1._set_mask
                l1.lru[sidx][way] = l1._tick
                l1.dirty[sidx][way] = True
            else:
                lat = hier.access(now + ebox[0], vm.core, addr, size, "write")
                if lat > l1_lat:
                    ebox[0] += lat - l1_lat
            if end <= mem_size:  # addr is already masked non-negative
                fast_fn(mem, addr, regs[rd])
            else:
                write_fn(mem, addr, regs[rd])  # checked path faults
            w = node._watch
            if w:
                if one_line:  # scalar store hitting one monitor line
                    ev = w.get(line)
                    if ev is not None:
                        ev.fire()
                else:
                    node.notify_write(addr, size)
            return nxt
        return f
    return compiler


def _write_st(mem, addr, value):
    mem.write_u64(addr, value)


def _write_sw(mem, addr, value):
    mem.write_u32(addr, value)


def _write_sh(mem, addr, value):
    mem.write(addr, (value & 0xFFFF).to_bytes(2, "little"))


def _write_sb(mem, addr, value):
    mem.write_u8(addr, value)


# Unchecked scalar writers (see _FAST_READS): bounds proven by the
# caller; the predecoded-code invalidation contract is preserved, with
# the same identical-bytes skip as the checked writers — a store that
# does not change memory cannot stale any decode.
def _fast_st(mem, addr, value):
    b = (value & MASK64).to_bytes(8, "little")
    mv = mem._mv
    if mem.code_lines:
        if mv[addr:addr + 8] == b:
            return
        mv[addr:addr + 8] = b
        mem._retire_code(addr, 8)
    else:
        mv[addr:addr + 8] = b


def _fast_sw(mem, addr, value):
    b = (value & 0xFFFFFFFF).to_bytes(4, "little")
    mv = mem._mv
    if mem.code_lines:
        if mv[addr:addr + 4] == b:
            return
        mv[addr:addr + 4] = b
        mem._retire_code(addr, 4)
    else:
        mv[addr:addr + 4] = b


def _fast_sb(mem, addr, value):
    v = value & 0xFF
    mv = mem._mv
    if mem.code_lines:
        if mv[addr] == v:
            return
        mv[addr] = v
        mem._retire_code(addr, 1)
    else:
        mv[addr] = v


_FAST_WRITES = {
    _write_st: _fast_st,
    _write_sw: _fast_sw,
    _write_sb: _fast_sb,
}


# -- control flow -----------------------------------------------------------

def _c_b(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    return lambda vm, regs, ebox, now: tgt


def _branch(taken_fn):
    """Compiler for conditional branches; ``taken_fn(a, b)`` decides."""
    def compiler(cc, op, rd, rs1, rs2, imm, pc):
        tgt = pc + imm
        nxt = pc + 8

        def f(vm, regs, ebox, now):
            return tgt if taken_fn(regs[rs1], regs[rs2]) else nxt
        return f
    return compiler


# Branches sit in every loop back-edge, so the six compare ops are
# open-coded instead of paying _branch's per-execution taken_fn call
# (sign extension inlined too — same comparison _sx would produce).

def _c_beq(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8
    return lambda vm, regs, ebox, now: tgt if regs[rs1] == regs[rs2] else nxt


def _c_bne(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8
    return lambda vm, regs, ebox, now: tgt if regs[rs1] != regs[rs2] else nxt


def _c_blt(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8

    def f(vm, regs, ebox, now):
        a = regs[rs1]
        b = regs[rs2]
        if a & SIGN64:
            a -= _TWO64
        if b & SIGN64:
            b -= _TWO64
        return tgt if a < b else nxt
    return f


def _c_bge(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8

    def f(vm, regs, ebox, now):
        a = regs[rs1]
        b = regs[rs2]
        if a & SIGN64:
            a -= _TWO64
        if b & SIGN64:
            b -= _TWO64
        return tgt if a >= b else nxt
    return f


def _c_bltu(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8
    return lambda vm, regs, ebox, now: tgt if regs[rs1] < regs[rs2] else nxt


def _c_bgeu(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8
    return lambda vm, regs, ebox, now: tgt if regs[rs1] >= regs[rs2] else nxt


def _c_call(cc, op, rd, rs1, rs2, imm, pc):
    tgt = pc + imm
    nxt = pc + 8

    def f(vm, regs, ebox, now):
        regs[LR] = nxt
        return tgt
    return f


def _c_callr(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8

    def f(vm, regs, ebox, now):
        target = regs[rs1]
        regs[LR] = nxt
        if target >= NATIVE_BASE:
            ebox[0] += vm._run_native(target, regs, now + ebox[0])
            return regs[LR]
        return target
    return f


def _c_ret(cc, op, rd, rs1, rs2, imm, pc):
    return lambda vm, regs, ebox, now: regs[LR]


def _c_jr(cc, op, rd, rs1, rs2, imm, pc):
    def f(vm, regs, ebox, now):
        target = regs[rs1]
        if target >= NATIVE_BASE and target != RETURN_SENTINEL:
            ebox[0] += vm._run_native(target, regs, now + ebox[0])
            return regs[LR]
        return target
    return f


# -- GOT access -------------------------------------------------------------

def _c_ldg(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    mem, hier, pages, l1_lat = cc.mem, cc.hier, cc.pages, cc.l1_lat
    got_entry = (pc + imm + rs2 * 8) & MASK64  # PC-relative: a constant

    def f(vm, regs, ebox, now):
        if vm.check_pages:
            pages.check_read(got_entry, 8)
        lat = hier.access(now + ebox[0], vm.core, got_entry, 8, "read")
        if lat > l1_lat:
            ebox[0] += lat - l1_lat
        if rd != ZR:
            regs[rd] = mem.read_u64(got_entry)
        return nxt
    return f


def _c_ldgi(cc, op, rd, rs1, rs2, imm, pc):
    nxt = pc + 8
    mem, hier, pages, l1_lat = cc.mem, cc.hier, cc.pages, cc.l1_lat
    ptr_loc = (pc + imm) & MASK64  # PC-relative: a constant
    slot_off = rs2 * 8

    def f(vm, regs, ebox, now):
        if vm.check_pages:
            pages.check_read(ptr_loc, 8)
        lat = hier.access(now + ebox[0], vm.core, ptr_loc, 8, "read")
        if lat > l1_lat:
            ebox[0] += lat - l1_lat
        got_entry = (mem.read_u64(ptr_loc) + slot_off) & MASK64
        if vm.check_pages:
            pages.check_read(got_entry, 8)
        lat = hier.access(now + ebox[0], vm.core, got_entry, 8, "read")
        if lat > l1_lat:
            ebox[0] += lat - l1_lat
        if rd != ZR:
            regs[rd] = mem.read_u64(got_entry)
        return nxt
    return f


_COMPILERS: list = [_c_illegal] * 256
for _op, _compiler in {
    Op.NOP: _c_nop, Op.HALT: _c_halt, Op.WFE: _c_wfe, Op.SEV: _c_sev,
    Op.MOVI: _c_movi, Op.MOVHI: _c_movhi, Op.MOV: _c_mov, Op.ADR: _c_adr,
    Op.ADD: _c_add,
    Op.SUB: _c_sub,
    Op.MUL: _rr(lambda a, b: (a * b) & MASK64),
    Op.DIV: _c_div, Op.REM: _c_rem,
    Op.AND: _c_and,
    Op.OR: _c_or,
    Op.XOR: _c_xor,
    Op.SHL: _rr(lambda a, b: (a << (b & 63)) & MASK64),
    Op.SHR: _rr(lambda a, b: a >> (b & 63)),
    Op.SAR: _rr(lambda a, b: (_sx(a) >> (b & 63)) & MASK64),
    Op.SLT: _rr(lambda a, b: 1 if _sx(a) < _sx(b) else 0),
    Op.SLTU: _rr(lambda a, b: 1 if a < b else 0),
    Op.ADDI: _c_addi,
    Op.MULI: _ri(lambda imm: lambda a: (a * imm) & MASK64),
    Op.ANDI: _c_andi,
    Op.ORI: _ri(lambda imm: lambda a, _u=imm & MASK64: a | _u),
    Op.XORI: _ri(lambda imm: lambda a, _u=imm & MASK64: a ^ _u),
    Op.SHLI: _c_shli,
    Op.SHRI: _c_shri,
    Op.SARI: _ri(lambda imm: lambda a, _s=imm & 63: (_sx(a) >> _s) & MASK64),
    Op.SLTI: _c_slti,
    Op.LD: _load(8, _read_ld), Op.LW: _load(4, _read_lw),
    Op.LWU: _load(4, _read_lwu), Op.LH: _load(2, _read_lh),
    Op.LHU: _load(2, _read_lhu), Op.LB: _load(1, _read_lb),
    Op.LBU: _load(1, _read_lbu),
    Op.ST: _store(8, _write_st), Op.SW: _store(4, _write_sw),
    Op.SH: _store(2, _write_sh), Op.SB: _store(1, _write_sb),
    Op.B: _c_b,
    Op.BEQ: _c_beq,
    Op.BNE: _c_bne,
    Op.BLT: _c_blt,
    Op.BGE: _c_bge,
    Op.BLTU: _c_bltu,
    Op.BGEU: _c_bgeu,
    Op.CALL: _c_call, Op.CALLR: _c_callr, Op.RET: _c_ret, Op.JR: _c_jr,
    Op.LDG: _c_ldg, Op.LDGI: _c_ldgi,
}.items():
    _COMPILERS[int(_op)] = _compiler


class NodeCodeCache:
    """Per-node predecoded-code compiler, shared by every VM on the node.

    Compiled lines live in ``node.mem.code_lines`` so the memory layer
    can invalidate them on overlapping writes (the VM never has to check
    staleness itself: the hot loop re-reads the dict every step, so a
    dropped entry forces a re-decode on the very next instruction).
    """

    __slots__ = ("node", "mem", "hier", "pages", "l1_lat", "_decoded",
                 "_slot_memo")

    def __init__(self, node: Node):
        self.node = node
        self.mem = node.mem
        self.hier = node.hier
        self.pages = node.pages
        self.l1_lat = node.hier.cfg.l1_lat
        # (line, raw bytes) -> slot executors.  Message delivery can
        # still drop ``code_lines`` entries (e.g. a header byte changed
        # in a line sharing code); recompiling is pure waste when the
        # code bytes come back identical — closures depend only on the
        # line's bytes and its address.  Entries accumulate per (line,
        # content) pair; nodes live for one sweep point, so this stays
        # small.
        self._decoded: dict = {}
        # (pc, 5 fields) -> slot executor.  Mailbox lines mix header
        # words with code, so each delivery changes the line's raw bytes
        # and misses the whole-line memo above; the individual slots are
        # nearly always byte-identical, and rebuilding their closures is
        # the expensive part of a line miss.
        self._slot_memo: dict = {}

    def compile_blocks(self, line: int) -> tuple:
        """Decode + compile all 8 slots of a 64-byte line.

        Returns the 8 slot executors and caches them in
        ``mem.code_lines``.  Memory is a whole number of lines, so a
        line containing any in-bounds pc is fully in bounds; the whole
        line unpacks in one struct call.  Mailbox-delivered code is
        re-compiled every time a changed message lands on its lines, so
        this path is warm, not cold.

        The name dates from the fused-block tier, which is gone; it
        stays because the benchmark's per-layer ledger
        (perfbench/ledger.py) wraps this method by name for its
        ``isa.compile_calls`` and ``isa.compile_s`` metrics.
        """
        mem = self.mem
        base = line << 6
        raw = bytes(mem._mv[base:base + 64])
        key = (line, raw)
        slots = self._decoded.get(key)
        if slots is None:
            f = _LINE_WORDS.unpack(raw)
            compilers = _COMPILERS
            memo = self._slot_memo
            out = []
            pc = base
            for i in range(0, 40, 5):
                skey = (pc, f[i], f[i + 1], f[i + 2], f[i + 3], f[i + 4])
                s = memo.get(skey)
                if s is None:
                    s = memo[skey] = compilers[f[i]](
                        self, f[i], f[i + 1], f[i + 2], f[i + 3], f[i + 4], pc)
                out.append(s)
                pc += 8
            slots = self._decoded[key] = tuple(out)
        mem.code_lines[line] = slots
        return slots

    def compile_one(self, pc: int):
        """Uncached single-slot compile (misaligned-pc fallback)."""
        fields = decode_fields(self.mem.data, pc)
        return _COMPILERS[fields[0]](self, *fields, pc)


class Vm:
    """One execution context pinned to a core of a node."""

    def __init__(self, node: Node, core: int = 0, intrinsics=None,
                 check_pages: bool = True):
        from .intrinsics import IntrinsicTable  # local import to avoid cycle
        self.node = node
        self.core = core
        self.intrinsics = intrinsics if intrinsics is not None else IntrinsicTable()
        self.check_pages = check_pages
        code = getattr(node, "code_cache", None)
        if code is None:
            code = node.code_cache = NodeCodeCache(node)
        self._code = code
        from ..machine.pages import PROT_RW
        self.stack_base = node.map_region(DEFAULT_STACK_BYTES, PROT_RW,
                                          align=4096, label="vmstack")
        self.stack_top = self.stack_base + DEFAULT_STACK_BYTES

    # ------------------------------------------------------------------
    def call(self, entry: int, args: tuple[int, ...] = (), now: float = 0.0,
             max_steps: int = 4_000_000) -> CallResult:
        """Call the function at ``entry`` with up to 8 integer args.

        Returns the signed a0 value and the simulated elapsed time.  The
        executed code sees the node's real memory; any register state is
        fresh per call (the runtime's invocation stub behaves likewise).
        """
        if len(args) > 8:
            raise VmFault(f"more than 8 arguments ({len(args)})")
        node = self.node
        mem = node.mem
        hier = node.hier
        pages = node.pages
        core = self.core
        mem_size = mem.size
        compile_blocks = self._code.compile_blocks

        regs = [0] * NREGS
        for i, a in enumerate(args):
            regs[i] = _ux(int(a))
        regs[SP] = self.stack_top
        regs[LR] = RETURN_SENTINEL

        pc = entry
        # elapsed-ns travels in a one-element box so slot executors can
        # add memory/native latencies to it
        ebox = [node.runnable_delay(core, now)]  # preempted at entry?
        steps = 0
        cur_line = None
        check = self.check_pages
        get_slots = mem.code_lines.get
        access_line = hier.access_line
        check_exec = pages.check_exec
        # Line-transition fast path locals: the exec-permission probe and
        # the sequential L1I hit are open-coded below with the exact
        # bookkeeping of PageTable._check / access_line's inline path;
        # anything unusual falls back to the full calls.
        prot = pages.prot
        last_if = hier._last_ifetch
        l1i = hier.l1i[core]
        l1i_map = l1i._map
        l1_lat = hier._l1_lat

        while pc != RETURN_SENTINEL:
            if steps >= max_steps:
                raise VmFault(f"step limit {max_steps} exceeded", pc=pc)
            line = pc >> 6
            if line != cur_line:
                # bounds before any model side effect: an out-of-range
                # fetch must fault without touching cache state
                if pc < 0 or pc + 8 > mem_size:
                    raise VmFault("instruction fetch out of memory", pc=pc)
                if check:
                    page = pc >> _PAGE_SHIFT
                    if ((pc + 7) >> _PAGE_SHIFT != page
                            or prot[page] & _PROT_X != _PROT_X):
                        check_exec(pc, 8)
                if line == last_if[core] + 1:
                    way = l1i_map.get(line)
                    if way is not None:
                        _C.cache_probes += 1
                        last_if[core] = line
                        l1i.hits += 1
                        l1i._tick += 1
                        l1i.lru[line & l1i._set_mask][way] = l1i._tick
                        ebox[0] += l1_lat
                    else:
                        ebox[0] += access_line(now + ebox[0], core, line,
                                               "ifetch")
                else:
                    ebox[0] += access_line(now + ebox[0], core, line, "ifetch")
                cur_line = line
            steps += 1
            ebox[0] += CPI_NS
            if pc & 7:
                pc = self._step_misaligned(pc, regs, ebox, now)
            else:
                slots = get_slots(line)
                if slots is None:
                    slots = compile_blocks(line)
                pc = slots[(pc >> 3) & 7](self, regs, ebox, now)

        elapsed = ebox[0]
        node.add_busy_ns(core, elapsed)
        _C.instructions += steps
        if _M.enabled:
            _M.count(f"tc_vm_instructions_total|node={node.node_id}",
                     now + elapsed, steps)
        if _T.enabled:
            _T.span(node_pid(node.node_id), core, "vm.call", now,
                    now + elapsed, {"steps": steps, "entry": entry})
        return CallResult(ret=_sx(regs[0]), elapsed_ns=elapsed, steps=steps)

    # ------------------------------------------------------------------
    def _step_misaligned(self, pc: int, regs: list[int], ebox: list[float],
                         now: float) -> int:
        """Execute one instruction at a non-8-aligned pc.

        Predecoded lines are indexed by 8-byte slot, so a misaligned pc
        (possible only via a computed jump — the toolchain never emits
        one) decodes and executes directly, uncached, with the original
        per-instruction semantics."""
        if pc < 0 or pc + 8 > self.node.mem.size:
            raise VmFault("instruction fetch out of memory", pc=pc)
        return self._code.compile_one(pc)(self, regs, ebox, now)

    # ------------------------------------------------------------------
    def _run_native(self, target: int, regs: list[int], now: float) -> float:
        idx, rem = divmod(target - NATIVE_BASE, NATIVE_STRIDE)
        if rem or not self.intrinsics.valid_index(idx):
            raise VmFault(f"call to bad native address {target:#x}")
        args = tuple(_sx(regs[i]) for i in range(8))
        ret, cost = self.intrinsics.invoke(idx, self, now, args)
        regs[0] = _ux(int(ret))
        return cost


def native_address(index: int) -> int:
    """Native entry-point address for intrinsic ``index``."""
    return NATIVE_BASE + index * NATIVE_STRIDE
