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

The hot loop runs *predecoded, block-fused* code.  Each executable
64-byte line is decoded once into 8 slot executors — closures
specialized by an opcode-indexed dispatch table (:data:`_COMPILERS`,
one compiler per opcode byte) with the operand fields, next-pc, branch
targets, and PC-relative GOT addresses bound in at decode time — plus
an 8-entry superblock dispatch table: runs of consecutive pure
instructions are fused into single generated closures that retire the
whole run per dispatch (see the "Basic-block fusion" section below).
Both live in ``PhysicalMemory.code_lines`` / ``code_blocks``, shared by
every VM on the node.  The memory layer drops overlapping entries on
any write that *changes* bytes (local stores, GOT rewrites, DMA into
mailbox pages — identical rewrites keep the decode), so self-modifying
code re-decodes exactly like a real I-side refetch; the timing model is
unchanged either way because instruction-fetch latency is charged per
line transition, not per decode.  Per dispatch the loop does a
step-limit check, a line transition check, one dict lookup, and one
call — no struct unpacking and no 40-arm opcode ladder — and a fused
dispatch amortizes that over every instruction in the block.
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


# ---------------------------------------------------------------------------
# Basic-block fusion.
#
# ``NodeCodeCache.compile_blocks`` groups consecutive *pure*
# instructions (ALU / move / immediate ops — anything touching only the
# register file) into superblocks and generates one Python closure per
# block: a single dispatch retires all N instructions, advancing pc and
# steps in bulk.  Memory ops, branches, native calls, and anything else
# that charges the hierarchy or can transfer control terminates a block
# and keeps its per-instruction executor, so every hierarchy charge,
# fault, and trace span is bit-for-bit identical with fusion on or off.
#
# Timing transparency is by construction: the generated body
# accumulates ``CPI_NS`` once per instruction in the same order the
# interpreter loop would (N separate float adds, *not* ``N * CPI_NS``,
# which rounds differently), and a block crossing a 64-byte line
# boundary open-codes the loop's exact exec-permission probe and
# sequential-L1I bookkeeping at the crossing point, materializing the
# elapsed box around every hierarchy call.  DIV/REM keep their faulting
# semantics with the *faulting* pc (not the block head) baked into the
# raise.
#
# Blocks start at every pure slot (suffix fusion), so a branch target
# landing mid-run still dispatches a fused tail.  Blocks may extend
# across line boundaries; the extra lines are recorded as dependencies
# in ``PhysicalMemory.block_deps`` so a write changing *their* bytes
# drops the anchored block too (``memory._retire_code``).
#
# ``set_fusion(False)`` degrades every entry to the single-slot
# executors — the reference the identity tests diff against.
# ---------------------------------------------------------------------------

_FUSE_ENABLED = True
_FUSE_CAP = 32  # max instructions folded into one closure (codegen bound)


def set_fusion(enabled: bool) -> None:
    """Process-wide fusion switch; off is the identity tests' reference.

    Takes effect for lines compiled after the call; block tables cached
    under the other setting are keyed separately and never mixed.
    """
    global _FUSE_ENABLED
    _FUSE_ENABLED = bool(enabled)


def fusion_enabled() -> bool:
    return _FUSE_ENABLED


def _src_rr(expr):
    """Source emitter for a two-register pure op; ``expr`` uses {a}/{b}."""
    def emit(rd, rs1, rs2, imm, pc):
        if rd == ZR:
            return []
        return [" r[%d] = %s" % (rd, expr.format(a=f"r[{rs1}]",
                                                 b=f"r[{rs2}]"))]
    return emit


def _src_ri(expr):
    """Source emitter for a register+immediate pure op; ``expr`` uses
    {a} plus the compile-time constants {imm} (signed), {u} (unsigned),
    {s} (shift count)."""
    def emit(rd, rs1, rs2, imm, pc):
        if rd == ZR:
            return []
        return [" r[%d] = %s" % (rd, expr.format(
            a=f"r[{rs1}]", imm=imm, u=imm & MASK64, s=imm & 63))]
    return emit


def _src_nop(rd, rs1, rs2, imm, pc):
    return []


def _src_movi(rd, rs1, rs2, imm, pc):
    return [] if rd == ZR else [f" r[{rd}] = {imm & MASK64}"]


def _src_movhi(rd, rs1, rs2, imm, pc):
    if rd == ZR:
        return []
    return [f" r[{rd}] = (r[{rd}] & 0xFFFFFFFF) | {(imm & 0xFFFFFFFF) << 32}"]


def _src_adr(rd, rs1, rs2, imm, pc):
    # pc-relative: the anchor pc is a closure variable of the generated
    # factory, so the source (and its compiled code object) stays
    # position-independent and shared across load addresses
    return [] if rd == ZR else [f" r[{rd}] = (_pc0 + {pc + imm}) & M"]


def _src_sar(rd, rs1, rs2, imm, pc):
    if rd == ZR:
        return []
    return [f" _a = r[{rs1}]", " if _a & S:", "  _a -= T",
            f" r[{rd}] = (_a >> (r[{rs2}] & 63)) & M"]


def _src_sari(rd, rs1, rs2, imm, pc):
    if rd == ZR:
        return []
    return [f" _a = r[{rs1}]", " if _a & S:", "  _a -= T",
            f" r[{rd}] = (_a >> {imm & 63}) & M"]


def _src_slt(rd, rs1, rs2, imm, pc):
    if rd == ZR:
        return []
    return [f" _a = r[{rs1}]", f" _b = r[{rs2}]",
            " if _a & S:", "  _a -= T", " if _b & S:", "  _b -= T",
            f" r[{rd}] = 1 if _a < _b else 0"]


def _src_slti(rd, rs1, rs2, imm, pc):
    if rd == ZR:
        return []
    return [f" _a = r[{rs1}]", " if _a & S:", "  _a -= T",
            f" r[{rd}] = 1 if _a < {imm} else 0"]


def _src_divrem(is_rem):
    # Same semantics as _c_div/_c_rem: fault check first (at the exact
    # instruction pc, with elapsed-ns materialized through this
    # instruction, like the interpreted path), truncating division.
    def emit(rd, rs1, rs2, imm, pc):
        out = [f" _a = r[{rs1}]", f" _b = r[{rs2}]",
               " if _b == 0:",
               "  ebox[0] = _e",
               f"  raise VmFault('division by zero', pc=_pc0 + {pc})",
               " if _a & S:", "  _a -= T",
               " if _b & S:", "  _b -= T",
               " _q = abs(_a) // abs(_b)",
               " if (_a < 0) != (_b < 0):", "  _q = -_q"]
        if rd != ZR:
            out.append(f" r[{rd}] = (_a - _q * _b) & M" if is_rem
                       else f" r[{rd}] = _q & M")
        return out
    return emit


def _src_load(size, fast_lines, checked):
    """Source emitter for the load family: bit-identical to the
    ``_load`` executor body (one-page permission probe, one-line L1D
    hit, unchecked fast read with checked fallback), with the elapsed
    box materialized before the slow-path permission call (which can
    fault).  ``fast_lines(rd)`` emits the in-bounds read at indent 2;
    ``checked`` names the bounds-checked reader bound in the exec
    namespace."""
    size1 = size - 1

    def emit(rd, rs1, rs2, imm, pc):
        out = [f" _a = (r[{rs1}] + {imm}) & M",
               f" _q = _a + {size}",
               " if _cp:",
               f"  _pg = _a >> {_PAGE_SHIFT}",
               f"  if _q > MEMSZ or (_q - 1) >> {_PAGE_SHIFT} != _pg"
               " or prot[_pg] & PR != PR:",
               "   ebox[0] = _e",
               f"   check_read(_a, {size})",
               " _ln = _a >> 6",
               " _w = _dmg(_ln)",
               " if _w is not None:" if size == 1 else
               f" if _w is not None and (_a + {size1}) >> 6 == _ln:",
               "  C.cache_probes += 1",
               "  _d1.hits += 1",
               "  _d1._tick += 1",
               "  _d1.lru[_ln & _dmask][_w] = _d1._tick",
               " else:",
               f"  _lat = hacc(now + _e, _co, _a, {size}, 'read')",
               "  if _lat > L1LAT:",
               "   _e += _lat - L1LAT"]
        if rd == ZR:  # value discarded; only the faulting path remains
            out += [" if _q > MEMSZ:", f"  {checked}(mem, _a)"]
        else:
            out += [" if _q <= MEMSZ:", *fast_lines(rd),
                    " else:", f"  r[{rd}] = {checked}(mem, _a)"]
        return out
    return emit


def _src_store(size, fast_lines, checked):
    """Source emitter for the store family (mirrors ``_store``): same
    fast paths as loads plus the dirty bit, the identical-bytes decode
    keep, and the watchpoint probe.  After the bytes land the block
    code generator appends a self-modification bail: the block verifies
    it still owns its dispatch-table slot, so a store that changed code
    under the closure hands control back to the dispatcher at the
    *next* pc and the line re-decodes from the new bytes, exactly as
    single-stepping would."""
    size1 = size - 1

    def emit(rd, rs1, rs2, imm, pc):
        out = [f" _a = (r[{rs1}] + {imm}) & M",
               f" _q = _a + {size}",
               " if _cp:",
               f"  _pg = _a >> {_PAGE_SHIFT}",
               f"  if _q > MEMSZ or (_q - 1) >> {_PAGE_SHIFT} != _pg"
               " or prot[_pg] & PW != PW:",
               "   ebox[0] = _e",
               f"   check_write(_a, {size})",
               " _ln = _a >> 6"]
        one = "True" if size == 1 else f"(_a + {size1}) >> 6 == _ln"
        if size > 1:
            out.append(f" _one = {one}")
            one = "_one"
        out += [" _w = _dmg(_ln)",
                f" if _w is not None and {one}:" if size > 1 else
                " if _w is not None:",
                "  C.cache_probes += 1",
                "  _d1.hits += 1",
                "  _d1._tick += 1",
                "  _si = _ln & _dmask",
                "  _d1.lru[_si][_w] = _d1._tick",
                "  _d1.dirty[_si][_w] = True",
                " else:",
                f"  _lat = hacc(now + _e, _co, _a, {size}, 'write')",
                "  if _lat > L1LAT:",
                "   _e += _lat - L1LAT",
                " if _q <= MEMSZ:", *fast_lines(rd),
                " else:", f"  {checked}(mem, _a, r[{rd}])",
                " if _wt:"]
        if size == 1:
            out += ["  _ev = _wt.get(_ln)",
                    "  if _ev is not None:",
                    "   _ev.fire()"]
        else:
            out += ["  if _one:",
                    "   _ev = _wt.get(_ln)",
                    "   if _ev is not None:",
                    "    _ev.fire()",
                    "  else:",
                    f"   nwrite(_a, {size})"]
        # the post-store invalidation bail (the block re-checks its
        # dispatch-table slot) is appended by _gen_fused_code
        return out
    return emit


def _rd_ld(rd):
    return [f"  r[{rd}] = fb(mv[_a:_a + 8], 'little')"]


def _rd_lw(rd):
    return ["  _v = fb(mv[_a:_a + 4], 'little')",
            f"  r[{rd}] = (_v - 4294967296) & M"
            " if _v >= 2147483648 else _v"]


def _rd_lwu(rd):
    return [f"  r[{rd}] = fb(mv[_a:_a + 4], 'little')"]


def _rd_lb(rd):
    return ["  _v = mv[_a]",
            f"  r[{rd}] = (_v - 256) & M if _v >= 128 else _v"]


def _rd_lbu(rd):
    return [f"  r[{rd}] = mv[_a]"]


def _wr_bytes(size):
    mask = MASK64 if size == 8 else (1 << size * 8) - 1
    mexpr = "M" if size == 8 else str(mask)

    def lines(rd):
        return [f"  _b = (r[{rd}] & {mexpr}).to_bytes({size}, 'little')",
                "  if mem.code_lines:",
                f"   if mv[_a:_a + {size}] != _b:",
                f"    mv[_a:_a + {size}] = _b",
                f"    retire(_a, {size})",
                "  else:",
                f"   mv[_a:_a + {size}] = _b"]
    return lines


def _wr_sb(rd):
    return [f"  _v = r[{rd}] & 255",
            "  if mem.code_lines:",
            "   if mv[_a] != _v:",
            "    mv[_a] = _v",
            "    retire(_a, 1)",
            "  else:",
            "   mv[_a] = _v"]


_FUSE_EMIT: dict = {}
# Memory ops fold into blocks too: their executors are straight-line
# (always fall through to pc+8), so the block emits the executor body
# inline and stays a single dispatch.  Stores add the re-fusion bail
# check above.
_FUSE_MEM: dict = {}
for _op, _emit in {
    Op.LD: _src_load(8, _rd_ld, "RLD"),
    Op.LW: _src_load(4, _rd_lw, "RLW"),
    Op.LWU: _src_load(4, _rd_lwu, "RLWU"),
    Op.LB: _src_load(1, _rd_lb, "RLB"),
    Op.LBU: _src_load(1, _rd_lbu, "RLBU"),
    Op.ST: _src_store(8, _wr_bytes(8), "WST"),
    Op.SW: _src_store(4, _wr_bytes(4), "WSW"),
    Op.SB: _src_store(1, _wr_sb, "WSB"),
}.items():
    _FUSE_MEM[int(_op)] = _emit
for _op, _emit in {
    Op.NOP: _src_nop, Op.MOVI: _src_movi, Op.MOVHI: _src_movhi,
    Op.MOV: _src_rr("{a}"), Op.ADR: _src_adr,
    Op.ADD: _src_rr("({a} + {b}) & M"),
    Op.SUB: _src_rr("({a} - {b}) & M"),
    Op.MUL: _src_rr("({a} * {b}) & M"),
    Op.DIV: _src_divrem(False), Op.REM: _src_divrem(True),
    Op.AND: _src_rr("{a} & {b}"),
    Op.OR: _src_rr("{a} | {b}"),
    Op.XOR: _src_rr("{a} ^ {b}"),
    Op.SHL: _src_rr("({a} << ({b} & 63)) & M"),
    Op.SHR: _src_rr("{a} >> ({b} & 63)"),
    Op.SAR: _src_sar,
    Op.SLT: _src_slt,
    Op.SLTU: _src_rr("1 if {a} < {b} else 0"),
    Op.ADDI: _src_ri("({a} + {imm}) & M"),
    Op.MULI: _src_ri("({a} * {imm}) & M"),
    Op.ANDI: _src_ri("{a} & {u}"),
    Op.ORI: _src_ri("{a} | {u}"),
    Op.XORI: _src_ri("{a} ^ {u}"),
    Op.SHLI: _src_ri("({a} << {s}) & M"),
    Op.SHRI: _src_ri("{a} >> {s}"),
    Op.SARI: _src_sari,
    Op.SLTI: _src_slti,
}.items():
    _FUSE_EMIT[int(_op)] = _emit
_FUSE_EMIT.update(_FUSE_MEM)

# Store opcodes need a post-store bail in generated code (the store may
# have invalidated the very closure executing it).
_FUSE_STORE = frozenset((int(Op.ST), int(Op.SW), int(Op.SB)))


# (anchor alignment within its line, instruction words) -> compiled
# code object defining a factory ``_mk(_pc0) -> closure``.  The source
# is position-independent — every pc-dependent constant is expressed
# relative to ``_pc0`` and precomputed in the factory prelude — so one
# compile serves every load address, node, and sweep point where the
# same instruction bytes appear (sweeps shift mailbox layouts per
# point; keying on absolute pc would defeat the cache).
_SRC_CACHE: dict = {}


def _gen_fused_code(align: int, instrs):
    """Compile (cached) the ``_mk`` factory source for a fused run.

    ``align`` is ``anchor_pc & 63`` — it fixes where the run crosses
    64-byte line boundaries, the only positional structure the body
    needs.  Offsets handed to the emitters are relative to ``_pc0``.
    """
    key = (align, instrs)
    code = _SRC_CACHE.get(key)
    if code is not None:
        return code
    mem_ops = _FUSE_MEM
    has_mem = any(ins[0] in mem_ops for ins in instrs)
    prelude = ["def _mk(_pc0, _tbl):",
               f" _end = _pc0 + {8 * len(instrs)}"]
    if has_mem:
        prelude.append(" _al = _pc0 >> 6")
    body = [" def _blk(vm, r, ebox, now):",
            "  C.fused_dispatches += 1",
            "  _e = ebox[0]"]
    if has_mem:
        # Per-block hoists for the load/store fast paths: the core, its
        # L1D, the page-check flag, and the watch table are fixed for
        # the whole dispatch (executors re-derive them per instruction;
        # the values are identical — ``_watch`` is only rebound by
        # World.restore, which never runs mid-dispatch).
        body += ["  _co = vm.core",
                 "  _d1 = l1d[_co]",
                 "  _dmg = _d1._map.get",
                 "  _dmask = _d1._set_mask",
                 "  _cp = vm.check_pages",
                 "  _wt = node._watch"]
    off = 0
    ncross = 0
    for i, (op, rd, rs1, rs2, imm) in enumerate(instrs):
        if i and not (align + off) & 63:
            # Line crossing: replay the interpreter loop's transition
            # bookkeeping (exec-permission probe, sequential-L1I fast
            # path) with the elapsed box materialized around every
            # hierarchy call.  Bounds are static: _fuse_line only
            # crosses into lines that are fully in memory.  The
            # crossing pc/line/page are closure ints built in the
            # factory prelude.
            ncross += 1
            x, n, g = f"_x{ncross}", f"_n{ncross}", f"_g{ncross}"
            prelude += [f" {x} = _pc0 + {off}",
                        f" {n} = {x} >> 6",
                        f" {g} = {x} >> {_PAGE_SHIFT}"]
            body += [
                "  ebox[0] = _e",
                f"  if vm.check_pages and prot[{g}] & PX != PX:",
                f"   check_exec({x}, 8)",
                "  _co = vm.core",
                f"  if last_if[_co] + 1 == {n}:",
                "   _l1 = l1i[_co]",
                f"   _w = _l1._map.get({n})",
                "   if _w is None:",
                f"    ebox[0] += access_line(now + ebox[0], _co, {n},"
                " 'ifetch')",
                "   else:",
                "    C.cache_probes += 1",
                f"    last_if[_co] = {n}",
                "    _l1.hits += 1",
                "    _l1._tick += 1",
                f"    _l1.lru[{n} & _l1._set_mask][_w] = _l1._tick",
                "    ebox[0] += L1LAT",
                "  else:",
                f"   ebox[0] += access_line(now + ebox[0], _co, {n},"
                " 'ifetch')",
                "  _e = ebox[0]",
            ]
        body.append("  _e += C0")
        body += [" " + ln for ln in _FUSE_EMIT[op](rd, rs1, rs2, imm, off)]
        if op in _FUSE_STORE:
            body += ["  if cbg(_al) is not _tbl:",
                     "   ebox[0] = _e",
                     f"   return _pc0 + {off + 8}"]
        off += 8
    body.append("  ebox[0] = _e")
    body.append("  return _end")
    body.append(" return _blk")
    src = "\n".join(prelude + body)
    code = compile(src, f"<fused:+{align}x{len(instrs)}>", "exec")
    _SRC_CACHE[key] = code
    return code


class NodeCodeCache:
    """Per-node predecoded-code compiler, shared by every VM on the node.

    Compiled lines live in ``node.mem.code_lines`` (per-slot executors)
    and ``node.mem.code_blocks`` (fused-superblock dispatch tables) so
    the memory layer can invalidate them on overlapping writes (the VM
    never has to check staleness itself: the hot loop re-reads the dict
    every step, so a dropped entry forces a re-decode on the very next
    instruction).
    """

    __slots__ = ("node", "mem", "hier", "pages", "l1_lat", "_decoded",
                 "_fuse_ns", "_mk_cache", "_slot_memo")

    def __init__(self, node: Node):
        self.node = node
        self.mem = node.mem
        self.hier = node.hier
        self.pages = node.pages
        self.l1_lat = node.hier.cfg.l1_lat
        # (line, raw bytes, fusion flag) -> (slots, blocks, deps).
        # Message delivery can still drop ``code_lines`` entries (e.g. a
        # header byte changed in a line sharing code); recompiling is
        # pure waste when the code bytes come back identical — closures
        # depend only on the line's bytes and its address.  Entries
        # accumulate per (line, content) pair; nodes live for one sweep
        # point, so this stays small.
        self._decoded: dict = {}
        # Exec-globals namespace for generated fused closures: node-level
        # objects bound once.  Everything here is identity-stable across
        # World.restore (prot/_last_ifetch are mutated in place, bound
        # methods and the l1i list are never rebound).
        hier = node.hier
        mem = node.mem
        self._fuse_ns = {
            "C": _C, "C0": CPI_NS, "VmFault": VmFault,
            "M": MASK64, "S": SIGN64, "T": _TWO64,
            "prot": node.pages.prot, "PX": _PROT_X,
            "check_exec": node.pages.check_exec,
            "last_if": hier._last_ifetch, "l1i": hier.l1i,
            "access_line": hier.access_line, "L1LAT": hier._l1_lat,
            # load/store emission (all identity-stable per node: the
            # memoryview, dicts and bound methods are never rebound)
            "mem": mem, "mv": mem._mv, "fb": int.from_bytes,
            "retire": mem._retire_code, "cbg": mem.code_blocks.get,
            "l1d": hier.l1d, "hacc": hier.access,
            "node": node, "nwrite": node.notify_write,
            "check_read": node.pages.check_read,
            "check_write": node.pages.check_write,
            "PR": _PROT_R, "PW": _PROT_W, "MEMSZ": node.pages.mem_size,
            "RLD": _read_ld, "RLW": _read_lw, "RLWU": _read_lwu,
            "RLB": _read_lb, "RLBU": _read_lbu,
            "WST": _write_st, "WSW": _write_sw, "WSB": _write_sb,
        }
        # (align, words) -> this node's _mk factory: one exec per
        # distinct source per node; anchoring a block to an address is
        # then a plain call
        self._mk_cache: dict = {}
        # (pc, 5 fields) -> slot executor.  Mailbox lines mix header
        # words with code, so each delivery changes the line's raw bytes
        # and misses the whole-line memo above; the individual slots are
        # nearly always byte-identical, and rebuilding their closures is
        # the expensive part of a line miss.
        self._slot_memo: dict = {}

    def compile_line(self, line: int) -> tuple:
        """Compile (and cache) a line; returns the per-slot executors."""
        self.compile_blocks(line)
        return self.mem.code_lines[line]

    def compile_blocks(self, line: int) -> tuple:
        """Decode + compile + fuse all 8 slots of a 64-byte line.

        Memory is a whole number of lines, so a line containing any
        in-bounds pc is fully in bounds; the whole line unpacks in one
        struct call.  Mailbox-delivered code is re-compiled every time a
        changed message lands on its lines, so this path is warm, not
        cold.

        Returns (and caches in ``mem.code_blocks``) the 8-entry block
        dispatch table — ``(n, fused_fn, slot_fn, aux)`` per slot,
        with ``n >= 2`` where a pure run starts (``aux`` holds the run
        words and the slot's offset into them), else ``n == 1``, the
        plain slot executor and ``aux`` None.
        Closures are generated *lazily*: a fresh fusible entry carries
        ``fused_fn=None`` plus its instruction words, and the first
        dispatch patches the table in place (``materialize_slot``) —
        most slots are never entered, so eager codegen would be pure
        decode-time waste.
        ``mem.code_lines`` gets the per-slot tuple as before (misaligned
        entries, invalidation contract).  A memo hit whose blocks extend
        into following lines re-verifies those dependency bytes, since
        only the anchor line's bytes are in the key.
        """
        mem = self.mem
        base = line << 6
        raw = bytes(mem._mv[base:base + 64])
        key = (line, raw, _FUSE_ENABLED)
        entry = self._decoded.get(key)
        if entry is not None:
            for dline, draw in entry[2]:
                db = dline << 6
                if bytes(mem._mv[db:db + 64]) != draw:
                    entry = None
                    break
        if entry is None:
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
            slots = tuple(out)
            blocks, deps = self._fuse_line(line, f, slots)
            entry = self._decoded[key] = (slots, blocks, deps)
        slots, blocks, deps = entry
        mem.code_lines[line] = slots
        mem.code_blocks[line] = blocks
        if deps:
            bd = mem.block_deps
            for dline, _draw in deps:
                anchors = bd.get(dline)
                if anchors is None:
                    bd[dline] = {line}
                else:
                    anchors.add(line)
        return blocks

    def _fuse_line(self, line: int, fields: tuple, slots: tuple):
        """Build the 8-entry block dispatch table for one line.

        Returns ``(entries, deps)`` where deps is the tuple of
        ``(line, raw bytes)`` follow-on lines whose instructions are
        baked into some emitted block (none when fusion is off).
        """
        entries = [(1, s, s, None) for s in slots]
        if not _FUSE_ENABLED:
            return entries, ()
        mem = self.mem
        mem_size = mem.size
        emit = _FUSE_EMIT
        instrs = [fields[i:i + 5] for i in range(0, 40, 5)]
        ext: list = []  # (line, raw) per follow-on line fetched
        max_end = 8     # highest instruction index inside an emitted block

        def fetch_more() -> bool:
            nxt = line + 1 + len(ext)
            hi = (nxt + 1) << 6
            if hi > mem_size:
                return False
            rawn = bytes(mem._mv[nxt << 6:hi])
            fn = _LINE_WORDS.unpack(rawn)
            ext.append((nxt, rawn))
            instrs.extend(fn[i:i + 5] for i in range(0, 40, 5))
            return True

        # One forward scan: find each maximal fusible run once, then cut
        # the per-slot suffix entries out of it, instead of re-walking
        # the run from every slot.  ``stop`` bounds the scan at the
        # furthest index any in-line slot can use (slot 7 + cap).
        stop = 7 + _FUSE_CAP
        k = 0
        while k < 8:
            if instrs[k][0] not in emit:
                k += 1
                continue
            j = k
            while j < stop:
                if j >= len(instrs) and not fetch_more():
                    break
                if instrs[j][0] not in emit:
                    break
                j += 1
            # suffix fusion: a block starts at *every* pure slot, so a
            # branch target landing mid-run still gets a fused tail;
            # the closure itself is generated on first dispatch.  All
            # suffixes share one run tuple (entry carries its offset):
            # per-slot slicing happens only if the slot is ever entered.
            run = tuple(instrs[k:j])
            for i in range(k, min(j - 1, 8)):
                n = j - i
                if n > _FUSE_CAP:
                    n = _FUSE_CAP
                end = i + n
                entries[i] = (n, None, slots[i], (run, i - k))
                if end > max_end:
                    max_end = end
            k = j + 1
        deps = tuple(ext[:(max_end - 1) // 8]) if max_end > 8 else ()
        return entries, deps

    def materialize_slot(self, line: int, k: int):
        """First dispatch of a lazily fused entry: generate the closure
        and patch the (memo-shared) block table in place."""
        blocks = self.mem.code_blocks[line]
        n, _fn, single, aux = blocks[k]
        run, off = aux
        fn = self._materialize((line << 6) + k * 8, run[off:off + n], blocks)
        blocks[k] = (n, fn, single, aux)
        return fn

    def _materialize(self, pc0: int, instrs: tuple, blocks):
        key = (pc0 & 63, instrs)
        mk = self._mk_cache.get(key)
        if mk is None:
            code = _SRC_CACHE.get(key)
            if code is None:
                code = _gen_fused_code(key[0], instrs)
            ns = self._fuse_ns
            exec(code, ns)
            mk = self._mk_cache[key] = ns.pop("_mk")
        _C.blocks_compiled += 1
        return mk(pc0, blocks)

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
        code_blocks = mem.code_blocks
        compile_blocks = self._code.compile_blocks
        materialize_slot = self._code.materialize_slot
        m_on = _M.enabled  # per-call tier split for the metrics registry
        if m_on:
            m_fused0 = _C.fused_instructions

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
        get_blocks = code_blocks.get
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
            if pc & 7:
                steps += 1
                ebox[0] += CPI_NS
                pc = self._step_misaligned(pc, regs, ebox, now)
                continue
            blocks = get_blocks(line)
            if blocks is None:
                blocks = compile_blocks(line)
            e = blocks[(pc >> 3) & 7]
            n = e[0]
            if n > 1 and steps + n <= max_steps:
                # fused superblock: one dispatch retires n instructions
                # (the closure charges n * CPI one add at a time and
                # does the loop's transition bookkeeping at any line
                # crossing, so timing is identical to single-stepping).
                # Blocks are straight-line, so the retired count is the
                # pc distance — exact even when a self-modifying store
                # bails out mid-block to force a re-fuse.
                fused = e[1]
                if fused is None:  # first entry at this slot: generate
                    fused = materialize_slot(line, (pc >> 3) & 7)
                ret = fused(self, regs, ebox, now)
                d = (ret - pc) >> 3
                _C.fused_instructions += d
                steps += d
                pc = ret
                cur_line = (pc - 8) >> 6  # line of the last retired instr
            else:
                # single step: not a fusible run head, or the block
                # would overshoot max_steps — stepping keeps the limit
                # fault at the exact instruction count
                steps += 1
                ebox[0] += CPI_NS
                pc = e[2](self, regs, ebox, now)

        elapsed = ebox[0]
        node.add_busy_ns(core, elapsed)
        _C.instructions += steps
        if m_on:
            # Per-tier split: it describes the host-side JIT, not the
            # modelled machine, and moves with set_fusion while rows
            # and the stable snapshot must not, so only the total is
            # stable.
            nid = node.node_id
            fd = _C.fused_instructions - m_fused0
            end = now + elapsed
            _M.count(f"tc_vm_instructions_total|node={nid}", end, steps)
            _M.count(f"tc_vm_tier_instructions_total|node={nid}|tier=interp",
                     end, steps - fd, stable=False)
            if fd:
                _M.count(f"tc_vm_tier_instructions_total|node={nid}"
                         "|tier=fused", end, fd, stable=False)
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
