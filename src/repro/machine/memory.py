"""Physical memory of a simulated node.

A flat little-endian byte-addressable array backed by numpy, with a simple
aligned bump allocator.  The paper's servers carry 16 GB each; the
simulation only ever touches a few megabytes (libraries, mailboxes, heap),
so the default size is 64 MiB — addresses are *node-physical* and have no
relation to host memory.
"""

from __future__ import annotations

import numpy as np

from ..errors import MachineError, MemoryFault
from ..perf import COUNTERS as _C

LINE = 64  # cache-line size in bytes, fixed across the model


def align_up(value: int, align: int) -> int:
    if align <= 0 or align & (align - 1):
        raise MachineError(f"alignment must be a power of two, got {align}")
    return (value + align - 1) & ~(align - 1)


class PhysicalMemory:
    """Byte-addressable storage with bounds checking."""

    def __init__(self, size: int = 64 * 1024 * 1024):
        if size <= 0 or size % LINE:
            raise MachineError("memory size must be a positive multiple of 64")
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        # memoryview over the same buffer: scalar reads/writes go through
        # it because a mv slice + int.from_bytes is several times cheaper
        # than a numpy slice + tobytes on the VM's per-load path
        self._mv = memoryview(self.data)
        # Predecoded-code cache: line index -> opaque decode payload,
        # populated by the CHAIN VM (repro.isa.vm).  Every mutator below
        # drops overlapping entries, so a cached decode can never outlive
        # the bytes it was decoded from — this is the invalidation
        # contract for self-modifying code, GOT rewrites, and DMA into
        # code pages.  Writers that bypass these methods (mutating a
        # numpy view directly) would break it; no simulator code does.
        #
        # Mutators first compare the incoming bytes against the resident
        # ones for *tracked* lines and skip the drop when nothing
        # changes: message delivery rewrites mailbox code with identical
        # bytes on every send of the same function, and re-decoding it
        # each time is pure waste.  An identical write is observationally
        # a no-op, so keeping the decode is always sound.
        self.code_lines: dict[int, object] = {}

    def _retire_code(self, addr: int, length: int) -> None:
        """Drop predecoded lines overlapping [addr, addr+length)."""
        cl = self.code_lines
        if not cl or length <= 0:
            return
        first = addr >> 6
        last = (addr + length - 1) >> 6
        if last - first < len(cl):
            lines = range(first, last + 1)
        else:  # huge write, small cache: intersect the other way
            lines = [ln for ln in cl if first <= ln <= last]
        inval = 0
        for line in lines:
            if cl.pop(line, None) is not None:
                inval += 1
        if inval:
            _C.block_invalidations += inval

    def _retire_changed(self, addr: int, payload, length: int) -> None:
        """Selective invalidation for bulk writes (called *before* the
        bytes land): drop only tracked lines whose overlapped bytes
        actually change.  ``payload`` must be a memoryview."""
        cl = self.code_lines
        mv = self._mv
        first = addr >> 6
        last = (addr + length - 1) >> 6
        if last - first < len(cl):
            lines = range(first, last + 1)
        else:
            lines = [ln for ln in cl if first <= ln <= last]
        end = addr + length
        inval = 0
        for line in lines:
            if line not in cl:
                continue
            lo = line << 6
            hi = lo + 64
            if lo < addr:
                lo = addr
            if hi > end:
                hi = end
            if mv[lo:hi] == payload[lo - addr:hi - addr]:
                continue  # identical bytes: decode stays valid
            del cl[line]
            inval += 1
        if inval:
            _C.block_invalidations += inval

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise MemoryFault(
                f"physical access out of range: [{addr:#x}, {addr + length:#x})",
                addr=addr,
            )

    # raw bytes ----------------------------------------------------------
    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        return bytes(self._mv[addr : addr + length])

    def write(self, addr: int, payload: bytes | bytearray | memoryview) -> None:
        length = len(payload)
        self._check(addr, length)
        # mv slice assignment accepts any contiguous bytes-like and skips
        # the frombuffer wrapper — measurably cheaper for the small
        # payloads (headers, descriptors) that dominate this path
        if self.code_lines and length > 0:
            # per-line compare *before* the bytes land: redelivered code
            # (same function, new message) keeps its decode
            self._retire_changed(addr, memoryview(payload), length)
        self._mv[addr : addr + length] = payload

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        self._check(addr, length)
        self.data[addr : addr + length] = value & 0xFF
        if self.code_lines:
            self._retire_code(addr, length)

    # scalars (little-endian) ---------------------------------------------
    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return int.from_bytes(self._mv[addr : addr + 8], "little")

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        b = (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        mv = self._mv
        if self.code_lines:
            if mv[addr : addr + 8] == b:
                return  # identical bytes (e.g. GOT re-patch): keep decodes
            mv[addr : addr + 8] = b
            self._retire_code(addr, 8)
        else:
            mv[addr : addr + 8] = b

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return int.from_bytes(self._mv[addr : addr + 4], "little")

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        b = (value & 0xFFFFFFFF).to_bytes(4, "little")
        mv = self._mv
        if self.code_lines:
            if mv[addr : addr + 4] == b:
                return
            mv[addr : addr + 4] = b
            self._retire_code(addr, 4)
        else:
            mv[addr : addr + 4] = b

    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self._mv[addr]

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        v = value & 0xFF
        mv = self._mv
        if self.code_lines:
            if mv[addr] == v:
                return
            mv[addr] = v
            self._retire_code(addr, 1)
        else:
            mv[addr] = v

    def read_i64(self, addr: int) -> int:
        v = self.read_u64(addr)
        return v - (1 << 64) if v >= (1 << 63) else v

    def write_i64(self, addr: int, value: int) -> None:
        self.write_u64(addr, value & 0xFFFFFFFFFFFFFFFF)

    # checkpointing -------------------------------------------------------
    def snapshot(self, upto: int | None = None) -> tuple[int, bytes]:
        """Capture memory contents for a later :meth:`restore`.

        ``upto`` bounds the copy: callers that know the high-water mark of
        writes (the bump-allocator cursor) pass it so the snapshot covers
        only the touched prefix, not the whole (mostly zero) array.
        """
        upto = self.size if upto is None else upto
        if upto < 0 or upto > self.size:
            raise MachineError(f"snapshot bound {upto:#x} outside memory")
        return upto, self.data[:upto].tobytes()

    def restore(self, snap: tuple[int, bytes], dirty_upto: int | None = None
                ) -> None:
        """Rewind contents to a snapshot.

        ``dirty_upto`` is the current write high-water mark: bytes between
        the snapshot bound and it are zeroed (they were allocated after
        the snapshot and must read as fresh zeros again).  The predecoded
        ``code_lines`` cache is dropped wholesale — this path bypasses
        the per-write ``_retire_code`` invalidation contract.
        """
        upto, blob = snap
        self.data[:upto] = np.frombuffer(blob, dtype=np.uint8)
        end = self.size if dirty_upto is None else min(dirty_upto, self.size)
        if end > upto:
            self.data[upto:end] = 0
        self.code_lines.clear()

    # vector views --------------------------------------------------------
    def view_i64(self, addr: int, count: int) -> np.ndarray:
        """Zero-copy int64 view; requires 8-byte alignment.

        The view is writable, so any predecoded code overlapping it is
        conservatively retired up front (callers today only read)."""
        if addr % 8:
            raise MemoryFault(f"unaligned i64 view at {addr:#x}", addr=addr)
        self._check(addr, count * 8)
        if self.code_lines:
            self._retire_code(addr, count * 8)
        return self.data[addr : addr + count * 8].view(np.int64)


class BumpAllocator:
    """Aligned bump allocator over a PhysicalMemory region.

    No free(): simulation runs are short-lived and regions (libraries,
    mailboxes) live for the whole experiment.  ``reset`` rewinds wholesale.
    """

    def __init__(self, base: int, limit: int):
        if base % LINE:
            raise MachineError("allocator base must be line-aligned")
        if limit <= base:
            raise MachineError("allocator limit must exceed base")
        self.base = base
        self.limit = limit
        self.cursor = base

    def alloc(self, size: int, align: int = LINE) -> int:
        if size <= 0:
            raise MachineError(f"allocation size must be positive, got {size}")
        addr = align_up(self.cursor, align)
        if addr + size > self.limit:
            raise MachineError(
                f"allocator exhausted: need {size} at {addr:#x}, limit "
                f"{self.limit:#x}"
            )
        self.cursor = addr + size
        return addr

    @property
    def used(self) -> int:
        return self.cursor - self.base

    def reset(self) -> None:
        self.cursor = self.base

    def snapshot(self) -> int:
        return self.cursor

    def restore(self, snap: int) -> None:
        self.cursor = snap
