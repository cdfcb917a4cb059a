"""Page-permission table (R/W/X) for a node's physical memory.

Two-Chains' compact message layout marks mailbox pages RWX; the §V security
reconfiguration splits code (RX) from data (RW).  The CHAIN VM enforces X on
instruction fetch and W on stores through this table, so those
configurations are functionally distinguishable, not just labels.
"""

from __future__ import annotations

from ..errors import MachineError, MemoryFault

PAGE_SIZE = 4096

PROT_NONE = 0
PROT_R = 1
PROT_W = 2
PROT_X = 4
PROT_RW = PROT_R | PROT_W
PROT_RX = PROT_R | PROT_X
PROT_RWX = PROT_R | PROT_W | PROT_X

_PROT_NAMES = {PROT_R: "R", PROT_W: "W", PROT_X: "X"}


def prot_str(prot: int) -> str:
    return "".join(n for bit, n in _PROT_NAMES.items() if prot & bit) or "-"


class PageTable:
    """Per-page permission bits over a physical address range."""

    def __init__(self, mem_size: int):
        if mem_size % PAGE_SIZE:
            raise MachineError("memory size must be page-aligned")
        self.mem_size = mem_size
        # bytearray, not numpy: permission checks are one scalar index
        # on the VM's per-memory-op path, where bytearray indexing is a
        # plain int fetch
        self.prot = bytearray(mem_size // PAGE_SIZE)

    def set_prot(self, addr: int, length: int, prot: int) -> None:
        """Set permissions for all pages overlapping [addr, addr+length)."""
        if addr < 0 or addr + length > self.mem_size:
            raise MachineError(f"mprotect out of range: {addr:#x}+{length}")
        first = addr // PAGE_SIZE
        last = (addr + length - 1) // PAGE_SIZE
        self.prot[first : last + 1] = bytes([prot & 0xFF]) * (last + 1 - first)

    def snapshot(self) -> bytes:
        return bytes(self.prot)

    def restore(self, snap: bytes) -> None:
        self.prot[:] = snap

    def _check(self, addr: int, length: int, need: int, kind: str) -> None:
        if addr < 0 or addr + length > self.mem_size:
            raise MemoryFault(
                f"{kind} out of range: [{addr:#x}, {addr + length:#x})",
                addr=addr,
                kind=kind,
            )
        first = addr // PAGE_SIZE
        last = (addr + length - 1) // PAGE_SIZE
        if first == last:  # fast path: the overwhelmingly common case
            if self.prot[first] & need == need:
                return
            raise MemoryFault(
                f"{kind} denied at {addr:#x} (need {prot_str(need)})",
                addr=addr,
                kind=kind,
            )
        pages = self.prot[first : last + 1]
        if any(p & need != need for p in pages):
            raise MemoryFault(
                f"{kind} denied at {addr:#x} (need {prot_str(need)})",
                addr=addr,
                kind=kind,
            )

    def check_read(self, addr: int, length: int = 1) -> None:
        self._check(addr, length, PROT_R, "read")

    def check_write(self, addr: int, length: int = 1) -> None:
        self._check(addr, length, PROT_W, "write")

    def check_exec(self, addr: int, length: int = 1) -> None:
        self._check(addr, length, PROT_X, "exec")
