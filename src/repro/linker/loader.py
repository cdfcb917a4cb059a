"""Runtime loader: dlopen/dlsym for CHAIN shared objects.

Maps PT_LOAD segments into node memory at a fresh load bias, sets page
permissions from segment flags, applies the dynamic relocations the
builder left (GOT fills, rebases), and exports defined globals into the
process namespace — the standard POSIX dynamic-linking contract the paper
builds its remote-linking story on (§III).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..elf import consts as C
from ..elf.reader import ElfImage, read_elf
from ..elf.structs import Phdr
from ..errors import ElfError, LinkError, UnresolvedSymbolError
from ..machine.node import Node
from ..machine.pages import PROT_R, PROT_RW, PROT_RX
from .namespace import Namespace

# dlopen cost model: parsing + mapping overhead plus a copy at ~DRAM
# bandwidth.  Library loads happen at setup time (rieds are the paper's
# "heavyweight" objects), never inside measured message loops.
_DLOPEN_FIXED_NS = 4000.0
_COPY_NS_PER_BYTE = 1.0 / 21.3


@dataclass
class LoadedLibrary:
    name: str
    image: ElfImage
    bias: int
    symbols: dict[str, int] = field(default_factory=dict)
    got_addr: int | None = None
    got_slots: list[str] = field(default_factory=list)
    load_cost_ns: float = 0.0

    def symbol(self, name: str) -> int:
        """dlsym: absolute address of an exported symbol."""
        addr = self.symbols.get(name)
        if addr is None:
            raise UnresolvedSymbolError(name)
        return addr


def _prot_of_flags(flags: int) -> int:
    if flags & C.PF_X:
        return PROT_RX if not (flags & C.PF_W) else PROT_RW | PROT_RX
    if flags & C.PF_W:
        return PROT_RW
    return PROT_R


def _checked_loads(image: ElfImage) -> list[Phdr]:
    """The PT_LOAD segments, each checked to copy only bytes the image
    has into the span the segment occupies."""
    loads = [p for p in image.phdrs if p.p_type == C.PT_LOAD]
    for ph in loads:
        if ph.p_filesz > ph.p_memsz:
            raise ElfError(f"PT_LOAD at {ph.p_vaddr:#x}: p_filesz "
                           f"{ph.p_filesz:#x} exceeds p_memsz {ph.p_memsz:#x}")
        if ph.p_offset + ph.p_filesz > len(image.blob):
            raise ElfError(f"PT_LOAD at {ph.p_vaddr:#x}: file bytes end at "
                           f"{ph.p_offset + ph.p_filesz:#x}, past the "
                           f"{len(image.blob):#x}-byte image")
    return loads


class Loader:
    """Loads shared objects into one node's address space."""

    def __init__(self, node: Node, namespace: Namespace):
        self.node = node
        self.namespace = namespace
        self.loaded: dict[str, LoadedLibrary] = {}

    def load(self, blob: bytes, name: str, export: bool = True
             ) -> LoadedLibrary:
        """dlopen: map, relocate, and (optionally) export globals.

        Segments and relocations are checked, and every relocation
        resolved, before anything is allocated or written: a rejected
        image (:class:`ElfError`, :class:`LinkError`) leaves node memory,
        page permissions and the allocator cursor untouched.
        """
        if name in self.loaded:
            return self.loaded[name]
        image = read_elf(blob)
        loads = _checked_loads(image)
        writes = self._relocation_writes(image)
        lo, hi = image.load_span()
        span = hi - lo
        base = self.node.alloc.alloc(span, align=C.PAGE)
        bias = base - lo

        for ph in loads:
            seg = blob[ph.p_offset: ph.p_offset + ph.p_filesz]
            self.node.mem.write(bias + ph.p_vaddr, seg)
            if ph.p_memsz > ph.p_filesz:  # .bss
                self.node.mem.fill(bias + ph.p_vaddr + ph.p_filesz,
                                   ph.p_memsz - ph.p_filesz, 0)
            self.node.pages.set_prot(bias + ph.p_vaddr, ph.p_memsz,
                                     _prot_of_flags(ph.p_flags))

        self._write_relocations(writes, bias)

        lib = LoadedLibrary(name=name, image=image, bias=bias)
        if image.has_section(".got") and image.section(".got").sh_size:
            lib.got_addr = bias + image.section(".got").sh_addr
            lib.got_slots = [
                s.name for s in image.symbols[1:]
                if not s.defined and s.name
            ][: image.section(".got").sh_size // 8]
        for sym in image.defined_symbols():
            addr = bias + sym.st_value
            lib.symbols[sym.name] = addr
            if export and sym.bind == C.STB_GLOBAL:
                self.namespace.define(sym.name, addr, origin=name)
        lib.load_cost_ns = _DLOPEN_FIXED_NS + span * _COPY_NS_PER_BYTE
        self.loaded[name] = lib
        return lib

    def relink(self, lib: LoadedLibrary) -> None:
        """Re-apply a loaded library's dynamic relocations against the
        *current* namespace.  This is what makes replacing a library
        change the resolution of fixed symbolic names for code that is
        already loaded — the paper's remote-linking update story (§III).
        """
        self._write_relocations(self._relocation_writes(lib.image), lib.bias)

    def _relocation_writes(self, image: ElfImage
                           ) -> list[tuple[int, int, bool]]:
        """Check and resolve every dynamic relocation, writing nothing.

        Returns ``(site, value, rebase)`` per writing relocation: the
        u64 ``value``, plus the load bias when ``rebase``, goes to
        ``bias + site``.  Each site must lie inside one PT_LOAD segment
        and each symbol index inside ``.dynsym``.
        """
        loads = [p for p in image.phdrs if p.p_type == C.PT_LOAD]
        nsyms = len(image.symbols)
        writes = []
        for rela in image.relocations:
            rtype = rela.type
            if rtype == C.R_CHAIN_NONE:
                continue
            if rtype not in (C.R_CHAIN_GLOB_DAT, C.R_CHAIN_RELATIVE,
                             C.R_CHAIN_ABS64):
                raise LinkError(f"unknown relocation type {rtype}")
            site = rela.r_offset
            if not any(p.p_vaddr <= site and site + 8 <= p.p_vaddr + p.p_memsz
                       for p in loads):
                raise ElfError(f"relocation site {site:#x} outside every "
                               "PT_LOAD segment")
            if rtype == C.R_CHAIN_RELATIVE:
                writes.append((site, rela.r_addend, True))
                continue
            if rela.sym >= nsyms:
                raise ElfError(f"relocation symbol index {rela.sym} past "
                               f".dynsym ({nsyms} symbols)")
            sym = image.symbols[rela.sym]
            target = self.namespace.try_resolve(sym.name)
            if target is not None:
                writes.append((site, target + rela.r_addend, False))
            elif rtype == C.R_CHAIN_GLOB_DAT and sym.defined:
                # defined in this object itself
                writes.append((site, sym.st_value + rela.r_addend, True))
            else:
                raise UnresolvedSymbolError(sym.name)
        return writes

    def _write_relocations(self, writes: list[tuple[int, int, bool]],
                           bias: int) -> None:
        write_u64 = self.node.mem.write_u64
        for site, value, rebase in writes:
            write_u64(bias + site, value + bias if rebase else value)
