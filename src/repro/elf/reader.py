"""ELF64 image reader (the loader's parsing half)."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import ElfError
from . import consts as C
from .structs import Ehdr, ElfRela, ElfSym, Phdr, Shdr, StrTab


@dataclass
class ElfImage:
    """Parsed view over a shared-object byte image."""

    blob: bytes
    ehdr: Ehdr
    phdrs: list[Phdr]
    sections: list[Shdr]
    symbols: list[ElfSym]
    relocations: list[ElfRela]
    _by_name: dict[str, Shdr] = field(default_factory=dict)

    def section(self, name: str) -> Shdr:
        sh = self._by_name.get(name)
        if sh is None:
            raise ElfError(f"no section {name!r}")
        return sh

    def has_section(self, name: str) -> bool:
        return name in self._by_name

    def section_bytes(self, name: str) -> bytes:
        sh = self.section(name)
        if sh.sh_type == C.SHT_NOBITS:
            return b"\0" * sh.sh_size
        return self.blob[sh.sh_offset: sh.sh_offset + sh.sh_size]

    def symbol(self, name: str) -> ElfSym:
        for sym in self.symbols:
            if sym.name == name:
                return sym
        raise ElfError(f"no symbol {name!r}")

    def defined_symbols(self) -> list[ElfSym]:
        return [s for s in self.symbols if s.name and s.defined]

    def load_span(self) -> tuple[int, int]:
        """(min vaddr, max vaddr+memsz) over PT_LOAD segments."""
        loads = [p for p in self.phdrs if p.p_type == C.PT_LOAD]
        if not loads:
            raise ElfError("no loadable segments")
        lo = min(p.p_vaddr for p in loads)
        hi = max(p.p_vaddr + p.p_memsz for p in loads)
        return lo, hi


def read_elf(blob: bytes) -> ElfImage:
    """Parse and validate a CHAIN ELF64 shared object.

    Every malformed image raises :class:`ElfError`.  Table and string
    offsets are not range-checked one by one; the decode errors they
    cause (a struct read past the end, an offset too large to index
    with, a string without its terminator or not UTF-8) are converted
    here instead.
    """
    try:
        return _parse(blob)
    except (struct.error, ValueError, OverflowError) as exc:
        raise ElfError(f"malformed ELF image: {exc}") from exc


def _parse(blob: bytes) -> ElfImage:
    ehdr = Ehdr.decode(blob)
    if ehdr.e_machine != C.EM_CHAIN:
        raise ElfError(f"wrong machine {ehdr.e_machine:#x} (want EM_CHAIN)")
    if ehdr.e_type != C.ET_DYN:
        raise ElfError("only ET_DYN shared objects are supported")

    phdrs = [Phdr.decode(blob, ehdr.e_phoff + i * C.PHDR_SIZE)
             for i in range(ehdr.e_phnum)]
    sections = [Shdr.decode(blob, ehdr.e_shoff + i * C.SHDR_SIZE)
                for i in range(ehdr.e_shnum)]
    if ehdr.e_shstrndx >= len(sections):
        raise ElfError("bad e_shstrndx")
    shstr = sections[ehdr.e_shstrndx]
    for sh in sections:
        sh.name = StrTab.read(blob, shstr.sh_offset + sh.sh_name)

    by_name = {sh.name: sh for sh in sections if sh.name}

    symbols: list[ElfSym] = []
    if ".dynsym" in by_name:
        dynsym = by_name[".dynsym"]
        dynstr = by_name.get(".dynstr")
        if dynstr is None:
            raise ElfError(".dynsym without .dynstr")
        count = dynsym.sh_size // C.SYM_SIZE
        for i in range(count):
            sym = ElfSym.decode(blob, dynsym.sh_offset + i * C.SYM_SIZE)
            sym.name = StrTab.read(blob, dynstr.sh_offset + sym.st_name)
            symbols.append(sym)

    relocations: list[ElfRela] = []
    if ".rela.dyn" in by_name:
        rela = by_name[".rela.dyn"]
        for i in range(rela.sh_size // C.RELA_SIZE):
            relocations.append(
                ElfRela.decode(blob, rela.sh_offset + i * C.RELA_SIZE))

    img = ElfImage(blob=blob, ehdr=ehdr, phdrs=phdrs, sections=sections,
                   symbols=symbols, relocations=relocations)
    img._by_name = by_name
    return img
