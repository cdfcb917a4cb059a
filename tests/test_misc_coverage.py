"""Coverage for smaller units: scoreboard, extern data relocs, ELF edges."""

import pytest

from repro.elf import build_shared_object, consts as C, read_elf
from repro.errors import ElfError
from repro.isa import Vm, assemble
from repro.linker import Loader, Namespace
from repro.sim import Scoreboard
from tests.util import fresh_node


class TestScoreboard:
    def test_counters_accumulate(self):
        board = Scoreboard()
        board.bump("x")
        board.bump("x", 4)
        assert board.count("x") == 5
        assert board.count("missing") == 0


class TestExternDataReloc:
    def test_abs64_against_extern_symbol(self):
        """`.quad extern_sym` resolves through the namespace at load."""
        provider = """
            .global shared_cell
            .data
            shared_cell: .quad 777
        """
        consumer = """
            .extern shared_cell
            .global read_it
            read_it:
                adr t0, ptr
                ld t0, 0(t0)       ; t0 = &shared_cell
                ld a0, 0(t0)
                ret
            .data
            .align 8
            ptr: .quad shared_cell
        """
        _, node = fresh_node()
        ns = Namespace()
        loader = Loader(node, ns)
        loader.load(build_shared_object(assemble(provider)), "libp.so")
        lib = loader.load(build_shared_object(assemble(consumer)), "libc.so")
        res = Vm(node, intrinsics=ns.intrinsics).call(lib.symbol("read_it"))
        assert res.ret == 777


class TestElfEdges:
    def test_section_bytes_nobits_is_zero(self):
        blob = build_shared_object(assemble(
            ".global f\nf:\n ret\n.bss\nbuf: .zero 32"))
        img = read_elf(blob)
        assert img.section_bytes(".bss") == b"\0" * 32

    def test_missing_section_raises(self):
        img = read_elf(build_shared_object(assemble("f:\n ret")))
        with pytest.raises(ElfError, match="no section"):
            img.section(".nonexistent")

    def test_missing_symbol_raises(self):
        img = read_elf(build_shared_object(assemble("f:\n ret")))
        with pytest.raises(ElfError, match="no symbol"):
            img.symbol("ghost")

    def test_load_span_covers_all_segments(self):
        img = read_elf(build_shared_object(assemble(
            "f:\n ret\n.data\nd: .quad 1")))
        lo, hi = img.load_span()
        for ph in img.phdrs:
            if ph.p_type == C.PT_LOAD:
                assert lo <= ph.p_vaddr
                assert ph.p_vaddr + ph.p_memsz <= hi

    def test_exec_from_bss_is_denied(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(
            build_shared_object(assemble("f:\n ret\n.bss\nb: .zero 64")),
            "lib.so")
        vm = Vm(node, intrinsics=ns.intrinsics)
        with pytest.raises(Exception, match="exec"):
            vm.call(lib.symbol("b"))


class TestNamespaceEdges:
    def test_origin_tracking(self):
        ns = Namespace()
        ns.define("foo", 0x1000, origin="libx.so")
        assert ns.origin_of("foo") == "libx.so"
        assert ns.origin_of("tc_memcpy") == "<native>"
        assert ns.origin_of("ghost") is None

    def test_names_include_natives_and_bindings(self):
        ns = Namespace()
        ns.define("custom", 0x2000)
        names = ns.names()
        assert "custom" in names and "tc_sum64" in names
