"""ELF build/read roundtrips and loader/namespace behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amc import compile_amc
from repro.core.stdjams import build_std_package
from repro.elf import build_shared_object, consts as C, read_elf
from repro.errors import ElfError, UnresolvedSymbolError
from repro.isa import Vm, assemble
from repro.linker import Loader, Namespace
from tests.util import fresh_node

SIMPLE = """
    .global f
    f:
        movi a0, 7
        ret
"""

WITH_DATA = """
    .global get
    .extern tc_hash64
    get:
        adr t0, seed
        ld a0, 0(t0)
        ret
    .data
    .align 8
    seed: .quad 12345
    table: .quad get
    .bss
    scratch: .zero 64
"""


def build(source: str) -> bytes:
    return build_shared_object(assemble(source))


# The std package's library image: the shape installed packages have on
# disk, where a damaged file is outside input to read_elf.
STD_ELF = build_std_package().library_elf
_STD_EHDR = read_elf(STD_ELF).ehdr
_flip_bit = st.one_of(
    # ELF and program headers
    st.integers(0, 8 * (_STD_EHDR.e_phoff
                        + _STD_EHDR.e_phnum * C.PHDR_SIZE) - 1),
    # section headers
    st.integers(8 * _STD_EHDR.e_shoff, 8 * len(STD_ELF) - 1),
    # anywhere, symbol and string tables included
    st.integers(0, 8 * len(STD_ELF) - 1),
)


class TestElfFormat:
    def test_header_magic_and_machine(self):
        blob = build(SIMPLE)
        assert blob[:4] == b"\x7fELF"
        img = read_elf(blob)
        assert img.ehdr.e_machine == C.EM_CHAIN
        assert img.ehdr.e_type == C.ET_DYN

    def test_sections_present(self):
        img = read_elf(build(WITH_DATA))
        for name in (".text", ".got", ".data", ".bss", ".dynsym", ".dynstr",
                     ".rela.dyn", ".shstrtab"):
            assert img.has_section(name), name

    def test_text_bytes_roundtrip(self):
        om = assemble(SIMPLE)
        img = read_elf(build_shared_object(om))
        # GOTPC patching may alter LDG imms, but SIMPLE has none.
        assert img.section_bytes(".text") == om.text

    def test_symbols_carry_type_and_binding(self):
        img = read_elf(build(WITH_DATA))
        get = img.symbol("get")
        assert get.bind == C.STB_GLOBAL and get.type == C.STT_FUNC
        seed = img.symbol("seed")
        assert seed.type == C.STT_OBJECT and seed.bind == C.STB_LOCAL
        und = img.symbol("tc_hash64")
        assert not und.defined

    def test_got_sized_by_externs(self):
        img = read_elf(build(WITH_DATA))
        assert img.section(".got").sh_size == 8
        glob_dats = [r for r in img.relocations
                     if r.type == C.R_CHAIN_GLOB_DAT]
        assert len(glob_dats) == 1

    def test_load_segments_page_aligned_and_separated(self):
        img = read_elf(build(WITH_DATA))
        loads = [p for p in img.phdrs if p.p_type == C.PT_LOAD]
        assert len(loads) == 2
        rx, rw = loads
        assert rx.p_flags == (C.PF_R | C.PF_X)
        assert rw.p_flags == (C.PF_R | C.PF_W)
        assert rx.p_vaddr % 4096 == 0 and rw.p_vaddr % 4096 == 0
        assert rw.p_vaddr >= rx.p_vaddr + rx.p_filesz

    def test_bss_is_memsz_only(self):
        img = read_elf(build(WITH_DATA))
        rw = [p for p in img.phdrs if p.p_type == C.PT_LOAD][1]
        assert rw.p_memsz > rw.p_filesz

    def test_bad_magic_rejected(self):
        with pytest.raises(ElfError, match="magic"):
            read_elf(b"\x7fELV" + b"\0" * 100)

    def test_wrong_machine_rejected(self):
        blob = bytearray(build(SIMPLE))
        blob[18] = 0x3E  # x86-64
        with pytest.raises(ElfError, match="machine"):
            read_elf(bytes(blob))

    def test_truncated_rejected(self):
        with pytest.raises(ElfError):
            read_elf(b"\x7fELF\x02\x01")
        # every prefix of a real image parses or raises ElfError
        for n in range(len(STD_ELF)):
            try:
                read_elf(STD_ELF[:n])
            except ElfError:
                pass

    @settings(max_examples=400, deadline=None)
    @given(bits=st.lists(_flip_bit, min_size=1, max_size=3))
    def test_bit_flips_parse_or_raise_elf_error(self, bits):
        blob = bytearray(STD_ELF)
        for bit in bits:
            blob[bit >> 3] ^= 1 << (bit & 7)
        try:
            read_elf(bytes(blob))
        except ElfError:
            pass

    @settings(max_examples=20, deadline=None)
    @given(ret=st.integers(-1000, 1000))
    def test_property_build_read_roundtrip(self, ret):
        src = f".global f\nf:\n movi a0, {ret}\n ret"
        img = read_elf(build(src))
        assert img.symbol("f").defined


class TestLoader:
    def test_load_and_execute(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(build(SIMPLE), "libsimple.so")
        res = Vm(node, intrinsics=ns.intrinsics).call(lib.symbol("f"))
        assert res.ret == 7

    def test_text_pages_rx_data_pages_rw(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(build(WITH_DATA), "libdata.so")
        f = lib.symbol("get")
        node.pages.check_exec(f, 8)
        with pytest.raises(Exception):
            node.pages.check_write(f, 8)
        seed = lib.symbol("seed")
        node.pages.check_write(seed, 8)

    def test_data_and_bss_initialized(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(build(WITH_DATA), "libdata.so")
        assert node.mem.read_i64(lib.symbol("seed")) == 12345
        assert node.mem.read(lib.symbol("scratch"), 64) == b"\0" * 64

    def test_abs64_table_rebased(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(build(WITH_DATA), "libdata.so")
        assert node.mem.read_u64(lib.symbol("table")) == lib.symbol("get")

    def test_got_filled_with_native_intrinsic(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(build(WITH_DATA), "libdata.so")
        from repro.isa import native_address
        idx = ns.intrinsics.index_of("tc_hash64")
        assert node.mem.read_u64(lib.got_addr) == native_address(idx)
        assert lib.got_slots == ["tc_hash64"]

    def test_execution_reads_relocated_data(self):
        _, node = fresh_node()
        ns = Namespace()
        lib = Loader(node, ns).load(build(WITH_DATA), "libdata.so")
        res = Vm(node, intrinsics=ns.intrinsics).call(lib.symbol("get"))
        assert res.ret == 12345

    def test_unresolved_extern_raises(self):
        _, node = fresh_node()
        src = ".extern no_such_symbol\nf:\n ldg t0, no_such_symbol\n ret"
        with pytest.raises(UnresolvedSymbolError):
            Loader(node, Namespace()).load(build(src), "libbad.so")

    def test_cross_library_linking(self):
        """Library B calls a function exported by library A (remote-linking
        building block: same-name resolution through the namespace)."""
        _, node = fresh_node()
        ns = Namespace()
        loader = Loader(node, ns)
        liba = """
            .global provide
            provide:
                movi a0, 1000
                ret
        """
        libb = """
            .global consume
            .extern provide
            consume:
                addi sp, sp, -16
                st lr, 0(sp)
                ldg t0, provide
                callr t0
                addi a0, a0, 1
                ld lr, 0(sp)
                addi sp, sp, 16
                ret
        """
        loader.load(build(liba), "liba.so")
        libB = loader.load(build(libb), "libb.so")
        res = Vm(node, intrinsics=ns.intrinsics).call(libB.symbol("consume"))
        assert res.ret == 1001

    def test_first_definition_wins(self):
        _, node = fresh_node()
        ns = Namespace()
        loader = Loader(node, ns)
        v1 = ".global dup\ndup:\n movi a0, 1\n ret"
        v2 = ".global dup\ndup:\n movi a0, 2\n ret"
        l1 = loader.load(build(v1), "l1.so")
        loader.load(build(v2), "l2.so")
        assert ns.resolve("dup") == l1.symbol("dup")

    def test_same_name_library_cached(self):
        _, node = fresh_node()
        loader = Loader(node, Namespace())
        l1 = loader.load(build(SIMPLE), "lib.so")
        l2 = loader.load(build(SIMPLE), "lib.so")
        assert l1 is l2

    def test_dlsym_missing_raises(self):
        _, node = fresh_node()
        lib = Loader(node, Namespace()).load(build(SIMPLE), "lib.so")
        with pytest.raises(UnresolvedSymbolError):
            lib.symbol("ghost")

    def test_load_cost_positive_and_grows(self):
        _, node = fresh_node()
        loader = Loader(node, Namespace())
        small = loader.load(build(SIMPLE), "small.so")
        big_src = ".global f\nf:\n ret\n.bss\nbuf: .zero 100000"
        big = loader.load(build(big_src), "big.so")
        assert 0 < small.load_cost_ns < big.load_cost_ns


class TestAmcThroughElf:
    """The full static path: AMC source -> object -> ELF -> load -> run."""

    def test_compiled_jam_runs_from_loaded_library(self):
        _, node = fresh_node()
        ns = Namespace()
        result = compile_amc("""
            extern long tc_hash64(long x);
            long mix(long a, long b) { return tc_hash64(a) ^ tc_hash64(b); }
        """)
        blob = build_shared_object(result.module)
        lib = Loader(node, ns).load(blob, "libmix.so")
        vm = Vm(node, intrinsics=ns.intrinsics)
        r1 = vm.call(lib.symbol("mix"), (1, 2))
        r2 = vm.call(lib.symbol("mix"), (1, 2))
        r3 = vm.call(lib.symbol("mix"), (2, 1))
        assert r1.ret == r2.ret == r3.ret  # commutative via xor
        assert r1.ret != 0

    def test_global_state_persists_across_calls(self):
        _, node = fresh_node()
        ns = Namespace()
        result = compile_amc("""
            long counter = 0;
            long bump() { counter = counter + 1; return counter; }
        """)
        lib = Loader(node, ns).load(build_shared_object(result.module),
                                    "libctr.so")
        vm = Vm(node, intrinsics=ns.intrinsics)
        assert vm.call(lib.symbol("bump")).ret == 1
        assert vm.call(lib.symbol("bump")).ret == 2
        assert vm.call(lib.symbol("bump")).ret == 3
