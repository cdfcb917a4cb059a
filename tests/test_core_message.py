"""Frame format and GOT-rewrite unit tests."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    F_INJECTED,
    Frame,
    count_got_accesses,
    frame_wire_size,
    pack_frame,
    rewrite_got_accesses,
    unpack_header,
)
from repro.errors import MailboxError, TwoChainsError
from repro.isa import Instr, Op, decode_program, encode_program


class TestFrameFormat:
    def test_local_one_int_message_is_64_bytes(self):
        """The paper's 1-integer Local Function message is 64 B."""
        assert frame_wire_size(0, 4) == 64

    def test_injected_one_int_indirect_put_is_1472_bytes(self):
        """The paper: Indirect Put code is 1408 B shipped; the 1-integer
        injected message is 1472 B."""
        assert frame_wire_size(1408, 4) == 1472

    def test_wire_size_rounds_to_64(self):
        for code, payload in ((0, 0), (8, 5), (100, 3), (1408, 4096)):
            assert frame_wire_size(code, payload) % 64 == 0

    def test_pack_unpack_roundtrip(self):
        f = Frame(package_id=0xAA55, element_id=3, flags=F_INJECTED,
                  seq=7, args=(1, 2), code=b"\x00" * 16,
                  payload=b"hello", gotp=0xBEEF)
        blob = pack_frame(f, 256)
        v = unpack_header(blob, frame_size=256)
        assert (v.package_id, v.element_id, v.seq) == (0xAA55, 3, 7)
        assert v.args == (1, 2)
        assert v.code_size == 16 and v.payload_size == 5
        assert v.gotp == 0xBEEF
        assert v.injected
        assert blob[v.payload_off: v.payload_off + 5] == b"hello"
        assert blob[255] == 7  # signal byte last

    def test_signal_byte_is_sequence_tag(self):
        blob = pack_frame(Frame(1, 0, seq=200), 64)
        assert blob[63] == 200

    def test_frame_too_big_for_slot_rejected(self):
        with pytest.raises(MailboxError, match="does not fit"):
            pack_frame(Frame(1, 0, payload=b"x" * 100), 64)

    def test_bad_seq_rejected(self):
        with pytest.raises(MailboxError, match="sequence"):
            pack_frame(Frame(1, 0, seq=0), 64)
        with pytest.raises(MailboxError, match="sequence"):
            pack_frame(Frame(1, 0, seq=256), 64)

    def test_bad_magic_rejected(self):
        """Bad headers raise MailboxError: wrong magic, a buffer shorter
        than the header, or section sizes that overrun the slot."""
        def header(code_size, payload_size):
            blob = bytearray(pack_frame(Frame(1, 0), 64))
            struct.pack_into("<II", blob, 16, code_size, payload_size)
            return bytes(blob)

        cases = [
            (b"\0" * 64, 64, "magic"),
            (b"", 64, "shorter than"),
            (pack_frame(Frame(1, 0), 64)[:39], 64, "shorter than"),
            # a 64 B frame claiming 64 KiB of code and 1 MiB of payload
            (header(64 * 1024, 1 << 20), 64, "only 64 fit"),
            (header(0, 64), 64, "claims 128 bytes"),
            (header(2**32 - 1, 2**32 - 1), 64, "only 64 fit"),
            # a fitting header in a buffer cut right after it
            (header(8, 0)[:40], 64, "claims 64 bytes.*only 40 fit"),
        ]
        for blob, frame_size, match in cases:
            with pytest.raises(MailboxError, match=match):
                unpack_header(blob, frame_size=frame_size)
        # the slot bound, not the buffer length, limits a mailbox frame
        big = pack_frame(Frame(1, 0, payload=b"x" * 100), 192)
        with pytest.raises(MailboxError, match="only 128 fit"):
            unpack_header(big + b"\0" * 64, frame_size=128)
        assert unpack_header(big + b"\0" * 64,
                             frame_size=192).payload_size == 100

    @settings(max_examples=50, deadline=None)
    @given(code=st.binary(max_size=200).filter(lambda b: len(b) % 8 == 0),
           payload=st.binary(max_size=300),
           seq=st.integers(1, 255),
           args=st.tuples(*(st.integers(0, 2**63),) * 2))
    def test_property_roundtrip(self, code, payload, seq, args):
        f = Frame(9, 1, flags=F_INJECTED if code else 0, seq=seq,
                  args=args, code=code, payload=payload)
        size = frame_wire_size(len(code), len(payload))
        blob = pack_frame(f, size)
        v = unpack_header(blob, frame_size=size)
        assert v.code_size == len(code)
        assert v.payload_size == len(payload)
        assert v.args == args
        assert blob[v.code_off: v.code_off + len(code)] == code
        assert blob[v.payload_off: v.payload_off + len(payload)] == payload


class TestGotRewrite:
    def test_ldg_becomes_ldgi_with_gotp_offset(self):
        prog = [
            Instr(Op.MOVI, rd=0, imm=1),
            Instr(Op.LDG, rd=8, rs2=2, imm=12345),
            Instr(Op.RET),
        ]
        out = decode_program(rewrite_got_accesses(encode_program(prog)))
        assert out[0] == prog[0]
        assert out[2] == prog[2]
        patched = out[1]
        assert patched.op is Op.LDGI
        assert patched.rd == 8 and patched.rs2 == 2
        # instruction at offset 8; GOTP cell at -8 from code start
        assert patched.imm == -8 - 8

    def test_rewrite_is_same_size(self):
        prog = encode_program([Instr(Op.LDG, rd=1, rs2=0, imm=4)] * 10)
        assert len(rewrite_got_accesses(prog)) == len(prog)

    def test_no_ldg_left_after_rewrite(self):
        prog = encode_program([Instr(Op.LDG, rd=1, rs2=i, imm=0)
                               for i in range(5)])
        out = rewrite_got_accesses(prog)
        assert count_got_accesses(out) == (0, 5)

    def test_non_got_code_untouched(self):
        prog = encode_program([Instr(Op.ADD, rd=1, rs1=2, rs2=3),
                               Instr(Op.RET)])
        assert rewrite_got_accesses(prog) == prog

    def test_unaligned_text_rejected(self):
        with pytest.raises(TwoChainsError):
            rewrite_got_accesses(b"\x00" * 12)

    def test_code_base_offset_shifts_imm(self):
        prog = encode_program([Instr(Op.LDG, rd=1, rs2=0, imm=0)])
        out = decode_program(rewrite_got_accesses(prog, code_base_offset=64))
        assert out[0].imm == -8 - 64
