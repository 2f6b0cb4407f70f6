"""LEB128 encoding/decoding: units and roundtrip properties."""

import pytest
from hypothesis import given, strategies as st

from repro.wasm import leb128
from repro.wasm.errors import DecodeError


class TestUnsigned:
    def test_zero(self):
        assert leb128.encode_unsigned(0) == b"\x00"

    def test_single_byte_max(self):
        assert leb128.encode_unsigned(127) == b"\x7f"

    def test_two_bytes(self):
        assert leb128.encode_unsigned(128) == b"\x80\x01"

    def test_known_value(self):
        # canonical example from the DWARF spec
        assert leb128.encode_unsigned(624485) == b"\xe5\x8e\x26"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            leb128.encode_unsigned(-1)

    def test_decode_redundant_encoding(self):
        # non-minimal but in-range encodings are legal
        value, pos = leb128.decode_unsigned(b"\x80\x00", 0)
        assert value == 0 and pos == 2

    def test_decode_overlong_rejected(self):
        with pytest.raises(DecodeError):
            leb128.decode_unsigned(b"\x80\x80\x80\x80\x80\x01", 0, 32)

    def test_decode_out_of_range_rejected(self):
        # 2**32 needs 5 bytes with a high bit set in the last one
        with pytest.raises(DecodeError):
            leb128.decode_unsigned(b"\x80\x80\x80\x80\x10", 0, 32)

    def test_decode_truncated(self):
        with pytest.raises(DecodeError):
            leb128.decode_unsigned(b"\x80", 0)

    def test_decode_stops_at_end(self):
        assert leb128.decode_unsigned(b"\x80\x01", 0, 32, end=2) == (128, 2)
        with pytest.raises(DecodeError, match="truncated LEB128 integer"):
            leb128.decode_unsigned(b"\x80\x01", 0, 32, end=1)
        with pytest.raises(DecodeError, match="truncated LEB128 integer"):
            leb128.decode_signed(b"\xff\x7f", 0, 32, end=1)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_roundtrip_u32(self, value):
        encoded = leb128.encode_unsigned(value)
        decoded, pos = leb128.decode_unsigned(encoded, 0, 32)
        assert decoded == value and pos == len(encoded)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_roundtrip_u64(self, value):
        encoded = leb128.encode_unsigned(value)
        decoded, pos = leb128.decode_unsigned(encoded, 0, 64)
        assert decoded == value and pos == len(encoded)


class TestSigned:
    def test_zero(self):
        assert leb128.encode_signed(0) == b"\x00"

    def test_minus_one(self):
        assert leb128.encode_signed(-1) == b"\x7f"

    def test_known_value(self):
        assert leb128.encode_signed(-123456) == b"\xc0\xbb\x78"

    def test_sign_extension_boundary(self):
        # 63 fits in one byte, 64 needs two (sign bit)
        assert len(leb128.encode_signed(63)) == 1
        assert len(leb128.encode_signed(64)) == 2
        assert len(leb128.encode_signed(-64)) == 1
        assert len(leb128.encode_signed(-65)) == 2

    def test_decode_truncated(self):
        with pytest.raises(DecodeError):
            leb128.decode_signed(b"\xff", 0)

    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1))
    def test_roundtrip_s32(self, value):
        encoded = leb128.encode_signed(value)
        decoded, pos = leb128.decode_signed(encoded, 0, 32)
        assert decoded == value and pos == len(encoded)

    @given(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1))
    def test_roundtrip_s64(self, value):
        encoded = leb128.encode_signed(value)
        decoded, pos = leb128.decode_signed(encoded, 0, 64)
        assert decoded == value and pos == len(encoded)

    def test_decode_out_of_range_rejected(self):
        with pytest.raises(DecodeError):
            # encodes 2**31, one past s32 max
            leb128.decode_signed(b"\x80\x80\x80\x80\x08", 0, 32)
