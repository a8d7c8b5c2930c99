"""Tests for repro.net.wire."""

import pytest
from hypothesis import given, strategies as st

from repro.net import wire


json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.text(max_size=30), st.binary(max_size=30))

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=15)


class TestEncodeDecode:
    def test_scalar_roundtrip(self):
        for value in (None, True, 42, "text", 3.5):
            assert wire.decode(wire.encode(value)) == value

    def test_bytes_roundtrip(self):
        assert wire.decode(wire.encode(b"\x00\xff raw")) == b"\x00\xff raw"

    def test_nested_structure_roundtrip(self):
        value = {"key": [1, b"\x01\x02", {"inner": "x"}], "n": None}
        assert wire.decode(wire.encode(value)) == value

    def test_deterministic_key_order(self):
        assert wire.encode({"b": 1, "a": 2}) == wire.encode({"a": 2, "b": 1})

    def test_encoding_is_compact(self):
        assert b" " not in wire.encode({"a": [1, 2, 3]})

    def test_tuples_become_lists(self):
        assert wire.decode(wire.encode((1, 2))) == [1, 2]

    @given(json_values)
    def test_property_roundtrip(self, value):
        decoded = wire.decode(wire.encode(value))

        def normalise(item):
            if isinstance(item, tuple):
                return [normalise(x) for x in item]
            if isinstance(item, list):
                return [normalise(x) for x in item]
            if isinstance(item, dict):
                return {k: normalise(v) for k, v in item.items()}
            return item

        assert decoded == normalise(value)

    @given(json_values)
    def test_property_deterministic(self, value):
        assert wire.encode(value) == wire.encode(value)


class TestGoldenBytes:
    PAYLOAD = {
        "query": "café ☃ \U0001F600 \"quoted\"\n",
        "nested": {"z": (1, 2.5, -0.0, 1e-7, None),
                   "a": [b"\x00\xff", bytearray(b"ab")]},
        "key": b"\x01\x02\x03",
        "flags": [True, False, None],
        "score": 3.141592653589793,
        "big": 2**60,
    }
    # Sealed sizes, enclave meter charges and the traffic-analysis
    # figures all depend on these exact bytes.
    GOLDEN = (
        b'{"big":1152921504606846976,"flags":[true,false,null],'
        b'"key":{"__bytes__":"010203"},'
        b'"nested":{"a":[{"__bytes__":"00ff"},{"__bytes__":"6162"}],'
        b'"z":[1,2.5,-0.0,1e-07,null]},'
        b'"query":"caf\\u00e9 \\u2603 \\ud83d\\ude00 \\"quoted\\"\\n",'
        b'"score":3.141592653589793}')

    def test_encode_is_pinned(self):
        assert wire.encode(self.PAYLOAD) == self.GOLDEN

    def test_non_encodable_object_raises_type_error(self):
        with pytest.raises(TypeError):
            wire.encode({"bad": object()})

    def test_bytes_tag_nested_in_list_decodes_to_bytes(self):
        decoded = wire.decode(b'[1,{"__bytes__":"beef"},{"k":"v"}]')
        assert decoded == [1, b"\xbe\xef", {"k": "v"}]
