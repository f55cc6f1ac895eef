"""State codec: roundtrips, legality enforcement, property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.refs import EntityRef
from repro.core.serialization import (
    check_serializable,
    decode,
    dumps,
    encode,
    loads,
    state_size_bytes,
)
from repro.core.errors import SerializationError


class TestCheckSerializable:
    def test_scalars_pass(self):
        for value in (1, 2.5, "x", True, None, b"abc"):
            check_serializable(value)

    def test_containers_pass(self):
        check_serializable({"a": [1, 2, (3, 4)], "b": {5, 6}})

    def test_entity_ref_passes(self):
        check_serializable({"ref": EntityRef("Item", "apple")})

    def test_open_file_rejected(self, tmp_path):
        handle = open(tmp_path / "f.txt", "w")
        try:
            with pytest.raises(SerializationError):
                check_serializable({"conn": handle})
        finally:
            handle.close()

    def test_lambda_rejected(self):
        with pytest.raises(SerializationError):
            check_serializable([lambda: 1])

    def test_arbitrary_object_rejected(self):
        class Widget:
            pass

        with pytest.raises(SerializationError) as excinfo:
            check_serializable({"w": Widget()})
        assert "Widget" in str(excinfo.value)

    def test_error_reports_path(self):
        with pytest.raises(SerializationError) as excinfo:
            check_serializable({"outer": [1, {"inner": object()}]})
        assert "outer" in str(excinfo.value)

    def test_non_scalar_dict_key_rejected(self):
        with pytest.raises(SerializationError):
            check_serializable({(1, 2): object()})


class TestRoundtrip:
    def test_plain_dict(self):
        state = {"name": "alice", "balance": 42, "tags": ["a", "b"]}
        assert loads(dumps(state)) == state

    def test_tuple_survives(self):
        assert loads(dumps((1, "x"))) == (1, "x")

    def test_set_survives(self):
        assert loads(dumps({1, 2, 3})) == {1, 2, 3}

    def test_bytes_survive(self):
        assert loads(dumps(b"\x00\xff")) == b"\x00\xff"

    def test_entity_ref_survives(self):
        ref = EntityRef("User", "alice")
        assert loads(dumps({"r": ref})) == {"r": ref}

    def test_non_string_dict_keys(self):
        value = {1: "a", (2, 3): "b"}
        assert loads(dumps(value)) == value

    @pytest.mark.parametrize("tag", ["__bytes__", "__ref__", "__tuple__",
                                     "__set__", "__kdict__"])
    def test_one_key_dict_spelled_like_a_tag(self, tag):
        # Found by test_roundtrip_property: {"__ref__": None} decoded as
        # an EntityRef and raised.
        for inner in (None, [], "00"):
            value = {"outer": {tag: inner}}
            assert loads(dumps(value)) == value

    def test_encode_rejects_object(self):
        with pytest.raises(SerializationError):
            encode(object())

    def test_decode_rejects_unknown(self):
        with pytest.raises(SerializationError):
            decode(object())

    def test_state_size_grows(self):
        small = state_size_bytes({"payload": "x" * 10})
        large = state_size_bytes({"payload": "x" * 1000})
        assert large > small


json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@given(json_like)
def test_roundtrip_property(value):
    assert loads(dumps(value)) == value


@given(json_like)
def test_check_accepts_whatever_encodes(value):
    check_serializable(value)  # must never raise on encodable values
