"""Wire protocol: codec roundtrips and malformed-frame rejection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    CONTROL_DATA_SIZE,
    END_SIGN,
    START_SIGN,
    ControlData,
    OpCode,
    Request,
    Response,
    ResponseControl,
    Status,
)
from repro.crypto.provider import EncryptedPayload, SealedMessage
from repro.errors import ProtocolError


class TestControlData:
    def test_put_roundtrip(self):
        control = ControlData(
            opcode=OpCode.PUT, oid=42, key=b"user:1", k_operation=b"k" * 32
        )
        assert ControlData.decode(control.encode()) == control

    def test_get_roundtrip_without_key_material(self):
        control = ControlData(opcode=OpCode.GET, oid=7, key=b"user:1")
        decoded = ControlData.decode(control.encode())
        assert decoded == control
        assert decoded.k_operation is None

    def test_put_requires_k_operation(self):
        with pytest.raises(ProtocolError):
            ControlData(opcode=OpCode.PUT, oid=1, key=b"k").encode()

    def test_rejects_empty_key(self):
        with pytest.raises(ProtocolError):
            ControlData(opcode=OpCode.GET, oid=1, key=b"").encode()

    def test_rejects_wrong_key_material_size(self):
        with pytest.raises(ProtocolError):
            ControlData(
                opcode=OpCode.PUT, oid=1, key=b"k", k_operation=b"short"
            ).encode()

    def test_rejects_truncated_blob(self):
        with pytest.raises(ProtocolError):
            ControlData.decode(b"\x01\x02")

    def test_rejects_unknown_opcode(self):
        control = ControlData(opcode=OpCode.GET, oid=1, key=b"k")
        blob = bytearray(control.encode())
        blob[0] = 99
        with pytest.raises(ProtocolError):
            ControlData.decode(bytes(blob))

    def test_rejects_trailing_bytes(self):
        blob = ControlData(opcode=OpCode.GET, oid=1, key=b"k").encode()
        with pytest.raises(ProtocolError):
            ControlData.decode(blob + b"extra")

    def test_value_roundtrip_keeps_empty_distinct_from_none(self):
        """The server-encryption PUT carries its value; ``b""`` is a value."""
        for value in (b"", b"v" * 300):
            control = ControlData(opcode=OpCode.PUT, oid=3, key=b"k", value=value)
            assert ControlData.decode(control.encode()) == control
        unset = ControlData(opcode=OpCode.PUT, oid=3, key=b"k", k_operation=b"o" * 32)
        assert ControlData.decode(unset.encode()).value is None
        # The field is encoded only when set: a Precursor segment is as long
        # as it always was.
        assert len(unset.encode()) == 12 + 32 + 1

    def test_only_a_put_carries_a_value(self):
        with pytest.raises(ProtocolError):
            ControlData(opcode=OpCode.GET, oid=1, key=b"k", value=b"v").encode()
        blob = ControlData(opcode=OpCode.PUT, oid=1, key=b"k", value=b"v").encode()
        blob = bytes([OpCode.DELETE]) + blob[1:]
        with pytest.raises(ProtocolError, match="only a PUT"):
            ControlData.decode(blob)

    def test_truncated_value_rejected(self):
        blob = ControlData(opcode=OpCode.PUT, oid=1, key=b"k", value=b"vv").encode()
        for cut in (1, 2, 5):
            with pytest.raises(ProtocolError):
                ControlData.decode(blob[:-cut])

    def test_nominal_size_matches_paper(self):
        """The paper quotes ~56 B of control data (§5.2)."""
        assert 50 <= CONTROL_DATA_SIZE <= 64
        control = ControlData(
            opcode=OpCode.PUT, oid=1, key=b"k" * 16, k_operation=b"o" * 32
        )
        assert len(control.encode()) == CONTROL_DATA_SIZE


class TestResponseControl:
    def test_ok_with_key_material(self):
        control = ResponseControl(
            status=Status.OK, oid=9, k_operation=b"k" * 32
        )
        assert ResponseControl.decode(control.encode()) == control

    def test_strict_mode_carries_mac(self):
        control = ResponseControl(
            status=Status.OK, oid=9, k_operation=b"k" * 32, mac=b"m" * 16
        )
        decoded = ResponseControl.decode(control.encode())
        assert decoded.mac == b"m" * 16

    def test_error_statuses(self):
        for status in (Status.NOT_FOUND, Status.REPLAY, Status.ERROR):
            control = ResponseControl(status=status, oid=3)
            assert ResponseControl.decode(control.encode()).status == status

    def test_value_roundtrip_keeps_empty_distinct_from_none(self):
        """The server-encryption GET reply carries the value itself."""
        for value in (None, b"", b"x" * 300):
            control = ResponseControl(status=Status.OK, oid=9, value=value)
            assert ResponseControl.decode(control.encode()) == control
        blob = ResponseControl(status=Status.OK, oid=9, value=b"xy").encode()
        with pytest.raises(ProtocolError):
            ResponseControl.decode(blob[:-1])

    def test_rejects_bad_material_sizes(self):
        with pytest.raises(ProtocolError):
            ResponseControl(status=Status.OK, oid=1, k_operation=b"x").encode()
        with pytest.raises(ProtocolError):
            ResponseControl(status=Status.OK, oid=1, mac=b"x").encode()


def _sealed(blob=b"s" * 40):
    return SealedMessage(iv=b"i" * 12, sealed=blob)


class TestRequestFraming:
    def test_put_request_roundtrip(self):
        request = Request(
            client_id=5,
            sealed_control=_sealed(),
            payload=EncryptedPayload(ciphertext=b"c" * 20, mac=b"m" * 16),
            reply_credit=17,
        )
        decoded = Request.decode(request.encode())
        assert decoded == request

    def test_get_request_roundtrip_no_payload(self):
        request = Request(client_id=5, sealed_control=_sealed())
        decoded = Request.decode(request.encode())
        assert decoded.payload is None
        assert decoded.reply_credit == 0

    def test_frame_delimiters(self):
        frame = Request(client_id=1, sealed_control=_sealed()).encode()
        assert frame[0] == START_SIGN
        assert frame[-1] == END_SIGN

    def test_missing_start_sign(self):
        frame = bytearray(Request(client_id=1, sealed_control=_sealed()).encode())
        frame[0] = 0x00
        with pytest.raises(ProtocolError, match="start_sign"):
            Request.decode(bytes(frame))

    def test_missing_end_sign(self):
        frame = bytearray(Request(client_id=1, sealed_control=_sealed()).encode())
        frame[-1] = 0x00
        with pytest.raises(ProtocolError, match="end_sign"):
            Request.decode(bytes(frame))

    def test_truncated_frame(self):
        frame = Request(
            client_id=1,
            sealed_control=_sealed(),
            payload=EncryptedPayload(ciphertext=b"c" * 50, mac=b"m" * 16),
        ).encode()
        with pytest.raises(ProtocolError):
            Request.decode(frame[:20] + frame[-1:])

    def test_segment_sizes(self):
        request = Request(
            client_id=1,
            sealed_control=_sealed(b"s" * 44),
            payload=EncryptedPayload(ciphertext=b"c" * 32, mac=b"m" * 16),
        )
        assert request.control_size() == 56
        assert request.payload_size() == 48

    def test_empty_value_put_roundtrip(self):
        request = Request(
            client_id=1,
            sealed_control=_sealed(),
            payload=EncryptedPayload(ciphertext=b"", mac=b"m" * 16),
        )
        decoded = Request.decode(request.encode())
        assert decoded.payload.ciphertext == b""


class TestResponseFraming:
    def test_response_with_payload_roundtrip(self):
        response = Response(
            sealed_control=_sealed(),
            payload=EncryptedPayload(ciphertext=b"v" * 33, mac=b"m" * 16),
        )
        assert Response.decode(response.encode()) == response

    def test_response_without_payload(self):
        response = Response(sealed_control=_sealed())
        assert Response.decode(response.encode()).payload is None

    def test_malformed_response(self):
        with pytest.raises(ProtocolError):
            Response.decode(b"\x00\x01")


@settings(max_examples=40, deadline=None)
@given(
    client_id=st.integers(min_value=0, max_value=2**32 - 1),
    credit=st.integers(min_value=0, max_value=2**32 - 1),
    # A real sealed segment is never shorter than its GCM tag (16 B);
    # the decoder rejects impossibly short ones by design.
    sealed=st.binary(min_size=16, max_size=120),
    value=st.one_of(st.none(), st.binary(min_size=0, max_size=200)),
)
def test_request_roundtrip_property(client_id, credit, sealed, value):
    payload = (
        None
        if value is None
        else EncryptedPayload(ciphertext=value, mac=b"m" * 16)
    )
    request = Request(
        client_id=client_id,
        sealed_control=SealedMessage(iv=b"i" * 12, sealed=sealed),
        payload=payload,
        reply_credit=credit,
    )
    assert Request.decode(request.encode()) == request


@settings(max_examples=40, deadline=None)
@given(
    oid=st.integers(min_value=0, max_value=2**63),
    key=st.binary(min_size=1, max_size=64),
    with_kop=st.booleans(),
)
def test_control_roundtrip_property(oid, key, with_kop):
    control = ControlData(
        opcode=OpCode.PUT if with_kop else OpCode.GET,
        oid=oid,
        key=key,
        k_operation=b"k" * 32 if with_kop else None,
    )
    assert ControlData.decode(control.encode()) == control

