"""Precursor wire protocol: request/response framing and control data.

The defining idea of Precursor (paper §3.3, Figure 2) is that every request
splits into two segments:

- **control data** -- operation code, key item, one-time key ``K_operation``
  and the replay counter ``oid`` -- sealed with AES-GCM under the session
  key; only this segment ever enters the enclave;
- **payload data** -- the value encrypted client-side under ``K_operation``
  plus a CMAC over the ciphertext -- which stays in untrusted memory
  end-to-end.

On the wire a request additionally carries an ``opcode`` byte, a
``start_sign`` and an ``end_sign`` operand to detect the start and end of a
request in the ring-buffer slot (paper §4).  The opcode inside the sealed
control data is authoritative; the outer byte only routes the frame.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple, Optional

from repro.crypto.provider import EncryptedPayload, SealedMessage
from repro.errors import ProtocolError

__all__ = [
    "OpCode",
    "Status",
    "ControlData",
    "ResponseControl",
    "Request",
    "Response",
    "START_SIGN",
    "END_SIGN",
    "CONTROL_DATA_SIZE",
    "request_aad",
    "reply_aad",
]

#: Frame delimiters (paper §4: "a start_sign and an end_sign operand").
START_SIGN = 0xA5
END_SIGN = 0x5A

_MAC_SIZE = 16
_KOP_SIZE = 32
#: A sealed segment is at least an IV plus a GCM tag; anything shorter
#: cannot authenticate and must not reach the crypto.
_MIN_SEALED = 12 + 16
_END = bytes((END_SIGN,))
#: Payload-length word of a frame without a payload.
_NO_PAYLOAD = 0xFFFFFFFF

# Fixed heads of the four records.  Every decoder checks a head's length
# before unpacking it, so malformed frames from rogue clients surface as
# ProtocolError (the polling loop's drop-and-count path), never as a
# struct.error that would crash a trusted thread.
_CONTROL_HEAD = struct.Struct(">BQHB")  # opcode, oid, key_len, kop_len
_REPLY_HEAD = struct.Struct(">BQB")  # status, oid, kop_len
_REQUEST_HEAD = struct.Struct(">BIIH")  # start, client, credit, sealed_len
_RESPONSE_HEAD = struct.Struct(">BH")  # start, sealed_len
_U32 = struct.Struct(">I")


def request_aad(client_id: int) -> bytes:
    """AAD of a request's sealed control segment: the sender's id."""
    return _U32.pack(client_id)


def reply_aad(client_id: int) -> bytes:
    """AAD of a reply's sealed control segment: a direction tag and the
    addressee's id, so a request can never open as a reply."""
    return b"resp" + _U32.pack(client_id)


def _decode_value(blob: bytes, cursor: int, what: str) -> bytes:
    """Parse the optional trailing ``value_len u32 | value`` field at
    ``cursor`` (short of ``blob``'s end), which must end ``blob`` exactly."""
    if cursor + 4 > len(blob):
        raise ProtocolError(f"{what} truncated in its value length")
    (value_len,) = _U32.unpack_from(blob, cursor)
    if cursor + 4 + value_len != len(blob):
        raise ProtocolError(f"{what} length mismatch")
    return blob[cursor + 4 :]


def _decode_payload(blob: bytes, cursor: int, what: str):
    """Parse ``payload_len u32 | ciphertext | MAC`` (or the no-payload
    word) at ``cursor``: ``(payload or None, end)``."""
    if cursor + 4 > len(blob):
        raise ProtocolError(f"{what} truncated in its payload length")
    (payload_len,) = _U32.unpack_from(blob, cursor)
    cursor += 4
    if payload_len == _NO_PAYLOAD:
        return None, cursor
    mac_at = cursor + payload_len
    end = mac_at + _MAC_SIZE
    if end > len(blob):
        raise ProtocolError(f"{what} truncated in payload")
    return EncryptedPayload(blob[cursor:mac_at], blob[mac_at:end]), end


def _encode_payload(payload: Optional[EncryptedPayload]) -> bytes:
    """The payload field of a frame, as :func:`_decode_payload` reads it."""
    if payload is None:
        return _U32.pack(_NO_PAYLOAD)
    return _U32.pack(len(payload.ciphertext)) + payload.ciphertext + payload.mac


class OpCode(enum.IntEnum):
    """Key-value operations."""

    PUT = 1
    GET = 2
    DELETE = 3


class Status(enum.IntEnum):
    """Server response status codes (travel inside sealed control data)."""

    OK = 0
    NOT_FOUND = 1
    REPLAY = 2
    ERROR = 3


# Wire byte -> member: a dict lookup, not an enum call, per decoded record.
_OPCODES = {int(op): op for op in OpCode}
_STATUSES = {int(status): status for status in Status}


# The wire records are named tuples: immutable, and cheap to build,
# which counts on a path that builds several per frame.


class ControlData(NamedTuple):
    """Plaintext of the sealed request control segment (Algorithm 1, l.7).

    ``k_operation`` is present for a Precursor PUT (the fresh one-time
    key) and absent for GET/DELETE.  ``value`` is present only for a
    server-encryption PUT, whose value travels inside the sealed segment
    (paper §5.1); it is encoded only when not None, so a Precursor
    segment carries no trace of it.
    """

    opcode: OpCode
    oid: int
    key: bytes
    k_operation: Optional[bytes] = None
    value: Optional[bytes] = None

    def encode(self) -> bytes:
        """Serialise to the byte layout sealed under the session key.

        ``opcode u8 | oid u64 | key_len u16 | kop_len u8 | K_operation |
        key | [value_len u32 | value]``.
        """
        key, kop, value = self.key, self.k_operation, self.value
        if not key:
            raise ProtocolError("empty key")
        if len(key) > 0xFFFF:
            raise ProtocolError(f"key too long: {len(key)} bytes")
        if self.opcode is OpCode.PUT:
            if kop is None and value is None:
                raise ProtocolError(
                    "PUT control data requires K_operation or a value"
                )
        elif value is not None:
            raise ProtocolError("only a PUT carries a value")
        if kop is None:
            kop = b""
        elif len(kop) != _KOP_SIZE:
            raise ProtocolError(
                f"K_operation must be {_KOP_SIZE} bytes, got {len(kop)}"
            )
        head = _CONTROL_HEAD.pack(self.opcode, self.oid, len(key), len(kop))
        if value is None:
            return head + kop + key
        return head + kop + key + _U32.pack(len(value)) + value

    @classmethod
    def decode(cls, blob: bytes) -> "ControlData":
        """Parse the sealed-and-opened control segment."""
        if len(blob) < _CONTROL_HEAD.size:
            raise ProtocolError("control data truncated")
        opcode_raw, oid, key_len, kop_len = _CONTROL_HEAD.unpack_from(blob)
        opcode = _OPCODES.get(opcode_raw)
        if opcode is None:
            raise ProtocolError(f"unknown opcode {opcode_raw}")
        cursor = _CONTROL_HEAD.size
        k_operation = None
        if kop_len:
            if kop_len != _KOP_SIZE:
                raise ProtocolError(f"bad K_operation length {kop_len}")
            k_operation = blob[cursor : cursor + kop_len]
            cursor += kop_len
        end = cursor + key_len
        if end > len(blob):
            raise ProtocolError("control data length mismatch")
        value = None
        if end != len(blob):
            value = _decode_value(blob, end, "control data")
            if opcode is not OpCode.PUT:
                raise ProtocolError("only a PUT carries a value")
        return cls(opcode, oid, blob[cursor:end], k_operation, value)


#: Nominal size of the control segment for a PUT with a 16-byte key:
#: opcode+oid+lengths (12) + K_op (32) + key (16) -- the paper's ~56 B.
CONTROL_DATA_SIZE = 12 + _KOP_SIZE + 16


class ResponseControl(NamedTuple):
    """Plaintext of the sealed response control segment.

    A Precursor GET reply carries the one-time key so the client can
    verify and decrypt the untrusted payload; in strict-integrity mode
    (paper §3.9) it also carries the enclave-held MAC.  A
    server-encryption GET reply carries the value itself instead, encoded
    only when not None.
    """

    status: Status
    oid: int
    k_operation: Optional[bytes] = None
    mac: Optional[bytes] = None
    value: Optional[bytes] = None

    def encode(self) -> bytes:
        """Serialise to the sealed-response byte layout.

        ``status u8 | oid u64 | kop_len u8 | K_operation | mac_len u8 |
        MAC | [value_len u32 | value]``.
        """
        kop = self.k_operation or b""
        if kop and len(kop) != _KOP_SIZE:
            raise ProtocolError(f"bad K_operation length {len(kop)}")
        mac = self.mac or b""
        if mac and len(mac) != _MAC_SIZE:
            raise ProtocolError(f"bad MAC length {len(mac)}")
        blob = (
            _REPLY_HEAD.pack(self.status, self.oid, len(kop))
            + kop
            + bytes((len(mac),))
            + mac
        )
        if self.value is None:
            return blob
        return blob + _U32.pack(len(self.value)) + self.value

    @classmethod
    def decode(cls, blob: bytes) -> "ResponseControl":
        """Parse the sealed-and-opened response control segment."""
        if len(blob) < _REPLY_HEAD.size:
            raise ProtocolError("response control truncated")
        status_raw, oid, kop_len = _REPLY_HEAD.unpack_from(blob)
        status = _STATUSES.get(status_raw)
        if status is None:
            raise ProtocolError(f"unknown status {status_raw}")
        cursor = _REPLY_HEAD.size
        k_operation = blob[cursor : cursor + kop_len] if kop_len else None
        cursor += kop_len
        if cursor >= len(blob):
            raise ProtocolError("response control truncated")
        mac_len = blob[cursor]
        cursor += 1
        mac = blob[cursor : cursor + mac_len] if mac_len else None
        cursor += mac_len
        if cursor > len(blob):
            raise ProtocolError("response control length mismatch")
        value = None
        if cursor != len(blob):
            value = _decode_value(blob, cursor, "response control")
        return cls(status, oid, k_operation, mac, value)


class Request(NamedTuple):
    """A framed request as it sits in the server's ring buffer slot.

    ``reply_credit`` piggybacks the client's reply-ring consumption count so
    the server's reply producer regains slots without a dedicated message --
    flow-control state is not confidential, so it rides outside the sealed
    segment (cf. §3.8's periodic one-sided credit updates).
    """

    client_id: int
    sealed_control: SealedMessage
    payload: Optional[EncryptedPayload] = None
    reply_credit: int = 0

    def encode(self) -> bytes:
        """Frame: start | client | credit | sealed | payload? | end."""
        iv, sealed = self.sealed_control
        payload = self.payload
        if payload is not None and len(payload.mac) != _MAC_SIZE:
            raise ProtocolError("payload MAC must be 16 bytes")
        return b"".join((
            _REQUEST_HEAD.pack(
                START_SIGN,
                self.client_id,
                self.reply_credit,
                len(iv) + len(sealed),
            ),
            iv,
            sealed,
            _encode_payload(payload),
            _END,
        ))

    @classmethod
    def decode(cls, blob: bytes) -> "Request":
        """Parse a ring slot's frame; :class:`ProtocolError` if malformed."""
        if len(blob) < 12 or blob[0] != START_SIGN:
            raise ProtocolError("bad request frame: missing start_sign")
        if blob[-1] != END_SIGN:
            raise ProtocolError("bad request frame: missing end_sign")
        _, client_id, reply_credit, sealed_len = _REQUEST_HEAD.unpack_from(blob)
        cursor = _REQUEST_HEAD.size
        end = cursor + sealed_len
        if end > len(blob):
            raise ProtocolError("request frame truncated in control segment")
        if sealed_len < _MIN_SEALED:
            raise ProtocolError("sealed control segment impossibly short")
        payload, after = _decode_payload(blob, end, "request frame")
        if after + 1 != len(blob):
            raise ProtocolError("request frame length mismatch")
        return cls(
            client_id,
            SealedMessage(blob[cursor : cursor + 12], blob[cursor + 12 : end]),
            payload,
            reply_credit,
        )

    def control_size(self) -> int:
        """Bytes of the control segment (what enters the enclave)."""
        return self.sealed_control.size()

    def payload_size(self) -> int:
        """Bytes of the payload segment (what stays untrusted)."""
        return self.payload.size() if self.payload else 0


class Response(NamedTuple):
    """A framed response written back into the client's reply buffer."""

    sealed_control: SealedMessage
    payload: Optional[EncryptedPayload] = None

    def encode(self) -> bytes:
        """Frame: start | sealed | payload? | end."""
        iv, sealed = self.sealed_control
        return b"".join((
            _RESPONSE_HEAD.pack(START_SIGN, len(iv) + len(sealed)),
            iv,
            sealed,
            _encode_payload(self.payload),
            _END,
        ))

    @classmethod
    def decode(cls, blob: bytes) -> "Response":
        """Parse a reply slot's frame; :class:`ProtocolError` if malformed."""
        if len(blob) < 4 or blob[0] != START_SIGN:
            raise ProtocolError("bad response frame: missing start_sign")
        if blob[-1] != END_SIGN:
            raise ProtocolError("bad response frame: missing end_sign")
        _, sealed_len = _RESPONSE_HEAD.unpack_from(blob)
        cursor = _RESPONSE_HEAD.size
        end = cursor + sealed_len
        if end > len(blob) or sealed_len < _MIN_SEALED:
            raise ProtocolError("response sealed segment truncated or short")
        payload, after = _decode_payload(blob, end, "response frame")
        if after + 1 != len(blob):
            raise ProtocolError("response frame length mismatch")
        return cls(
            SealedMessage(blob[cursor : cursor + 12], blob[cursor + 12 : end]),
            payload,
        )
