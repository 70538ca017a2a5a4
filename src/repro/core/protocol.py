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
from dataclasses import dataclass
from typing import Optional

from repro.crypto.provider import EncryptedPayload, SealedMessage
from repro.errors import ProtocolError

def _checked_unpack(fmt, data):
    """struct.unpack that reports truncation as a protocol violation.

    Malformed frames from rogue clients must surface as ProtocolError (the
    polling loop's drop-and-count path), never as a struct.error that
    would crash a trusted thread.
    """
    try:
        return struct.unpack(fmt, data)
    except struct.error as exc:
        raise ProtocolError(f"truncated field: {exc}") from exc


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


def request_aad(client_id: int) -> bytes:
    """AAD of a request's sealed control segment: the sender's id."""
    return struct.pack(">I", client_id)


def reply_aad(client_id: int) -> bytes:
    """AAD of a reply's sealed control segment: a direction tag and the
    addressee's id, so a request can never open as a reply."""
    return b"resp" + struct.pack(">I", client_id)


def _encode_value(value: Optional[bytes]) -> bytes:
    """The optional trailing ``value_len u32 | value`` field of a sealed
    segment: nothing at all when ``value`` is None."""
    if value is None:
        return b""
    return struct.pack(">I", len(value)) + value


def _decode_value(blob: bytes, cursor: int, what: str) -> Optional[bytes]:
    """Parse the optional trailing value field at ``cursor``, which must
    end ``blob`` exactly."""
    if cursor == len(blob):
        return None
    (value_len,) = _checked_unpack(">I", blob[cursor : cursor + 4])
    if cursor + 4 + value_len != len(blob):
        raise ProtocolError(f"{what} length mismatch")
    return blob[cursor + 4 :]


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


@dataclass(frozen=True)
class ControlData:
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
        """Serialise to the byte layout sealed under the session key."""
        if not self.key:
            raise ProtocolError("empty key")
        if len(self.key) > 0xFFFF:
            raise ProtocolError(f"key too long: {len(self.key)} bytes")
        has_kop = self.k_operation is not None
        if self.opcode is OpCode.PUT and not has_kop and self.value is None:
            raise ProtocolError("PUT control data requires K_operation or a value")
        if self.opcode is not OpCode.PUT and self.value is not None:
            raise ProtocolError("only a PUT carries a value")
        if has_kop and len(self.k_operation) != _KOP_SIZE:
            raise ProtocolError(
                f"K_operation must be {_KOP_SIZE} bytes, got {len(self.k_operation)}"
            )
        head = struct.pack(
            ">BQH", int(self.opcode), self.oid, len(self.key)
        )
        kop = self.k_operation if has_kop else b""
        return head + bytes([len(kop)]) + kop + self.key + _encode_value(self.value)

    @classmethod
    def decode(cls, blob: bytes) -> "ControlData":
        """Parse the sealed-and-opened control segment."""
        if len(blob) < 12:
            raise ProtocolError("control data truncated")
        opcode_raw, oid, key_len = _checked_unpack(">BQH", blob[:11])
        try:
            opcode = OpCode(opcode_raw)
        except ValueError as exc:
            raise ProtocolError(f"unknown opcode {opcode_raw}") from exc
        kop_len = blob[11]
        cursor = 12
        k_operation = None
        if kop_len:
            if kop_len != _KOP_SIZE:
                raise ProtocolError(f"bad K_operation length {kop_len}")
            k_operation = blob[cursor : cursor + kop_len]
            cursor += kop_len
        key = blob[cursor : cursor + key_len]
        if len(key) != key_len:
            raise ProtocolError("control data length mismatch")
        value = _decode_value(blob, cursor + key_len, "control data")
        if value is not None and opcode is not OpCode.PUT:
            raise ProtocolError("only a PUT carries a value")
        return cls(
            opcode=opcode, oid=oid, key=key, k_operation=k_operation, value=value
        )


#: Nominal size of the control segment for a PUT with a 16-byte key:
#: opcode+oid+lengths (12) + K_op (32) + key (16) -- the paper's ~56 B.
CONTROL_DATA_SIZE = 12 + _KOP_SIZE + 16


@dataclass(frozen=True)
class ResponseControl:
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
        """Serialise to the sealed-response byte layout."""
        kop = self.k_operation or b""
        if kop and len(kop) != _KOP_SIZE:
            raise ProtocolError(f"bad K_operation length {len(kop)}")
        mac = self.mac or b""
        if mac and len(mac) != _MAC_SIZE:
            raise ProtocolError(f"bad MAC length {len(mac)}")
        return (
            struct.pack(">BQ", int(self.status), self.oid)
            + bytes([len(kop)])
            + kop
            + bytes([len(mac)])
            + mac
            + _encode_value(self.value)
        )

    @classmethod
    def decode(cls, blob: bytes) -> "ResponseControl":
        if len(blob) < 10:
            raise ProtocolError("response control truncated")
        status_raw, oid = _checked_unpack(">BQ", blob[:9])
        try:
            status = Status(status_raw)
        except ValueError as exc:
            raise ProtocolError(f"unknown status {status_raw}") from exc
        cursor = 9
        kop_len = blob[cursor]
        cursor += 1
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
        value = _decode_value(blob, cursor, "response control")
        return cls(
            status=status, oid=oid, k_operation=k_operation, mac=mac, value=value
        )


@dataclass(frozen=True)
class Request:
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
        sealed_blob = self.sealed_control.iv + self.sealed_control.sealed
        parts = [
            struct.pack(
                ">BIIH",
                START_SIGN,
                self.client_id,
                self.reply_credit,
                len(sealed_blob),
            ),
            sealed_blob,
        ]
        if self.payload is not None:
            if len(self.payload.mac) != _MAC_SIZE:
                raise ProtocolError("payload MAC must be 16 bytes")
            parts.append(struct.pack(">I", len(self.payload.ciphertext)))
            parts.append(self.payload.ciphertext)
            parts.append(self.payload.mac)
        else:
            parts.append(struct.pack(">I", 0xFFFFFFFF))
        parts.append(bytes([END_SIGN]))
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "Request":
        if len(blob) < 12 or blob[0] != START_SIGN:
            raise ProtocolError("bad request frame: missing start_sign")
        if blob[-1] != END_SIGN:
            raise ProtocolError("bad request frame: missing end_sign")
        _, client_id, reply_credit, sealed_len = _checked_unpack(
            ">BIIH", blob[:11]
        )
        cursor = 11
        sealed_blob = blob[cursor : cursor + sealed_len]
        if len(sealed_blob) != sealed_len:
            raise ProtocolError("request frame truncated in control segment")
        if sealed_len < 12 + 16:
            # A sealed segment is at least an IV plus a GCM tag; anything
            # shorter cannot authenticate and must not reach the crypto.
            raise ProtocolError("sealed control segment impossibly short")
        cursor += sealed_len
        (payload_len,) = _checked_unpack(">I", blob[cursor : cursor + 4])
        cursor += 4
        payload = None
        if payload_len != 0xFFFFFFFF:
            ciphertext = blob[cursor : cursor + payload_len]
            cursor += payload_len
            mac = blob[cursor : cursor + _MAC_SIZE]
            cursor += _MAC_SIZE
            if len(ciphertext) != payload_len or len(mac) != _MAC_SIZE:
                raise ProtocolError("request frame truncated in payload")
            payload = EncryptedPayload(ciphertext=ciphertext, mac=mac)
        if cursor + 1 != len(blob):
            raise ProtocolError("request frame length mismatch")
        return cls(
            client_id=client_id,
            sealed_control=SealedMessage(
                iv=sealed_blob[:12], sealed=sealed_blob[12:]
            ),
            payload=payload,
            reply_credit=reply_credit,
        )

    def control_size(self) -> int:
        """Bytes of the control segment (what enters the enclave)."""
        return self.sealed_control.size()

    def payload_size(self) -> int:
        """Bytes of the payload segment (what stays untrusted)."""
        return self.payload.size() if self.payload else 0


@dataclass(frozen=True)
class Response:
    """A framed response written back into the client's reply buffer."""

    sealed_control: SealedMessage
    payload: Optional[EncryptedPayload] = None

    def encode(self) -> bytes:
        """Frame: start | sealed | payload? | end."""
        sealed_blob = self.sealed_control.iv + self.sealed_control.sealed
        parts = [
            struct.pack(">BH", START_SIGN, len(sealed_blob)),
            sealed_blob,
        ]
        if self.payload is not None:
            parts.append(struct.pack(">I", len(self.payload.ciphertext)))
            parts.append(self.payload.ciphertext)
            parts.append(self.payload.mac)
        else:
            parts.append(struct.pack(">I", 0xFFFFFFFF))
        parts.append(bytes([END_SIGN]))
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "Response":
        if len(blob) < 4 or blob[0] != START_SIGN:
            raise ProtocolError("bad response frame: missing start_sign")
        if blob[-1] != END_SIGN:
            raise ProtocolError("bad response frame: missing end_sign")
        _, sealed_len = _checked_unpack(">BH", blob[:3])
        cursor = 3
        sealed_blob = blob[cursor : cursor + sealed_len]
        if len(sealed_blob) != sealed_len or sealed_len < 12 + 16:
            raise ProtocolError("response sealed segment truncated or short")
        cursor += sealed_len
        (payload_len,) = _checked_unpack(">I", blob[cursor : cursor + 4])
        cursor += 4
        payload = None
        if payload_len != 0xFFFFFFFF:
            ciphertext = blob[cursor : cursor + payload_len]
            cursor += payload_len
            mac = blob[cursor : cursor + _MAC_SIZE]
            cursor += _MAC_SIZE
            if len(ciphertext) != payload_len or len(mac) != _MAC_SIZE:
                raise ProtocolError("response frame truncated in payload")
            payload = EncryptedPayload(ciphertext=ciphertext, mac=mac)
        if cursor + 1 != len(blob):
            raise ProtocolError("response frame length mismatch")
        return cls(
            sealed_control=SealedMessage(
                iv=sealed_blob[:12], sealed=sealed_blob[12:]
            ),
            payload=payload,
        )
