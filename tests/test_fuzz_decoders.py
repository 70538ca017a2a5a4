"""Decoder fuzzing: arbitrary bytes must never crash a trusted thread.

The server's polling loop drops malformed frames by catching
:class:`ProtocolError`.  Any *other* exception escaping a decoder would
crash the trusted thread -- a denial-of-service an attacker with ring
access could trigger at will.  These properties pin that down for every
codec in the system.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    END_SIGN,
    START_SIGN,
    ControlData,
    Request,
    Response,
    ResponseControl,
)
from repro.errors import ProtocolError

_DECODERS = [
    ControlData.decode,
    ResponseControl.decode,
    Request.decode,
    Response.decode,
]


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(min_size=0, max_size=300))
def test_random_bytes_raise_only_protocol_errors(blob):
    for decode in _DECODERS:
        try:
            decode(blob)
        except ProtocolError:
            pass  # the one allowed failure mode


@settings(max_examples=80, deadline=None)
@given(
    blob=st.binary(min_size=2, max_size=200),
)
def test_framed_garbage_raises_only_protocol_errors(blob):
    """Garbage wearing valid delimiters must still fail safely."""
    framed = bytes([START_SIGN]) + blob + bytes([END_SIGN])
    for decode in (Request.decode, Response.decode):
        try:
            decode(framed)
        except ProtocolError:
            pass


@settings(max_examples=60, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=120),
    flip_at=st.integers(min_value=0, max_value=119),
)
def test_bit_flipped_valid_frames_fail_safely(data, flip_at):
    """Take a VALID frame, flip one byte anywhere: decode either still
    succeeds (flip hit a free-form field) or raises ProtocolError."""
    from repro.crypto.provider import EncryptedPayload, SealedMessage

    frame = bytearray(
        Request(
            client_id=7,
            sealed_control=SealedMessage(iv=b"i" * 12, sealed=data),
            payload=EncryptedPayload(ciphertext=b"c" * 24, mac=b"m" * 16),
            reply_credit=3,
        ).encode()
    )
    frame[flip_at % len(frame)] ^= 0xA7
    try:
        Request.decode(bytes(frame))
    except ProtocolError:
        pass


class TestShortSealedSegment:
    def test_short_iv_frame_is_dropped_not_crashing(self, pair):
        """Regression: a frame whose sealed segment is shorter than
        IV+tag used to escape as ConfigurationError and kill the polling
        loop; it must be dropped as a protocol error."""
        server, client = pair
        frame = (
            struct.pack(">BIIH", START_SIGN, client.client_id, 0, 5)
            + b"abcde"
            + struct.pack(">I", 0xFFFFFFFF)
            + bytes([END_SIGN])
        )
        channel = server._channels[client.client_id]
        consumer = channel.request_consumer
        seq = consumer._next_seq
        offset = consumer.layout.slot_offset(seq - 1)
        channel.request_region.write_local(
            offset, struct.pack(">II", len(frame), seq) + frame
        )
        server.process_pending()  # must not raise
        assert server.stats.protocol_errors == 1


class TestServerSurvivesFuzzedFrames:
    def test_server_drops_fuzzed_ring_contents(self, pair):
        """End to end: write hostile bytes straight into the ring; the
        server must count errors and keep serving."""
        import random

        server, client = pair
        rng = random.Random(1234)
        channel = server._channels[client.client_id]
        consumer = channel.request_consumer
        for _ in range(25):
            hostile = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 120))
            )
            seq = consumer._next_seq
            offset = consumer.layout.slot_offset(seq - 1)
            channel.request_region.write_local(
                offset, struct.pack(">II", len(hostile), seq) + hostile
            )
            server.process_pending()
        assert (
            server.stats.protocol_errors + server.stats.auth_failures >= 25
        )
        # A fresh client still gets service.
        from repro.core import PrecursorClient

        survivor = PrecursorClient(server, client_id=7777)
        survivor.put(b"alive", b"yes")
        assert survivor.get(b"alive") == b"yes"
