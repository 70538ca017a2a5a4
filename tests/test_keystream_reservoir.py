"""Keystream reservoirs on the single-op transport path.

Each :class:`~repro.crypto.keys.SessionKey` holds two reservoirs of
precomputed GCM masks (E_K(J0) plus the first counter blocks): one for
its own next IVs (seal) and one for the peer's (open).  These tests pin
what must not change because of them -- the wire bytes of a single-op
run -- and the reservoir's own contract: when it hits, when it misses,
when it refills, and what the enclave is charged for it.
"""

import hashlib

import pytest

from repro.core.client import PrecursorClient
from repro.core.protocol import Response
from repro.core.server import PrecursorServer, ServerConfig
from repro.crypto.engine import get_engine
from repro.crypto.fastcrypto import FastAesGcm
from repro.crypto.keys import (
    RESERVOIR_BYTES,
    RESERVOIR_IVS,
    KeyGenerator,
    SessionKey,
)
from repro.crypto.provider import CryptoProvider, SealedMessage
from repro.errors import AuthenticationError
from repro.obs.exporters import lint_prometheus, prometheus_text

#: sha256 digests of (request-ring writes, reply frames, returned values)
#: for :func:`_pinned_run`, computed with the client and server that
#: sealed and opened every control segment with per-message scalar AES.
PINNED = (
    "3a2d20ff86b7bcc9232ce786f7129726cef9fc2d2d1f6dc384bbdf83faaab22c",
    "98cf1697b5f7b3d8451e5fedc53be1f80e011667149de8f120b04fe2474e010c",
    "0d4a7f4b212ca1d67c8df518f92cc753ffb02b5b37fc781672e14ae4d0536779",
)


def _pinned_run():
    """30 rounds of put/get/delete with one reconnect and one duplicate."""
    server = PrecursorServer()
    client = PrecursorClient(
        server,
        client_id=1616,
        keygen=KeyGenerator(seed=1616),
        max_retries=2,
    )
    ring = hashlib.sha256()
    replies = hashlib.sha256()
    values = hashlib.sha256()

    def record():
        # reconnect() builds fresh rings, so the taps go on again after it.
        write = client._producer._write_remote

        def record_write(offset, data):
            ring.update(offset.to_bytes(4, "big") + len(data).to_bytes(4, "big"))
            ring.update(data)
            write(offset, data)

        client._producer._write_remote = record_write
        poll_one = client._reply_consumer.poll_one

        def record_poll():
            frame = poll_one()
            if frame is not None:
                replies.update(len(frame).to_bytes(4, "big") + frame)
            return frame

        client._reply_consumer.poll_one = record_poll

    duplicated = []

    def duplicate_once(frame):
        duplicated.append(frame)
        return len(duplicated) == 1

    record()
    client.put(b"res-seed-key-000", b"seed")
    previous = b"res-seed-key-000"
    for r in range(30):
        # 16 B keys keep every control segment within the reservoir's
        # four blocks; round 9's 40 B key makes a 6-block PUT control.
        key = (b"res-key-%02d-" % r).ljust(40 if r == 9 else 16, b"k")
        value = bytes((r * 29 + j) & 0xFF for j in range((r * 11) % 50))
        if r == 12:
            client.submit_fault_hook = duplicate_once
        client.put(key, value)
        client.submit_fault_hook = None
        got = client.get(key)
        values.update(len(got).to_bytes(4, "big") + got)
        client.delete(previous)
        previous = key
        if r == 17:
            client.reconnect()
            record()
    assert len(duplicated) >= 1
    assert server.stats.duplicate_replies == 1
    assert client.reconnects == 1
    return ring.hexdigest(), replies.hexdigest(), values.hexdigest()


class TestSingleOpWireBytes:
    def test_frames_match_the_per_message_pin(self):
        assert _pinned_run() == PINNED


@pytest.fixture
def refills(monkeypatch):
    """Every ``FastAesGcm.masks`` call over a full reservoir's worth of
    IVs, as ``(IV prefix, first IV counter)``: the refill passes."""
    calls = []
    masks = FastAesGcm.masks

    def recording(self, ivs, nblocks):
        if len(ivs) == RESERVOIR_IVS:
            first = ivs[0]
            calls.append(
                (int.from_bytes(first[:4], "big"), int.from_bytes(first[4:], "big"))
            )
        return masks(self, ivs, nblocks)

    monkeypatch.setattr(FastAesGcm, "masks", recording)
    return calls


def _pair(client_id=77, **server_kwargs):
    server = PrecursorServer(**server_kwargs)
    client = PrecursorClient(
        server, client_id=client_id, keygen=KeyGenerator(seed=client_id)
    )
    return server, client


def _counts(reservoir):
    return reservoir.hits, reservoir.misses


class TestHitsAndRefills:
    def test_eighty_sequential_puts(self, refills):
        server, client = _pair()
        for i in range(80):
            client.put(b"seq-key-%08d" % i, b"v%d" % i)
        served = server._sessions[client.client_id]
        for endpoint in (client.session, served):
            # Seal: the call whose refill covers it misses, the other
            # seven of each eight hit.
            assert _counts(endpoint.seal_reservoir) == (70, 10)
            # Open: the first message takes the direct path; every
            # refill after that lands before its IVs arrive.
            assert _counts(endpoint.open_reservoir) == (79, 1)
        requests = [c for p, c in refills if p == client.client_id]
        replies = [c for p, c in refills if p != client.client_id]
        # Client seal refills start at each miss's IV (1, 9, ...); the
        # server's open refills at the successor of an opened one (2, 10, ...).
        assert sorted(requests) == sorted(
            [1 + 8 * i for i in range(10)] + [2 + 8 * i for i in range(10)]
        )
        assert sorted(replies) == sorted(requests)

    def test_first_call_after_reconnect_misses(self):
        _server, client = _pair()
        for i in range(5):
            client.put(b"pre-key-%08d" % i, b"v")
        before = client.session
        client.reconnect()
        assert client.session is not before
        assert _counts(client.session.seal_reservoir) == (0, 0)
        client.put(b"post-key-0000000", b"v")
        assert _counts(client.session.seal_reservoir) == (0, 1)
        assert _counts(client.session.open_reservoir) == (0, 1)
        client.put(b"post-key-0000001", b"v")
        assert _counts(client.session.seal_reservoir) == (1, 1)
        assert _counts(client.session.open_reservoir) == (1, 1)

    def test_flipped_tag_at_held_iv_costs_no_refill(self, refills):
        _server, client = _pair()
        # After reply 1 the client holds the server's IVs 2..9; the
        # tampered reply is the 9th, whose genuine twin would refill.
        for i in range(8):
            client.put(b"tag-key-%08d" % i, b"v%d" % i)
        reservoir = client.session.open_reservoir
        hits, misses = _counts(reservoir)

        def reply_refills():
            return [c for p, c in refills if p != client.client_id]

        # The server's seal refill at 1, the client's open refill at 2.
        assert reply_refills() == [1, 2]
        poll_one = client._reply_consumer.poll_one

        def flip_tag_once():
            frame = poll_one()
            client._reply_consumer.poll_one = poll_one
            response = Response.decode(frame)
            sealed = bytearray(response.sealed_control.sealed)
            sealed[-1] ^= 0x01
            return Response(
                sealed_control=SealedMessage(
                    iv=response.sealed_control.iv, sealed=bytes(sealed)
                ),
                payload=response.payload,
            ).encode()

        client._reply_consumer.poll_one = flip_tag_once
        with pytest.raises(AuthenticationError):
            client.put(b"tag-key-tampered", b"x")
        assert _counts(reservoir) == (hits + 1, misses)  # its IV was held
        # Only the server's seal refilled, at reply 9; the failed open
        # left the client's reservoir empty.
        assert reply_refills() == [1, 2, 9]
        assert reservoir._masks == []
        # Reply 10 takes the direct path, opens, and refills from 11.
        assert client.get(b"tag-key-00000003") == b"v3"
        assert _counts(reservoir) == (hits + 1, misses + 1)
        assert reply_refills() == [1, 2, 9, 11]

    def test_replayed_frame_costs_no_refill(self, refills):
        server = PrecursorServer()
        client = PrecursorClient(
            server,
            client_id=78,
            keygen=KeyGenerator(seed=78),
            max_retries=1,
        )
        for i in range(3):
            client.put(b"dup-key-%08d" % i, b"v")
        reservoir = server._sessions[client.client_id].open_reservoir
        hits, misses = _counts(reservoir)
        passes = len(refills)
        client.submit_fault_hook = lambda frame: True  # post it twice
        client.put(b"dup-key-replayed", b"v")
        client.submit_fault_hook = None
        # The original drew its held IV; the authentic duplicate took the
        # direct path, and nothing anywhere refilled.
        assert server.stats.replay_rejections == 1
        assert _counts(reservoir) == (hits + 1, misses + 1)
        assert len(refills) == passes

    def test_long_control_misses_and_matches_reference(self):
        provider = CryptoProvider(KeyGenerator(seed=3), engine="fast")
        session = SessionKey(key=KeyGenerator(seed=4).session_key(), client_id=12)
        provider.transport_seal(session, b"c" * 60, b"aad")
        assert _counts(session.seal_reservoir) == (0, 1)
        # A PUT control with a 40 B key: 44 + 40 = 84 B, six blocks.
        control = bytes(range(84))
        message = provider.transport_seal(session, control, b"aad")
        assert _counts(session.seal_reservoir) == (0, 2)
        reference = get_engine("reference").gcm(session.key)
        assert message.sealed == reference.seal(message.iv, control, b"aad")
        # The long message dropped only its own entry.
        provider.transport_seal(session, b"c" * 60, b"aad")
        assert _counts(session.seal_reservoir) == (1, 2)


class TestEndpointsStayApart:
    def test_each_side_refills_only_for_its_own_calls(self, refills):
        # The client seals and opens a window of 32 in one lane pass
        # each, bypassing its reservoirs; the K=1 server opens and seals
        # the same frames one at a time, drawing from its own.
        server, client = _pair(config=ServerConfig(ecall_batch=1))
        client.put_many([(b"win-key-%08d" % i, b"v") for i in range(32)])
        served = server._sessions[client.client_id]
        reservoirs = [
            client.session.seal_reservoir,
            client.session.open_reservoir,
            served.seal_reservoir,
            served.open_reservoir,
        ]
        assert len({id(r) for r in reservoirs}) == 4
        assert _counts(client.session.seal_reservoir) == (0, 0)
        assert _counts(client.session.open_reservoir) == (0, 0)
        assert _counts(served.open_reservoir) == (31, 1)
        assert _counts(served.seal_reservoir) == (28, 4)
        requests = sorted(c for p, c in refills if p == client.client_id)
        replies = sorted(c for p, c in refills if p != client.client_id)
        assert requests == [2, 10, 18, 26]  # the server's opens only
        assert replies == [1, 9, 17, 25]  # the server's seals only

    def test_server_metrics_count_its_own_calls(self):
        server, client = _pair()
        for i in range(12):
            client.put(b"met-key-%08d" % i, b"v")
        registry = server.obs.registry
        labels = {"enclave": server.enclave.name}
        served = server._sessions[client.client_id]
        for direction in ("seal", "open"):
            reservoir = getattr(served, f"{direction}_reservoir")
            hits = registry.get(
                "crypto_keystream_hits_total", {**labels, "direction": direction}
            )
            misses = registry.get(
                "crypto_keystream_misses_total", {**labels, "direction": direction}
            )
            assert (hits.value, misses.value) == _counts(reservoir)
        assert lint_prometheus(prometheus_text(registry), require_help=True) == []


class TestEnclaveCharge:
    TAG = "transport_reservoir"

    def test_charged_per_client_that_sent_a_message(self):
        server = PrecursorServer()
        clients = [
            PrecursorClient(server, client_id=cid, keygen=KeyGenerator(seed=cid))
            for cid in (5, 6, 7)
        ]
        allocator = server.enclave.allocator
        # Admission alone charges nothing.
        assert allocator.bytes_for(self.TAG) == 0
        clients[0].put(b"charge-key-00000", b"v")
        assert allocator.bytes_for(self.TAG) == RESERVOIR_BYTES == 1280
        clients[1].put(b"charge-key-00001", b"v")
        assert allocator.bytes_for(self.TAG) == 2 * RESERVOIR_BYTES
        clients[0].reconnect()
        clients[0].put(b"charge-key-00002", b"v")
        assert allocator.bytes_for(self.TAG) == 2 * RESERVOIR_BYTES

    def test_restart_builds_a_new_enclave_that_charges_again(self):
        server, client = _pair()
        client.put(b"restart-key-0000", b"v")
        server.crash()
        server.restart()
        assert server.enclave.allocator.bytes_for(self.TAG) == 0
        client._oid = client.reconnect() - 1  # the fresh filter's resync
        client.put(b"restart-key-0001", b"v")
        assert server.enclave.allocator.bytes_for(self.TAG) == RESERVOIR_BYTES

    def test_table1_loader_is_never_charged(self, monkeypatch):
        from repro.bench import experiments

        servers = []
        init = PrecursorServer.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            servers.append(self)

        monkeypatch.setattr(PrecursorServer, "__init__", recording)
        experiments.run_table1(quick=True)
        assert servers
        for server in servers:
            assert server.enclave.allocator.bytes_for(self.TAG) == 0
