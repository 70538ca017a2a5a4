"""Batched client crypto: put_many/get_many on the batch provider calls.

``put_many``/``get_many`` encrypt, MAC, seal, open and verify each
window with one batch call per step.  These tests pin what must not
change because of that:

* the wire bytes -- every request frame and reply, digested against the
  one-request-at-a-time client that preceded the batch calls;
* error semantics -- the first failure in key order wins, a MAC
  failure is counted in ``integrity_failures`` as ``get()`` counts it,
  and a batch with an invalid key is refused before anything is sent.
"""

import hashlib

import pytest

from repro.core.client import PrecursorClient
from repro.core.server import PrecursorServer, ServerConfig
from repro.crypto.keys import KeyGenerator
from repro.errors import (
    IntegrityError,
    KeyNotFoundError,
    PrecursorError,
    ProtocolError,
)
from repro.shard import ShardedClient, ShardedCluster

#: sha256 digests of (request-ring writes, reply frames, returned values)
#: for :func:`_pinned_run`, computed with the client that sealed, opened
#: and verified one request at a time.
PINNED = (
    "35ceda936b6c4a4699a910a7e73d99656d500cbbb6f85ee46bf82ccbd12b76a3",
    "0ca62694863241a89eb12bd9e2527b0bedcff3add0f66f50b8b0516b1fc84738",
    "997a0714fbf07c45ae853e013a6bd885b18dab903e78dd16f40423eeb30e20a9",
)


def _pinned_run(ecall_batch):
    """put_many then get_many of 40 items (crossing the 32-item window)."""
    server = PrecursorServer(
        config=ServerConfig(ecall_batch=ecall_batch) if ecall_batch else None
    )
    client = PrecursorClient(
        server, client_id=4242, keygen=KeyGenerator(seed=1207)
    )
    ring = hashlib.sha256()
    write = client._producer._write_remote

    def record_write(offset, data):
        ring.update(offset.to_bytes(4, "big") + len(data).to_bytes(4, "big"))
        ring.update(data)
        write(offset, data)

    client._producer._write_remote = record_write
    replies = hashlib.sha256()
    poll_one = client._reply_consumer.poll_one

    def record_poll():
        frame = poll_one()
        if frame is not None:
            replies.update(len(frame).to_bytes(4, "big") + frame)
        return frame

    client._reply_consumer.poll_one = record_poll
    # Value lengths 0..70: empty, partial, block-aligned and multi-block.
    items = [
        (
            b"pin-%03d" % i,
            bytes((i * 37 + j) & 0xFF for j in range((i * 13) % 71)),
        )
        for i in range(40)
    ]
    assert client.put_many(items) == 40
    values = client.get_many([key for key, _value in items])
    assert values == [value for _key, value in items]
    digest = hashlib.sha256(
        b"".join(len(v).to_bytes(4, "big") + v for v in values)
    )
    return ring.hexdigest(), replies.hexdigest(), digest.hexdigest()


@pytest.mark.parametrize("ecall_batch", [0, 16])
def test_batched_windows_are_byte_identical_to_per_request(ecall_batch):
    assert _pinned_run(ecall_batch) == PINNED


def _tamper(server, key):
    server.payload_store.corrupt(server._table.get(key).ptr)


@pytest.fixture
def loaded():
    server = PrecursorServer()
    client = PrecursorClient(server, keygen=KeyGenerator(seed=8))
    keys = [b"key-%02d" % i for i in range(8)]
    client.put_many([(key, b"value-" + key) for key in keys])
    return server, client, keys


class TestGetManyIntegrity:
    def test_tampered_value_raises_and_is_counted(self, loaded):
        server, client, keys = loaded
        _tamper(server, keys[3])
        with pytest.raises(IntegrityError):
            client.get_many(keys)
        assert client.integrity_failures == 1
        # Untouched values still verify.
        assert client.get_many(keys[:3]) == [b"value-" + k for k in keys[:3]]

    def test_router_sees_the_batched_failure(self):
        cluster = ShardedCluster(shards=1, seed=4)
        router = ShardedClient(cluster)
        keys = [b"r-%02d" % i for i in range(6)]
        router.put_many([(key, b"v" + key) for key in keys])
        session = router._client(cluster.shards[0])
        _tamper(session.server, keys[2])
        with pytest.raises(IntegrityError):
            router.get_many(keys)
        assert router.integrity_failures == 1


class TestFirstFailureInKeyOrderWins:
    def test_missing_key_before_tampered_value(self, loaded):
        server, client, keys = loaded
        _tamper(server, keys[5])
        batch = keys[:2] + [b"ghost"] + keys[3:]
        with pytest.raises(KeyNotFoundError):
            client.get_many(batch)
        # The tampered value after the miss was never verified.
        assert client.integrity_failures == 0

    def test_tampered_value_before_missing_key(self, loaded):
        server, client, keys = loaded
        _tamper(server, keys[2])
        batch = keys[:5] + [b"ghost"] + keys[6:]
        with pytest.raises(IntegrityError):
            client.get_many(batch)
        assert client.integrity_failures == 1

    def test_invalid_key_sends_nothing(self, loaded):
        server, client, keys = loaded
        puts, gets, oid = server.stats.puts, server.stats.gets, client._oid
        with pytest.raises(ProtocolError):
            client.put_many([(keys[0], b"x"), (b"", b"y")])
        with pytest.raises(ProtocolError):
            client.get_many(keys + [b""])
        assert (server.stats.puts, server.stats.gets, client._oid) == (
            puts,
            gets,
            oid,
        )
        assert client.get_many(keys[:2]) == [b"value-" + k for k in keys[:2]]

    def test_put_many_raises_at_first_failed_oid(self):
        server = PrecursorServer(config=ServerConfig(tenant_isolation=True))
        owner = PrecursorClient(server, client_id=11)
        other = PrecursorClient(server, client_id=12)
        owner.put(b"owned-a", b"x")
        owner.put(b"owned-b", b"y")
        items = [(b"free-%d" % i, b"v") for i in range(8)]
        items[3] = (b"owned-a", b"stolen")
        items[6] = (b"owned-b", b"stolen")
        first_oid = other._oid + 1
        with pytest.raises(PrecursorError, match=f"at oid {first_oid + 3}:"):
            other.put_many(items)
        # The session stays in step with the server's replay filter.
        assert other.get_many([b"free-0", b"free-7"]) == [b"v", b"v"]
        assert owner.get(b"owned-a") == b"x"
