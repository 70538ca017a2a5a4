"""Batch-equivalence harness: every drain window vs the serial server.

Running the SAME randomized operation sequence through the request
pipeline at K in {1, 2, 4, 16, 64} must reproduce, for every K, what
the pre-pipeline serial server produced for it (pinned in ``SERIAL``):

* byte-identical raw reply frames, per client, in order (sealed control
  bytes included -- so the reply-session IV sequence must match),
* an identical final store state (verified-decrypt readback digest),
* identical duplicate-reply caches (oid, request digest, cached sealed
  ack and cached payload per client channel).

K=1 is the one-frame window; every K > 1 batches.

Batching may only change *when* work happens, never *what* the client
observes.  The sequences deliberately include duplicate retransmissions
(cached-ack resends) and stale-oid replays (REPLAY rejections), because
those paths read and write per-channel state whose ordering a batched
drain could plausibly scramble.
"""

import hashlib
import random

import pytest

from repro.core.client import PrecursorClient
from repro.core.protocol import OpCode, Request, Response, Status
from repro.core.server import PrecursorServer, ServerConfig
from repro.crypto.keys import KeyGenerator

#: Batch windows the equivalence contract is tested at.
KS = (1, 2, 4, 16, 64)

#: sha256 digests (reply frames, final store, duplicate-reply cache) of
#: :func:`_run_sequence` per seed, computed on the serial request path
#: before the pipeline replaced it.
SERIAL = {
    3: (
        "74c2edd37e200e93aa1efe612c963c58a6816f000c0929f100d6c8173d68d7c8",
        "8a060af3258d99e53ebb551f87d28401659859c13cbec4bbb185200ab9496e62",
        "71d85ae7a6c360346cfe2f18f5c746805cc8619f39b616779e1ff89bc6be5ab7",
    ),
    17: (
        "61d56bea11da82f75415414b77ff93b2982795daad6213c0338ec70800582238",
        "8c6356e215ad43b864eb04440ac750c75d02df4356548d56edc9f6985f6ff632",
        "3782fd7e47255353a1247b719bebf65bcec354f3676f63306ca69813b03fae1b",
    ),
    29: (
        "cf9b207f3d6a05407c2ea491f50aec11f541d8016de0603774479f490e45754a",
        "b0a4d238fa5185430c4beebb5dc0c77c27bb11a92f5bc309acf09ee21d1b7064",
        "c961b4cde21903712c44aead362063b20bf8fccbce48ff52d78ba469338bf8fa",
    ),
}


def _stage(client, opcode, key, value=None):
    """Stage one sealed request without pumping; returns (control, payload).

    Mirrors what put()/get()/delete() build, minus the synchronous
    drain: staged submission is what lets the batched server see full
    windows instead of one frame per pump.
    """
    if opcode is OpCode.PUT:
        op_key = client.keygen.operation_key()
        payload = client.provider.payload_encrypt(op_key, value)
        control = client._next_control(OpCode.PUT, key, op_key)
    else:
        payload = None
        control = client._next_control(opcode, key)
    _resubmit(client, control, payload)
    return control, payload


def _resubmit(client, control, payload):
    """(Re-)seal and submit one control segment, like the retry engine.

    A real retransmission re-seals the same control data under a fresh
    IV and ships the current reply credit -- the duplicate filter
    matches on the *plaintext* digest (control blob + payload), while a
    verbatim old frame would be dropped at the credit-monotonicity gate
    before ever reaching the replay logic.
    """
    request = client._seal_control(control)
    if payload is not None:
        request = Request(
            client_id=request.client_id,
            sealed_control=request.sealed_control,
            payload=payload,
            reply_credit=request.reply_credit,
        )
    client._submit(request)


def _run_sequence(k, seed, ops=180, clients=3, wave=10, keyspace=24):
    """Drive one randomized sequence at batch window ``k``.

    Returns everything the equivalence contract compares, plus server
    stats proving the duplicate/replay paths actually fired.
    """
    server = PrecursorServer(config=ServerConfig(ecall_batch=k))
    sessions = [
        PrecursorClient(
            server,
            # Arithmetic ids (not the process-global allocator): the
            # client id feeds the transport AAD, so byte-identical
            # replies across runs in one process need identical ids.
            client_id=700 + i,
            keygen=KeyGenerator(50 + i),
            auto_pump=False,
            response_timeout_s=0.0,
        )
        for i in range(clients)
    ]
    rng = random.Random(seed)
    frames = [[] for _ in sessions]  # raw reply frames, arrival order

    def pump_and_collect(expected):
        server.process_pending()
        for idx, client in enumerate(sessions):
            got = 0
            while True:
                frame = client._reply_consumer.poll_one()
                if frame is None:
                    break
                frames[idx].append(frame)
                got += 1
            # Every submission gets exactly one reply (duplicates get
            # the cached ack; stale oids get a REPLAY rejection).
            assert got == expected[idx]

    first_op = [None] * clients  # a long-stale op: REPLAY fodder
    last_op = [None] * clients  # the latest op: dup-ack fodder
    i = 0
    while i < ops:
        expected = [0] * clients
        for _ in range(wave * clients):
            if i >= ops:
                break
            idx = i % clients
            client = sessions[idx]
            key = b"k%04d" % rng.randrange(keyspace)
            roll = rng.random()
            if roll < 0.45:
                value = bytes([i & 0xFF]) * (1 + rng.randrange(48))
                staged = _stage(client, OpCode.PUT, key, value)
            elif roll < 0.78:
                staged = _stage(client, OpCode.GET, key)
            elif roll < 0.88:
                staged = _stage(client, OpCode.DELETE, key)
            elif roll < 0.95 and last_op[idx] is not None:
                # Retransmit the latest op: the at-most-once filter must
                # resend the cached ack, not re-apply.
                staged = last_op[idx]
                _resubmit(client, *staged)
            elif first_op[idx] is not None:
                # Retransmit a long-stale op: REPLAY rejection.
                staged = first_op[idx]
                _resubmit(client, *staged)
            else:
                staged = _stage(client, OpCode.GET, key)
            if first_op[idx] is None:
                first_op[idx] = staged
            last_op[idx] = staged
            expected[idx] += 1
            i += 1
        pump_and_collect(expected)

    # Deterministic readback sweep: GET every key through the same
    # path.  Status + verified-decrypted value per key pin the final
    # store state; the raw frames also join the byte comparison.
    store = {}
    for j in range(keyspace):
        key = b"k%04d" % j
        client = sessions[j % clients]
        control = client._next_control(OpCode.GET, key)
        client._submit(client._seal_control(control))
        server.process_pending()
        frame = client._reply_consumer.poll_one()
        assert frame is not None
        frames[j % clients].append(frame)
        response = Response.decode(frame)
        reply = client._open_control(response)
        assert reply.oid == control.oid
        if reply.status is Status.OK:
            store[key] = client.provider.payload_decrypt(
                reply.k_operation, response.payload
            )
        else:
            assert reply.status is Status.NOT_FOUND
            store[key] = None

    reply_digest = hashlib.sha256()
    for idx, per_client in enumerate(frames):
        reply_digest.update(b"client%d:" % idx)
        for frame in per_client:
            reply_digest.update(len(frame).to_bytes(4, "big") + frame)

    dup_cache = []
    for client_id in sorted(server._channels):
        channel = server._channels[client_id]
        payload = channel.last_reply_payload
        dup_cache.append(
            (
                client_id,
                channel.last_oid,
                channel.last_digest,
                channel.last_reply_control.encode()
                if channel.last_reply_control is not None
                else None,
                (payload.ciphertext, payload.mac)
                if payload is not None
                else None,
            )
        )

    store_digest = hashlib.sha256(
        b";".join(
            key + b"=" + (value if value is not None else b"<absent>")
            for key, value in sorted(store.items())
        )
    ).hexdigest()
    return {
        "digests": (
            reply_digest.hexdigest(),
            store_digest,
            hashlib.sha256(repr(dup_cache).encode()).hexdigest(),
        ),
        "duplicate_replies": server.stats.duplicate_replies,
        "largest_cycle": server.obs.registry.get("server_batch_size").max,
    }


@pytest.fixture(scope="module")
def runs():
    """``_run_sequence(k, seed)``, computed once per (k, seed)."""
    cache = {}

    def fetch(k, seed):
        if (k, seed) not in cache:
            cache[k, seed] = _run_sequence(k, seed)
        return cache[k, seed]

    return fetch


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", sorted(SERIAL))
    def test_k1_is_byte_identical_to_serial(self, runs, seed):
        assert runs(1, seed)["digests"] == SERIAL[seed]

    @pytest.mark.parametrize("k", [k for k in KS if k > 1])
    def test_every_k_matches_serial(self, runs, k):
        for seed in sorted(SERIAL):
            assert runs(k, seed)["digests"] == SERIAL[seed], seed

    def test_same_k_same_seed_reproducible(self):
        first = _run_sequence(16, seed=41)
        second = _run_sequence(16, seed=41)
        assert first["digests"] == second["digests"]

    def test_sequences_exercise_the_duplicate_filter(self, runs):
        # The contract above is vacuous if no retransmission ever fired.
        for seed in sorted(SERIAL):
            assert runs(1, seed)["duplicate_replies"] > 0, seed

    def test_batched_runs_actually_batch(self, runs):
        assert runs(16, 29)["largest_cycle"] > 1, (
            "K=16 run never drained more than one frame per cycle -- the "
            "equivalence suite is not exercising real batches"
        )

    def test_different_seeds_differ(self, runs):
        # Sanity: the digests are sensitive enough to tell runs apart.
        assert runs(1, 3)["digests"][0] != runs(1, 17)["digests"][0]
