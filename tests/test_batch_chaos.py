"""Batching under fault injection: chaos, tampering, and poisoned frames.

Three contracts:

* The fault-injection seams survive the batched drain: seeded chaos
  runs (drop/duplicate/delay/corruption) verify clean against the
  shadow model at every batch window, and are deterministic --
  same seed, same K, same fingerprint.
* The pre-pipeline serial server's behaviour is *pinned*: the fault-log
  fingerprints and state digests below were captured on the serial
  request path before the pipeline existed, and K=1 must still
  reproduce them byte-for-byte.  A refactor that shifts even one fault
  judgement changes these hashes.
* A corrupted frame poisons only itself: the server drops the
  unauthenticatable frame silently and every other frame in the same
  drained batch completes normally.
"""

import pytest

from repro.core.client import PrecursorClient
from repro.core.protocol import OpCode, Response, Status
from repro.core.server import PrecursorServer, ServerConfig
from repro.crypto.keys import KeyGenerator
from repro.faults.harness import run_chaos
from repro.shard import ClusterSpec

SCHEDULE = "drop:0.05,duplicate:0.04,delay:0.05,corrupt_payload:0.02"

#: Captured on the serial request path before the batched pipeline
#: landed (seed, fault_fingerprint, state_digest) for SCHEDULE, ops=120.
PINNED = {
    7: (
        "8d9588edaa31fa0600612ce59807a2c62599de85aa3e9ad4532c5c84bdfc157e",
        "75cd977b2c89167b41a995acf2c72c3a5da933936c9b5b67396dbd3f84e38e50",
    ),
    23: (
        "208c1cb3f86d9143fc94b88062e17eaf3baeb6d029b872604076b09fc19aab77",
        "82d47e519236eb9b98457aac7100377b1a79ab76308603d228f68fdbb8afeb57",
    ),
}


class TestPinnedSerialBehaviour:
    @pytest.mark.parametrize("seed", sorted(PINNED))
    @pytest.mark.parametrize("k", [1])
    def test_fingerprint_and_digest_match_pre_batching_capture(
        self, seed, k
    ):
        report = run_chaos(
            seed,
            SCHEDULE,
            ops=120,
            cluster=ClusterSpec(shards=None, ecall_batch=k),
        )
        fingerprint, digest = PINNED[seed]
        assert report.ok, report.violations
        assert report.fault_fingerprint == fingerprint
        assert report.state_digest == digest


class TestChaosAtEveryWindow:
    @pytest.mark.parametrize("k", [2, 4, 16, 64])
    def test_chaos_verifies_clean_when_batched(self, k):
        report = run_chaos(
            7,
            SCHEDULE,
            ops=120,
            cluster=ClusterSpec(shards=None, ecall_batch=k),
        )
        assert report.ok, report.violations

    def test_batched_chaos_is_deterministic(self):
        batched = ClusterSpec(shards=None, ecall_batch=16)
        first = run_chaos(7, SCHEDULE, ops=120, cluster=batched)
        second = run_chaos(7, SCHEDULE, ops=120, cluster=batched)
        assert first.fault_fingerprint == second.fault_fingerprint
        assert first.state_digest == second.state_digest

    def test_control_tampering_under_batching(self):
        # corrupt_control flips bits inside the sealed segment: the
        # batched open phase must reject those frames (retries recover)
        # without poisoning their batch-mates.
        report = run_chaos(
            13,
            "corrupt_control:0.05,corrupt_payload:0.05",
            ops=120,
            cluster=ClusterSpec(shards=None, ecall_batch=16),
        )
        assert report.ok, report.violations


class TestPoisonedFrameIsolation:
    def _pair(self, k, clients=1):
        server = PrecursorServer(config=ServerConfig(ecall_batch=k))
        sessions = [
            # auto_pump drives the preload puts; the staged GETs below
            # bypass it (raw _submit + one explicit process_pending).
            PrecursorClient(
                server,
                client_id=800 + i,
                keygen=KeyGenerator(80 + i),
            )
            for i in range(clients)
        ]
        return server, sessions

    def _stage_get(self, client, key):
        control = client._next_control(OpCode.GET, key)
        client._submit(client._seal_control(control))
        return control.oid

    def _drain_rounds(self, server, client, pumps=3):
        """(oid, status) replies collected per process_pending call."""
        rounds = []
        for _ in range(pumps):
            server.process_pending()
            got = []
            while True:
                frame = client._reply_consumer.poll_one()
                if frame is None:
                    break
                reply = client._open_control(Response.decode(frame))
                got.append((reply.oid, reply.status))
            rounds.append(got)
        return rounds

    def _corrupted_run(self, k):
        """Stage 6 GETs, flip a byte in the third frame's sealed bytes."""
        server, (client,) = self._pair(k=k)
        for i in range(6):
            client.put(b"key-%d" % i, b"v%d" % i)
        oids = [self._stage_get(client, b"key-%d" % i) for i in range(6)]

        # Directly in the server-side ring slot (what a corrupting
        # transport would deliver); the header (length + sequence)
        # stays intact so the slot still looks ready.
        channel = server._channels[client.client_id]
        consumer = channel.request_consumer
        victim_seq = consumer._next_seq + 2
        offset = consumer.layout.slot_offset(victim_seq - 1)
        header = channel.request_region.read_local(offset, 8)
        frame_len = int.from_bytes(header[:4], "big")
        byte_at = offset + 8 + frame_len // 2
        (original,) = channel.request_region.read_local(byte_at, 1)
        channel.request_region.write_local(
            byte_at, bytes([original ^ 0x40])
        )
        rounds = self._drain_rounds(server, client)
        return oids, rounds, server.stats

    def test_corrupt_frame_poisons_only_itself(self):
        # The unauthenticatable frame is dropped silently; batch-mates
        # drained ahead of it complete normally, and frames behind it
        # hit the strictly-monotonic replay filter -- the same shape,
        # reply for reply, as the one-frame window (the retry engine's
        # reconnect/resync recovers from there; the chaos runs above
        # prove that end to end).
        oids, rounds, stats = self._corrupted_run(k=8)
        serial_oids, serial_rounds, serial_stats = self._corrupted_run(k=1)
        assert oids == serial_oids

        flat = [reply for round_ in rounds for reply in round_]
        assert flat == [
            reply for round_ in serial_rounds for reply in round_
        ]
        victim = oids[2]
        assert [oid for oid, _ in flat] == [o for o in oids if o != victim]
        statuses = dict(flat)
        assert all(statuses[o] is Status.OK for o in oids[:2])
        assert all(statuses[o] is Status.REPLAY for o in oids[3:])
        assert stats.auth_failures == serial_stats.auth_failures == 1

    def test_garbage_slot_isolated_like_serial(self):
        # A frame whose *header* is trashed (rogue length) stops that
        # poll; the consumer skips the slot defensively on the next
        # poll.  The reply stream is identical at both windows -- the
        # K=8 drain recovers within the same pump (its next drain cycle
        # polls past the skipped slot), where the one-frame window stops
        # at the garbage slot and waits for the next process_pending.
        per_path = {}
        for k in (1, 8):
            server, (client,) = self._pair(k=k)
            for i in range(4):
                client.put(b"key-%d" % i, b"v%d" % i)
            oids = [self._stage_get(client, b"key-%d" % i) for i in range(4)]
            channel = server._channels[client.client_id]
            consumer = channel.request_consumer
            victim_seq = consumer._next_seq + 1
            offset = consumer.layout.slot_offset(victim_seq - 1)
            seq_bytes = channel.request_region.read_local(offset + 4, 4)
            channel.request_region.write_local(
                offset, b"\xff\xff\xff\xff" + seq_bytes
            )
            per_path[k] = oids, self._drain_rounds(server, client)

        oids, serial_rounds = per_path[1]
        assert per_path[8][0] == oids
        expected = [
            (oids[0], Status.OK),
            (oids[2], Status.REPLAY),
            (oids[3], Status.REPLAY),
        ]
        assert [r for rs in serial_rounds for r in rs] == expected
        assert [r for rs in per_path[8][1] for r in rs] == expected
        # Granularity difference, byte-identical content: K=1 defers
        # the post-garbage frames to the second pump, K=8 reaches them
        # in its second cycle of the first pump.
        assert serial_rounds[0] == expected[:1]
        assert per_path[8][1][0] == expected
