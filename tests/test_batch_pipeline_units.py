"""Unit tests for the seams the request pipeline is built from.

The end-to-end equivalence suite (test_batch_equivalence.py) proves the
assembled pipeline matches the pinned serial behaviour; these tests pin
each layer in isolation so a regression points at the seam that broke:

* verbs: the gather-segment validation on ``WorkRequest``;
* fabric: a gather write lands each slice at its own remote offset;
* crypto provider: ``transport_seal_many``/``transport_open_many`` are
  byte-identical to their serial twins (same IV draw order) and a
  tampered entry fails alone;
* both GCM engines: batch seal/open parity and edge cases;
* the pipeline's counters, reply staging and reply phase;
* the pipeline under real polling threads, and the thread pool's
  adaptive idle backoff.
"""

import random
import struct
import threading

import pytest

from repro.core.client import PrecursorClient
from repro.core.protocol import OpCode
from repro.core.server import PrecursorServer, ServerConfig
from repro.core.threading import ServerThreadPool
from repro.crypto.engine import get_engine
from repro.crypto.keys import KeyGenerator, SessionKey
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError
from repro.rdma import AccessFlags, Fabric, Opcode, WorkRequest


class TestGatherSegmentsValidation:
    def _wr(self, data, segments, opcode=Opcode.RDMA_WRITE):
        return WorkRequest(
            wr_id=1, opcode=opcode, data=data, segments=segments
        )

    def test_valid_tiling_accepted(self):
        wr = self._wr(b"abcdef", ((0, 2), (100, 3), (10, 1)))
        assert wr.byte_len == 6

    def test_only_rdma_write_may_gather(self):
        with pytest.raises(ConfigurationError, match="RDMA_WRITE"):
            self._wr(b"ab", ((0, 2),), opcode=Opcode.SEND)
        with pytest.raises(ConfigurationError):
            WorkRequest(
                wr_id=1,
                opcode=Opcode.RDMA_READ,
                length=4,
                segments=((0, 4),),
            )

    def test_empty_gather_list_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            self._wr(b"ab", ())

    def test_non_positive_length_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            self._wr(b"ab", ((0, 0), (0, 2)))
        with pytest.raises(ConfigurationError, match="positive"):
            self._wr(b"ab", ((0, -2),))

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            self._wr(b"ab", ((-4, 2),))

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="cover"):
            self._wr(b"abcdef", ((0, 2), (8, 2)))
        with pytest.raises(ConfigurationError, match="cover"):
            self._wr(b"ab", ((0, 2), (8, 2)))


class TestFabricGatherWrite:
    def _setup(self):
        fabric = Fabric()
        fabric.add_host("client")
        server_pd = fabric.add_host("server")
        qp_c, _ = fabric.create_qp_pair("client", "server")
        region = server_pd.register(4096, AccessFlags.REMOTE_WRITE)
        return fabric, qp_c, region

    def test_slices_land_at_their_offsets(self):
        fabric, qp_c, region = self._setup()
        fabric.post_send(
            qp_c,
            WorkRequest(
                wr_id=1,
                opcode=Opcode.RDMA_WRITE,
                data=b"AAAABBBBBBCC",
                remote_rkey=region.rkey,
                segments=((0, 4), (64, 6), (200, 2)),
            ),
        )
        assert region.read_local(0, 4) == b"AAAA"
        assert region.read_local(64, 6) == b"BBBBBB"
        assert region.read_local(200, 2) == b"CC"
        # The gap between slices was never touched.
        assert region.read_local(4, 60) == b"\x00" * 60
        assert fabric.bytes_moved == 12

    def test_gather_matches_serial_writes(self):
        fabric_a, qp_a, region_a = self._setup()
        fabric_b, qp_b, region_b = self._setup()
        frames = [b"frame-one!", b"frame-2", b"the-third-frame"]
        offsets = [16, 128, 300]
        fabric_a.post_send(
            qp_a,
            WorkRequest(
                wr_id=1,
                opcode=Opcode.RDMA_WRITE,
                data=b"".join(frames),
                remote_rkey=region_a.rkey,
                segments=tuple(
                    (off, len(f)) for off, f in zip(offsets, frames)
                ),
            ),
        )
        for i, (off, frame) in enumerate(zip(offsets, frames)):
            fabric_b.post_send(
                qp_b,
                WorkRequest(
                    wr_id=10 + i,
                    opcode=Opcode.RDMA_WRITE,
                    data=frame,
                    remote_rkey=region_b.rkey,
                    remote_offset=off,
                ),
            )
        assert region_a.read_local(0, 512) == region_b.read_local(0, 512)


class TestProviderBatchTransport:
    def _twin_sessions(self):
        keygen = KeyGenerator(seed=5)
        key = keygen.session_key()
        return (
            SessionKey(key=key, client_id=9),
            SessionKey(key=key, client_id=9),
        )

    def _messages(self, n=7):
        rng = random.Random(31)
        return [
            (
                rng.randbytes(rng.randrange(0, 80)),
                b"aad%d" % (i % 3),
            )
            for i, _ in enumerate(range(n))
        ]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_seal_many_matches_serial_seal(self, engine):
        provider = CryptoProvider(engine=get_engine(engine))
        serial_session, batch_session = self._twin_sessions()
        messages = self._messages()
        serial = [
            provider.transport_seal(serial_session, plaintext, aad)
            for plaintext, aad in messages
        ]
        batched = provider.transport_seal_many(batch_session, messages)
        # Byte-identical, IV for IV: the batch draws from the session
        # counter in submission order.
        assert [(m.iv, m.sealed) for m in batched] == [
            (m.iv, m.sealed) for m in serial
        ]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_open_many_roundtrip_and_tamper_isolation(self, engine):
        provider = CryptoProvider(engine=get_engine(engine))
        session, _ = self._twin_sessions()
        messages = self._messages()
        sealed = provider.transport_seal_many(session, messages)
        opened = provider.transport_open_many(
            session.key,
            [(m, aad) for m, (_pt, aad) in zip(sealed, messages)],
        )
        assert opened == [plaintext for plaintext, _aad in messages]

        # Poison one entry: it fails alone, nothing raises.
        from repro.crypto.provider import SealedMessage

        victim = 3
        blob = bytearray(sealed[victim].sealed)
        blob[-1] ^= 0x01
        tampered = list(sealed)
        tampered[victim] = SealedMessage(
            iv=sealed[victim].iv, sealed=bytes(blob)
        )
        opened = provider.transport_open_many(
            session.key,
            [(m, aad) for m, (_pt, aad) in zip(tampered, messages)],
        )
        assert opened[victim] is None
        for i, (plaintext, _aad) in enumerate(messages):
            if i != victim:
                assert opened[i] == plaintext

    def test_wrong_aad_fails_only_that_entry(self):
        provider = CryptoProvider()
        session, _ = self._twin_sessions()
        messages = self._messages(4)
        sealed = provider.transport_seal_many(session, messages)
        pairs = [(m, aad) for m, (_pt, aad) in zip(sealed, messages)]
        pairs[1] = (pairs[1][0], b"not-the-aad")
        opened = provider.transport_open_many(session.key, pairs)
        assert opened[1] is None
        assert opened[0] == messages[0][0]
        assert opened[2:] == [pt for pt, _ in messages[2:]]


class TestGcmEngineBatch:
    KEY = b"\x07" * 16

    def _batch(self, sizes=(0, 1, 15, 16, 17, 64, 200)):
        rng = random.Random(8)
        return [
            (
                rng.randbytes(12),
                rng.randbytes(size),
                rng.randbytes(rng.randrange(0, 24)),
            )
            for size in sizes
        ]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_seal_many_is_byte_identical_to_seal(self, engine):
        gcm = get_engine(engine).gcm(self.KEY)
        batch = self._batch()
        assert gcm.seal_many(batch) == [
            gcm.seal(iv, pt, aad) for iv, pt, aad in batch
        ]

    def test_engines_agree_on_batches(self):
        batch = self._batch()
        ref = get_engine("reference").gcm(self.KEY)
        fast = get_engine("fast").gcm(self.KEY)
        assert ref.seal_many(batch) == fast.seal_many(batch)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_open_many_roundtrip(self, engine):
        gcm = get_engine(engine).gcm(self.KEY)
        batch = self._batch()
        sealed = gcm.seal_many(batch)
        opened = gcm.open_many(
            [(iv, blob, aad) for (iv, _pt, aad), blob in zip(batch, sealed)]
        )
        assert opened == [pt for _iv, pt, _aad in batch]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_tampered_entry_is_none_not_raise(self, engine):
        gcm = get_engine(engine).gcm(self.KEY)
        batch = self._batch(sizes=(32, 32, 32))
        sealed = gcm.seal_many(batch)
        poisoned = bytearray(sealed[1])
        poisoned[0] ^= 0x80  # first ciphertext byte
        items = [
            (iv, blob, aad)
            for (iv, _pt, aad), blob in zip(batch, sealed)
        ]
        items[1] = (items[1][0], bytes(poisoned), items[1][2])
        opened = gcm.open_many(items)
        assert opened[0] == batch[0][1]
        assert opened[1] is None
        assert opened[2] == batch[2][1]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_short_sealed_entry_is_none(self, engine):
        gcm = get_engine(engine).gcm(self.KEY)
        iv = b"\x01" * 12
        good = gcm.seal(iv, b"payload", b"")
        opened = gcm.open_many(
            [(iv, b"\x00" * 8, b""), (iv, good, b"")]
        )
        assert opened == [None, b"payload"]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_empty_batch(self, engine):
        gcm = get_engine(engine).gcm(self.KEY)
        assert gcm.seal_many([]) == []
        assert gcm.open_many([]) == []

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_bad_iv_in_batch_rejected(self, engine):
        gcm = get_engine(engine).gcm(self.KEY)
        with pytest.raises(ConfigurationError):
            gcm.seal_many([(b"short-iv", b"x", b"")])
        with pytest.raises(ConfigurationError):
            gcm.open_many([(b"short-iv", b"x" * 20, b"")])


class TestDrainWindow:
    def test_zero_window_is_refused(self):
        """Every ring drains through the pipeline: there is no K=0."""
        from repro.faults.harness import run_chaos
        from repro.shard import ClusterSpec
        from repro.traffic.scenarios import run_scenario

        with pytest.raises(ConfigurationError):
            ServerConfig(ecall_batch=0)
        with pytest.raises(ConfigurationError):
            run_scenario("steady", cluster=ClusterSpec(ecall_batch=0))
        with pytest.raises(ConfigurationError):
            run_chaos(
                7,
                "drop:0.05",
                ops=10,
                cluster=ClusterSpec(shards=None, ecall_batch=0),
            )
        assert ServerConfig().ecall_batch == 1


class TestBatchedServerObservability:
    def _batched_run(self, k=8, ops=24):
        server = PrecursorServer(config=ServerConfig(ecall_batch=k))
        client = PrecursorClient(
            server,
            client_id=900,
            keygen=KeyGenerator(90),
            auto_pump=False,
            response_timeout_s=0.0,
        )
        staged = []
        for i in range(ops):
            control = client._next_control(OpCode.GET, b"key-%d" % i)
            client._submit(client._seal_control(control))
            staged.append(control.oid)
        server.process_pending()
        drained = 0
        while client._reply_consumer.poll_one() is not None:
            drained += 1
        assert drained == ops
        return server

    def test_batch_size_histogram_records_full_windows(self):
        server = self._batched_run(k=8, ops=24)
        histogram = server.obs.registry.get("server_batch_size")
        assert histogram is not None
        assert histogram.count >= 3
        assert histogram.max == 8  # full windows out of a 24-deep ring
        cycles = server.obs.registry.get("server_batch_cycles_total")
        assert cycles.value == histogram.count

    def test_drained_messages_are_counted(self):
        server = self._batched_run(k=8, ops=24)
        registry = server.obs.registry
        assert registry.get("server_batch_cycles_total").value == 3
        counter = registry.get(
            "sgx_batched_messages_total",
            labels={"enclave": server.enclave.name},
        )
        assert counter.value == 24


class TestReplySinkThreadLocal:
    def test_sink_is_private_to_each_thread(self):
        """The staging seam must never leak across trusted threads: a
        cycle on thread B installing its sink while thread A is
        mid-dispatch would capture A's replies (wrong session, wrong
        ring) and then discard A's remaining staged entries."""
        server = PrecursorServer()
        mine = []
        server._reply_sink = mine
        seen = {}

        def probe():
            seen["inherited"] = server._reply_sink
            theirs = []
            server._reply_sink = theirs
            seen["own"] = server._reply_sink is theirs

        worker = threading.Thread(target=probe)
        worker.start()
        worker.join(timeout=5)
        assert seen["inherited"] is None
        assert seen["own"] is True
        # The other thread's assignments never touched this thread's sink.
        assert server._reply_sink is mine
        server._reply_sink = None
        assert server._reply_sink is None


class TestBatchedThreadedServer:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_concurrent_clients_with_batching(self, k, threads):
        """The pipeline under real polling threads: every client's data
        lands and verifies, with no cross-thread reply corruption
        (wrong-key seals would surface as client MAC failures) and no
        silently dead workers, and the final store matches what the
        clients wrote."""
        server = PrecursorServer(config=ServerConfig(ecall_batch=k))
        pool = ServerThreadPool(server, threads=threads)
        clients = [
            PrecursorClient(
                server,
                client_id=i + 1,
                keygen=KeyGenerator(40 + i),
                auto_pump=False,
                response_timeout_s=10.0,
            )
            for i in range(4)
        ]
        expected = {
            f"b{c}-{i}".encode(): f"b{c}-value-{i}".encode()
            for c in range(len(clients))
            for i in range(30)
        }
        errors = []

        def worker(client, tag):
            try:
                for i in range(30):
                    key = f"{tag}-{i}".encode()
                    client.put(key, f"{tag}-value-{i}".encode())
                    assert client.get(key) == f"{tag}-value-{i}".encode()
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((tag, exc))

        with pool:
            client_threads = [
                threading.Thread(target=worker, args=(client, f"b{i}"))
                for i, client in enumerate(clients)
            ]
            for thread in client_threads:
                thread.start()
            for thread in client_threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in client_threads)
        assert errors == []
        assert pool.errors == []
        assert server.key_count == len(expected)
        assert server.stats.auth_failures == 0
        assert server.stats.replay_rejections == 0
        reader = PrecursorClient(server, client_id=99, keygen=KeyGenerator(99))
        assert {key: reader.get(key) for key in expected} == expected


class TestReplyPhaseChannelGrouping:
    def test_entries_sealed_with_their_own_channel_session(self):
        """The seal phase is keyed off each staged entry's channel, not
        the cycle argument: an entry staged for another client must be
        sealed under that client's session and land in that client's
        reply ring."""
        from repro.core.protocol import Response, ResponseControl, Status

        server = PrecursorServer(config=ServerConfig(ecall_batch=4))
        clients = {
            cid: PrecursorClient(
                server,
                client_id=cid,
                keygen=KeyGenerator(cid),
                auto_pump=False,
                response_timeout_s=0.0,
            )
            for cid in (11, 22)
        }
        channel_a = server._channels[11]
        channel_b = server._channels[22]
        staged = [
            (channel_a, ResponseControl(status=Status.OK, oid=1), None),
            (channel_b, ResponseControl(status=Status.OK, oid=2), None),
            (channel_a, ResponseControl(status=Status.NOT_FOUND, oid=3), None),
        ]
        # Cycle channel is A; the B entry must still seal/route as B's.
        server._batcher._reply_phase(channel_a, staged)

        def drain(client):
            controls = []
            while True:
                frame = client._reply_consumer.poll_one()
                if frame is None:
                    return controls
                response = Response.decode(frame)
                aad = b"resp" + struct.pack(">I", client.client_id)
                blob = client.provider.transport_open(
                    client.session.key, response.sealed_control, aad=aad
                )
                controls.append(ResponseControl.decode(blob))

        got_a = drain(clients[11])
        got_b = drain(clients[22])
        assert [(c.status, c.oid) for c in got_a] == [
            (Status.OK, 1),
            (Status.NOT_FOUND, 3),
        ]
        assert [(c.status, c.oid) for c in got_b] == [(Status.OK, 2)]


class TestReplyCapacityFallback:
    def test_partial_delivery_matches_serial_divergence(self):
        """When a cycle's replies exceed the reply ring's free credits,
        the leading replies that fit are delivered and the failure
        surfaces on the same frame the serial per-reply path would have
        failed on -- not all-or-nothing after dispatch already applied
        the whole cycle."""
        from repro.core.protocol import Response, ResponseControl, Status
        from repro.errors import CapacityError

        server = PrecursorServer(
            config=ServerConfig(ecall_batch=8, ring_slots=4)
        )
        client = PrecursorClient(
            server,
            client_id=7,
            keygen=KeyGenerator(7),
            auto_pump=False,
            response_timeout_s=0.0,
        )
        channel = server._channels[7]
        # Burn all but two reply credits without the client consuming.
        channel.reply_producer.produce(b"x")
        channel.reply_producer.produce(b"y")
        staged = [
            (channel, ResponseControl(status=Status.OK, oid=oid), None)
            for oid in (1, 2, 3)
        ]
        with pytest.raises(CapacityError):
            server._batcher._reply_phase(channel, staged)
        frames = [client._reply_consumer.poll_one() for _ in range(4)]
        assert frames[:2] == [b"x", b"y"]
        oids = []
        for frame in frames[2:]:
            response = Response.decode(frame)
            aad = b"resp" + struct.pack(">I", client.client_id)
            blob = client.provider.transport_open(
                client.session.key, response.sealed_control, aad=aad
            )
            oids.append(ResponseControl.decode(blob).oid)
        assert oids == [1, 2]
        assert client._reply_consumer.poll_one() is None


class TestAdaptivePoolBackoff:
    def test_rejects_inverted_sleep_bounds(self):
        server = PrecursorServer()
        with pytest.raises(ConfigurationError, match="max_idle_sleep_s"):
            ServerThreadPool(
                server, threads=1, idle_sleep_s=1e-3, max_idle_sleep_s=1e-4
            )

    def test_idle_pool_sleeps_instead_of_spinning(self):
        import time

        server = PrecursorServer()
        pool = ServerThreadPool(
            server, threads=2, idle_sleep_s=1e-5, max_idle_sleep_s=1e-4
        )
        with pool:
            time.sleep(0.05)
        assert sum(pool.idle_sleeps) > 0
        assert pool.total_handled == 0

    def test_busy_pool_still_handles_requests(self):
        server = PrecursorServer()
        client = PrecursorClient(
            server,
            keygen=KeyGenerator(70),
            auto_pump=False,
            response_timeout_s=2.0,
        )
        with ServerThreadPool(server, threads=2):
            client.put(b"alpha", b"1")
            assert client.get(b"alpha") == b"1"
        assert ServerThreadPool(server, threads=2).total_handled == 0
