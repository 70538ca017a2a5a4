"""Replay safety of the retry engine: at-most-once, provably.

A retried PUT re-seals the *same* oid and re-ships the *same* ciphertext,
so the server either applies it once or recognises the duplicate via the
replay filter and re-sends the cached ack.  These tests pin that
machinery directly (duplicate frames, lost acks, oid resync, applied
requests whose ack is gone) and property-test it under seeded random
fault schedules.  The duplicate and lost-ack classes run once per payload
scheme: the server-encryption variant shares the dispatch and the retry
engine, so it inherits the same contract.
"""

import random

import pytest

from repro.core import (
    PrecursorClient,
    PrecursorServer,
    PrecursorServerEncryption,
    ServerEncryptionClient,
)
from repro.core.persistence import CheckpointManager
from repro.core.protocol import ControlData, OpCode
from repro.errors import (
    OperationTimeoutError,
    PrecursorError,
    ReplayError,
)
from repro.faults import FaultEngine, FaultSchedule, run_chaos
from repro.faults.recovery import crash_restart
from repro.rdma import MemoryRegion


_SCHEMES = {
    "precursor": (PrecursorServer, PrecursorClient),
    "server_encryption": (PrecursorServerEncryption, ServerEncryptionClient),
}


def _pair(max_retries=3, scheme="precursor", **kwargs):
    server_cls, client_cls = _SCHEMES[scheme]
    server = server_cls()
    client = client_cls(
        server,
        max_retries=max_retries,
        trace_ops=False,
        **kwargs,
    )
    return server, client


class TestDuplicateNeverDoubleApplies:
    scheme = "precursor"

    def test_always_duplicated_puts_apply_once(self):
        server, client = _pair(scheme=self.scheme)
        client.submit_fault_hook = lambda frame: True  # duplicate all
        for i in range(10):
            client.put(b"key-%d" % i, b"value-%d" % i)
        client.submit_fault_hook = None
        # The duplicates hit the replay filter, not the table.
        assert server.stats.puts == 10
        assert server.stats.replay_rejections > 0
        for i in range(10):
            assert client.get(b"key-%d" % i) == b"value-%d" % i

    def test_duplicate_of_overwrite_keeps_newest_value(self):
        server, client = _pair(scheme=self.scheme)
        client.put(b"k", b"v1")
        client.submit_fault_hook = lambda frame: True
        client.put(b"k", b"v2")
        client.submit_fault_hook = None
        assert client.get(b"k") == b"v2"
        assert server.stats.puts == 2

    def test_duplicate_delete_stays_deleted_not_errored(self):
        server, client = _pair(scheme=self.scheme)
        client.put(b"k", b"v")
        client.submit_fault_hook = lambda frame: True
        client.delete(b"k")
        client.submit_fault_hook = None
        from repro.errors import KeyNotFoundError

        with pytest.raises(KeyNotFoundError):
            client.get(b"k")
        assert server.stats.deletes == 1

    def test_duplicate_reply_is_cached_ack_not_reapply(self):
        server, client = _pair(scheme=self.scheme)
        client.submit_fault_hook = lambda frame: True
        client.put(b"k", b"v")
        client.put(b"k2", b"v2")  # pumping this processes the duplicate
        client.submit_fault_hook = None
        assert server.stats.duplicate_replies > 0
        assert server.stats.puts == 2


class TestLostAckRecovery:
    """The reply is lost; the retry must harvest the cached ack."""

    scheme = "precursor"

    def _drop_first_reply(self, server, client):
        """Arm a one-shot fabric fault that eats the next server->client
        write (the reply), leaving the request untouched."""
        from repro.rdma.fabric import FaultAction

        state = {"armed": True}

        def hook(qp, wr):
            # Replies travel on the server-side QP of the pair; the
            # client's own writes (requests, credits) pass untouched.
            if state["armed"] and qp is not client._qp:
                state["armed"] = False
                return FaultAction.DROP
            return None

        server.fabric.install_fault_hook(hook)
        return state

    def test_put_with_lost_ack_succeeds_via_cached_reply(self):
        server, client = _pair(max_retries=3, scheme=self.scheme)
        self._drop_first_reply(server, client)
        client.put(b"k", b"v")  # attempt 0 applies; ack lost; retry acks
        server.fabric.install_fault_hook(None)
        assert client.retries >= 1
        assert server.stats.puts == 1
        assert server.stats.duplicate_replies == 1
        assert client.get(b"k") == b"v"

    def test_delete_with_lost_ack_succeeds_once(self):
        server, client = _pair(max_retries=3, scheme=self.scheme)
        client.put(b"k", b"v")
        self._drop_first_reply(server, client)
        client.delete(b"k")
        server.fabric.install_fault_hook(None)
        assert server.stats.deletes == 1
        assert server.stats.duplicate_replies == 1

    def test_cache_survives_reconnect(self):
        # The duplicate-reply cache is per-client state the server must
        # carry across reconnect_client, or a lost-ack retry after a QP
        # reset would see REPLAY with no cached reply.
        server, client = _pair(max_retries=3, scheme=self.scheme)
        self._drop_first_reply(server, client)
        client.put(b"k", b"v")
        server.fabric.install_fault_hook(None)
        assert client.reconnects >= 1  # retry went through a reconnect
        assert server.stats.duplicate_replies == 1


class TestDuplicateCacheIsTrusted:
    """A cached GET reply carries ``K_operation``: it lives in the enclave."""

    def test_get_leaves_no_reply_secret_in_the_channel(self):
        server, client = _pair()
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"
        cached = server._last_replies[client.client_id].control
        assert cached.oid == client._oid and cached.k_operation
        channel = server._channel(client.client_id)
        for name, value in vars(channel).items():
            assert value is not cached, name
            if isinstance(value, MemoryRegion):
                value = value.read_local(0, value.length)
            if isinstance(value, (bytes, bytearray)):
                assert cached.k_operation not in value, name

    def test_reconnect_still_resends_the_cached_ack(self):
        server, client = _pair()
        client.put(b"k", b"v")
        client.get(b"k")
        gets = server.stats.gets
        cached = server._last_replies[client.client_id].control
        client.reconnect()
        # The GET again under its applied oid, as a lost-reply retry sends it.
        entries = [(ControlData(OpCode.GET, client._oid, b"k"), None)]
        client._send(entries)
        replies = []
        client._collect(entries, replies, resent=True)
        assert server.stats.duplicate_replies == 1
        assert server.stats.gets == gets
        assert replies[0][1] == cached


class TestDuplicateNeverDoubleAppliesServerEncryption(
    TestDuplicateNeverDoubleApplies
):
    scheme = "server_encryption"


class TestLostAckRecoveryServerEncryption(TestLostAckRecovery):
    scheme = "server_encryption"


def _lose_replies(server, client, cached_ack_too=False):
    """The next collect finds its requests applied and their replies lost.

    With ``cached_ack_too`` the server's cached ack is gone as well (e.g.
    a crash after apply).  ``del client._collect`` restores the client.
    """
    state = {"first": True}

    def collect(entries, replies, resent=False):
        if state["first"]:
            state["first"] = False
            server.process_pending()
            client.drain_replies()
            if cached_ack_too:
                last = server._last_replies[client.client_id]
                last.oid = last.digest = last.control = last.payload = None
            raise OperationTimeoutError("simulated lost replies")
        return PrecursorClient._collect(client, entries, replies, resent)

    client._collect = collect


class TestAppliedSentinel:
    """REPLAY on a resend with no cached ack == applied, ack unrecoverable."""

    def test_put_reports_success_when_applied_but_ack_gone(self):
        server, client = _pair(max_retries=3)
        _lose_replies(server, client, cached_ack_too=True)
        client.put(b"k", b"v")  # must NOT raise: the put took effect
        del client._collect
        assert server.stats.replay_rejections == 1  # the resend hit REPLAY
        assert client.get(b"k") == b"v"
        assert server.stats.puts == 1  # never double-applied

    def test_delete_reports_success_when_applied_but_ack_gone(self):
        server, client = _pair(max_retries=3)
        client.put(b"k", b"v")
        _lose_replies(server, client, cached_ack_too=True)
        client.delete(b"k")
        del client._collect
        assert server.stats.deletes == 1
        from repro.errors import KeyNotFoundError

        with pytest.raises(KeyNotFoundError):
            client.get(b"k")

    def test_get_reissues_under_fresh_oid(self):
        server, client = _pair(max_retries=3)
        client.put(b"k", b"v")
        _lose_replies(server, client, cached_ack_too=True)
        oid = client._oid
        assert client.get(b"k") == b"v"  # re-issued, idempotent
        del client._collect
        assert client._oid == oid + 2  # the lost get's oid, then a fresh one
        assert server.stats.gets == 2
        assert client.retries == 2  # the reconnect, then the re-issue

    def test_first_attempt_replay_still_raises(self):
        # REPLAY on attempt 0 is a real protocol violation (stale client),
        # not a lost ack -- it must surface, not masquerade as success.
        server, client = _pair(max_retries=3)
        client.put(b"k", b"v")
        client._oid -= 1  # force the next oid to collide
        with pytest.raises(ReplayError):
            client.get(b"k")


class TestOidResync:
    def test_failed_op_does_not_wedge_the_session(self, fail_next_post):
        # An op that exhausts its budget leaves an orphaned oid; the
        # resync must step the counter back so later ops line up again.
        server, client = _pair(max_retries=0)
        client.put(b"k", b"v1")
        fail_next_post(server.fabric)
        with pytest.raises(PrecursorError):
            client.put(b"k", b"v2")
        client.reconnect()
        client.put(b"k", b"v3")  # must not be rejected as a replay
        assert client.get(b"k") == b"v3"

    def test_reconnect_returns_replay_expectation(self):
        server, client = _pair()
        client.put(b"a", b"1")
        client.put(b"b", b"2")
        expected = client.reconnect()
        assert expected == server.replay_expected(client.client_id)
        assert expected == client._oid + 1

    def test_resync_after_crash_restart(self):
        # The replay expectations are part of the sealed checkpoint: after
        # a crash-restart the filter resumes exactly where it left off and
        # the reconnected client keeps operating under its old oids.
        server, client = _pair(max_retries=3)
        manager = CheckpointManager()
        for i in range(4):
            client.put(b"key-%d" % i, b"val-%d" % i)
        crash_restart(server, manager)
        # The client's QP died with the server; its next op retries
        # through a reconnect transparently.
        client.put(b"after", b"crash")
        assert client.get(b"after") == b"crash"
        for i in range(4):
            assert client.get(b"key-%d" % i) == b"val-%d" % i

    def test_retry_reuses_same_oid(self, fail_next_post):
        # The replay-safety core: a retried PUT re-seals the same oid.
        server, client = _pair(max_retries=3)
        client.put(b"warm", b"up")
        oid_before = client._oid
        fail_next_post(server.fabric)
        client.put(b"k", b"v")
        assert client._oid == oid_before + 1  # one op, one oid
        assert server.stats.puts == 2


class TestWindowsUnderFaults:
    """put_many/get_many windows run the single ops' retry engine."""

    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    @pytest.mark.parametrize("seed", range(4))
    def test_windows_match_the_shadow_and_apply_once(self, scheme, seed):
        server, client = _pair(scheme=scheme)
        engine = FaultEngine(
            FaultSchedule.parse("drop:0.05,duplicate:0.05,delay:0.05"),
            seed=seed,
        )
        engine.install(fabrics=[server.fabric], clients=[client])
        rng = random.Random(seed)
        shadow, puts = {}, 0
        for batch in range(6):
            items = [
                (b"key-%02d" % rng.randrange(48), b"v%d-%d" % (batch, i))
                for i in range(rng.randint(8, 40))
            ]
            assert client.put_many(items) == len(items)
            puts += len(items)
            shadow.update(items)
            keys = rng.sample(sorted(shadow), min(len(shadow), 40))
            assert client.get_many(keys) == [shadow[key] for key in keys]
        engine.uninstall()
        assert engine.counts["drop"] and engine.counts["duplicate"]
        assert client.retries > 0
        assert server.stats.puts == puts  # nothing applied twice
        keys = sorted(shadow)
        assert client.get_many(keys) == [shadow[key] for key in keys]

    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    def test_applied_prefix_counts_puts_done_and_reissues_gets(self, scheme):
        server, client = _pair(scheme=scheme)
        items = [(b"k%d" % i, b"v%d" % i) for i in range(4)]
        _lose_replies(server, client)
        assert client.put_many(items) == 4
        del client._collect
        # The filter expects the oid after the window: the first three
        # puts are done, the last one's cached reply is re-sent.
        assert server.stats.puts == 4
        assert server.stats.duplicate_replies == 1
        _lose_replies(server, client)
        assert client.get_many([key for key, _ in items]) == [
            value for _, value in items
        ]
        del client._collect
        # Three gets re-issued under fresh oids, one cached reply.
        assert server.stats.gets == 4 + 3
        assert server.stats.duplicate_replies == 2
        assert client.retries == 1 + 1 + 3


class TestPropertyRandomSchedules:
    """Seeded random schedules: the shadow model never diverges."""

    @pytest.mark.parametrize("seed", list(range(8)))
    def test_drop_duplicate_storm_preserves_exactly_once(self, seed):
        report = run_chaos(
            seed=seed, schedule="drop:0.15,duplicate:0.15", ops=60
        )
        assert report.ok, report.violations

    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_delay_reordering_preserves_exactly_once(self, seed):
        report = run_chaos(
            seed=seed, schedule="delay:0.2,duplicate:0.1", ops=60
        )
        assert report.ok, report.violations

    @pytest.mark.parametrize("seed", [1, 4])
    def test_crash_plus_wire_faults(self, seed):
        report = run_chaos(
            seed=seed,
            schedule="drop:0.1,enclave_crash:0.02,duplicate:0.1",
            ops=60,
        )
        assert report.ok, report.violations

    def test_replay_rejections_happen_under_duplicates(self):
        # The property suite must actually exercise the filter: under a
        # heavy duplicate schedule the server is guaranteed to see and
        # reject re-sent oids.
        server, client = _pair()
        schedule = FaultSchedule.parse("duplicate:0.5")
        engine = FaultEngine(schedule, seed=11)
        engine.install(fabrics=[server.fabric], clients=[client])
        for i in range(30):
            client.put(b"key-%02d" % i, b"v%02d" % i)
        engine.uninstall()
        assert engine.counts.get("duplicate", 0) > 0
        assert server.stats.replay_rejections > 0
        assert server.stats.puts == 30
        for i in range(30):
            assert client.get(b"key-%02d" % i) == b"v%02d" % i
