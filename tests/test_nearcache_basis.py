"""Conditional revalidation: a refused near-cache entry as the read's basis.

An entry whose lease ran out (or that an epoch fence or a claim change
refused) still revalidates over the verified read path, but the client
compares the reply with the entry's basis -- one-time key, ciphertext,
effective MAC -- and skips the payload crypto when all three are equal.
That memoizes a deterministic check on identical inputs, so the
equivalence test below demands the exact same observable run with and
without the basis: every read result and exception, the cache counters,
the integrity-failure count and every server's counters.
"""

import dataclasses
import random

import pytest

from repro.core import PrecursorClient, ServerConfig
from repro.crypto.keys import KeyGenerator
from repro.crypto.provider import CryptoProvider
from repro.errors import IntegrityError
from repro.faults.engine import FaultEngine
from repro.faults.schedule import FaultSchedule
from repro.obs import ManualClock, ObsContext
from repro.shard import ShardedClient, ShardedCluster

LEASE_NS = 3_000_000
STEP_NS = 1_000_000
KEYS = [b"key-%02d" % i for i in range(12)]


def _cluster(strict: bool = False):
    clock = ManualClock()
    cluster = ShardedCluster(
        shards=2, replicas=1, seed=5,
        obs=ObsContext.create(clock=clock),
        config=ServerConfig(strict_integrity=strict),
    )
    return cluster, clock


def _cached_router(cluster):
    return ShardedClient(
        cluster, near_cache=True, cache_lease_ns=LEASE_NS,
        keygen=KeyGenerator(seed=1), trace_ops=False,
    )


def _unchanged_total(cluster) -> int:
    registry = cluster.obs.registry
    return registry.get("client_cache_revalidations_unchanged_total").value


def _run(strict: bool):
    """A seeded run: two writers, an at-rest tamper, a promotion."""
    cluster, clock = _cluster(strict)
    router = _cached_router(cluster)
    other = ShardedClient(
        cluster, keygen=KeyGenerator(seed=2), trace_ops=False
    )
    rng = random.Random(11)
    log = []

    def read(key):
        clock.advance(STEP_NS)
        try:
            log.append(("get", key, router.get(key), router.last_read_path))
        except IntegrityError as exc:
            log.append(("get", key, type(exc).__name__, str(exc)))

    def phase(ops):
        for _ in range(ops):
            key = rng.choice(KEYS)
            roll = rng.random()
            if roll < 0.7:
                read(key)
            elif roll < 0.85:
                clock.advance(STEP_NS)
                router.put(key, b"own-%d" % rng.randrange(10**6) * 20)
            else:
                clock.advance(STEP_NS)
                other.put(key, b"other-%d" % rng.randrange(10**6) * 20)

    for key in KEYS:
        router.put(key, key * 40)
    phase(120)
    # Every key cached, every lease run out, then one payload flipped at
    # rest on its primary: the revalidation must still catch it.
    for key in KEYS:
        read(key)
    clock.advance(2 * LEASE_NS)
    engine = FaultEngine(FaultSchedule([]), seed=3)
    _server, victim = engine.tamper_stored(
        [cluster.server(name) for name in cluster.shards]
    )
    log.append(("tampered", victim))
    for key in KEYS:
        read(key)
    phase(80)
    log.append(("integrity_failures", router.integrity_failures))
    cluster.crash_shard(cluster.shards[0])  # promotion: an epoch fence
    for key in KEYS:
        read(key)
    phase(80)

    servers = [
        member
        for name in cluster.shards
        for member in cluster.group(name).members()
    ]
    return {
        "log": log,
        "cache": router.cache_stats(),
        "integrity_failures": router.integrity_failures,
        "servers": [dataclasses.asdict(s.stats) for s in servers],
        "unchanged": _unchanged_total(cluster),
    }


class TestEquivalence:
    @pytest.mark.parametrize("strict", [False, True], ids=["mac", "strict"])
    def test_basis_changes_nothing_observable(self, strict, monkeypatch):
        with_basis = _run(strict)
        plain_gets = PrecursorClient._gets
        monkeypatch.setattr(
            PrecursorClient, "_gets",
            lambda self, keys, bases=None: plain_gets(self, keys),
        )
        without = _run(strict)
        assert with_basis.pop("unchanged") > 0
        assert without.pop("unchanged") == 0
        assert with_basis == without
        log = with_basis["log"]
        caught = [e for e in log if e[0] == "get" and e[2] == "IntegrityError"]
        assert caught and ("integrity_failures", 0) not in log
        # The promotion replaced a session; its counts stay in the sum.
        logged = next(e[1] for e in log if e[0] == "integrity_failures")
        assert with_basis["integrity_failures"] >= logged


class TestUnchangedRevalidation:
    def test_skips_payload_crypto_renews_the_lease_and_counts(
        self, monkeypatch
    ):
        cluster, clock = _cluster()
        router = _cached_router(cluster)
        router.put(b"k", b"v" * 1024)
        router.drop_cache()
        assert router.get(b"k") == b"v" * 1024  # a verified read fills
        clock.advance(LEASE_NS)
        decrypts = []
        real = CryptoProvider.payload_decrypt
        monkeypatch.setattr(
            CryptoProvider, "payload_decrypt",
            lambda self, *a: decrypts.append(a) or real(self, *a),
        )
        assert router.get(b"k") == b"v" * 1024
        assert router.last_read_path == "primary"
        assert decrypts == []
        assert router.cache.expirations == 1
        assert _unchanged_total(cluster) == 1
        # The revalidation granted a fresh lease: the next read hits.
        assert router.get(b"k") == b"v" * 1024
        assert router.last_read_path == "cache"

    def test_put_ack_entry_serves_as_basis(self, monkeypatch):
        cluster, clock = _cluster()
        router = _cached_router(cluster)
        router.put(b"k", b"acked")
        entry = router.cache.peek(b"k")
        assert entry.k_operation and entry.ciphertext
        clock.advance(LEASE_NS)
        monkeypatch.setattr(
            CryptoProvider, "payload_decrypt",
            lambda *a: pytest.fail("payload crypto ran on unchanged bytes"),
        )
        assert router.get(b"k") == b"acked"
        assert _unchanged_total(cluster) == 1

    def test_tampered_ciphertext_raises_and_drops_the_entry(self):
        cluster, clock = _cluster()
        router = _cached_router(cluster)
        router.put(b"k", b"the-truth" * 8)
        clock.advance(LEASE_NS)
        server = cluster.server_for(b"k")
        server.payload_store.corrupt(server._lookup(b"k").ptr, flip_at=3)
        with pytest.raises(IntegrityError):
            router.get(b"k")
        assert router.integrity_failures == 1
        assert router.cache.peek(b"k") is None
        assert _unchanged_total(cluster) == 0

    @pytest.mark.parametrize("strict", [False, True], ids=["mac", "strict"])
    def test_tampered_stored_mac_is_judged_by_the_effective_mac(self, strict):
        cluster, clock = _cluster(strict)
        router = _cached_router(cluster)
        router.put(b"k", b"the-truth" * 8)
        clock.advance(LEASE_NS)
        server = cluster.server_for(b"k")
        ptr = server._lookup(b"k").ptr
        server.payload_store.corrupt(ptr, flip_at=ptr.length - 1)
        if strict:
            # The enclave-held MAC overrides the flipped one in untrusted
            # memory, so the reply still equals the basis.
            assert router.get(b"k") == b"the-truth" * 8
            assert _unchanged_total(cluster) == 1
        else:
            with pytest.raises(IntegrityError):
                router.get(b"k")
            assert _unchanged_total(cluster) == 0

    def test_rolled_back_payload_under_a_newer_key_is_caught(self):
        # The rogue administrator puts the old ciphertext and MAC back
        # after another writer's update: the bytes equal the basis, but
        # the enclave releases the newer one-time key.
        cluster, clock = _cluster()
        router = _cached_router(cluster)
        other = ShardedClient(cluster, trace_ops=False)
        router.put(b"k", b"old-value")
        server = cluster.server_for(b"k")
        old_blob = server.payload_store.load(server._lookup(b"k").ptr)
        other.put(b"k", b"new-value")
        ptr = server._lookup(b"k").ptr
        arena = server.payload_store._arenas[ptr.arena]
        arena[ptr.offset : ptr.offset + ptr.length] = old_blob
        clock.advance(LEASE_NS)
        with pytest.raises(IntegrityError):
            router.get(b"k")
        assert _unchanged_total(cluster) == 0

    def test_another_writers_value_runs_the_full_check(self):
        cluster, clock = _cluster()
        router = _cached_router(cluster)
        other = ShardedClient(cluster, trace_ops=False)
        router.put(b"k", b"mine")
        other.put(b"k", b"theirs")
        clock.advance(LEASE_NS)
        assert router.get(b"k") == b"theirs"
        assert _unchanged_total(cluster) == 0
