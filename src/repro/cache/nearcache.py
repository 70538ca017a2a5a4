"""The client-side authenticated near-cache.

Precursor's thesis is that the *client* owns the integrity machinery: it
computes the payload MAC of every write and verifies it on every read.
That makes a client-side read cache unusually cheap to make safe -- the
client already holds, per key, the MAC of the last acknowledged write
(:class:`~repro.replica.FreshnessTracker`), so a cached value is
servable if and only if its stored MAC still equals the tracker's
claim.  No server cooperation, no extra round trip, no oracle.

A cache **hit** requires every one of:

1. an entry exists for the key digest;
2. the entry's self-checksum verifies (a corrupted cached value or MAC
   is dropped and counted, never served);
3. the entry's ring **epoch** equals the authoritative map epoch --
   failover promotions and migrations bump the epoch, so every entry
   cached before the fence dies with it (this is what makes a cached
   read across a promotion safe);
4. the entry's **lease** has not expired on the simulated clock
   (bounded staleness against other writers: an entry can never outlive
   ``lease_ns``);
5. the caller's freshness claim for the key exists, claims a value (not
   a tombstone), and its MAC equals the entry's MAC.

Anything less is a **miss**: the router falls through to a verified
network read (a transparent revalidation round trip), which -- with a
strict tracker -- still raises
:class:`~repro.errors.StaleReadError` if the store contradicts the
claim.  A stale hit therefore surfaces as revalidation or a typed
error, never as a wrong value.

Every entry also keeps the **basis** of its value: the one-time key
``K_operation`` and the ciphertext the value was verified (or, for an
acked write, encrypted) under, beside the MAC.  An intact entry that
rules 3-5 refuse is handed to the revalidation as that basis
(:attr:`NearCache.refused`): when the reply's enclave-sealed key, its
ciphertext and its effective MAC all equal the basis byte for byte,
:meth:`~repro.core.client.PrecursorClient.get` returns the basis value
without running the MAC check again -- the check is deterministic, and
these are the inputs it already passed.  A lease is therefore granted
by a fill that was either verified or byte-identical to a verified
entry; the enclave round trip that proves freshness always runs.

The cache is bounded (LRU on fills and hits) and keyed by the SHA-256
digest of the key, so its memory footprint is independent of key sizes
and its iteration order is deterministic for one workload.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["CacheEntry", "NearCache"]

#: Default entry budget: small enough to be an L1-like near-cache,
#: large enough to hold a traffic tenant's whole hot set.
DEFAULT_CAPACITY = 256

#: Default lease: 25 ms of simulated time.  The lease bounds how long a
#: hit may be served without revalidation, which is exactly the window
#: another writer's update can stay invisible to this client.
DEFAULT_LEASE_NS = 25_000_000


def _digest(key: bytes) -> bytes:
    return hashlib.sha256(bytes(key)).digest()[:16]


def _checksum(
    key: bytes,
    value: bytes,
    mac: bytes,
    k_operation: bytes = b"",
    ciphertext: bytes = b"",
) -> bytes:
    fields = (b"nearcache", key, value, mac, k_operation, ciphertext)
    return hashlib.sha256(b";".join(fields)).digest()[:8]


@dataclass
class CacheEntry:
    """One cached read: the value plus everything needed to trust it."""

    key: bytes
    value: bytes
    mac: bytes
    shard: str
    epoch: int
    expires_ns: int
    #: Self-checksum over (key, value, mac, k_operation, ciphertext): an
    #: entry corrupted in cache memory fails this and is dropped rather
    #: than served or used as a basis.
    check: bytes
    #: The basis: the one-time key and ciphertext ``value`` was verified
    #: (or encrypted) under.  Empty when the filler had none; an empty
    #: basis never equals a reply.
    k_operation: bytes = b""
    ciphertext: bytes = b""

    def intact(self) -> bool:
        """True when the entry's bytes still match its fill-time checksum."""
        return self.check == _checksum(
            self.key, self.value, self.mac, self.k_operation, self.ciphertext
        )


class NearCache:
    """Bounded LRU of client-verified reads; see the module docstring."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        lease_ns: int = DEFAULT_LEASE_NS,
        clock=None,
    ):
        if capacity < 1:
            raise ConfigurationError(
                f"near-cache capacity must be >= 1, got {capacity}"
            )
        if lease_ns < 1:
            raise ConfigurationError(
                f"near-cache lease must be >= 1 ns, got {lease_ns}"
            )
        self.capacity = capacity
        self.lease_ns = lease_ns
        self._clock = clock
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()

        #: Lifetime counters (the router exports these as ``client_*``).
        self.hits = 0
        self.misses = 0
        #: Misses that found an entry but could not serve it -- each one
        #: becomes a transparent revalidation round trip.
        self.revalidations = 0
        self.expirations = 0
        self.epoch_drops = 0
        self.claim_mismatches = 0
        self.integrity_drops = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0
        #: The intact entry the latest :meth:`lookup` refused by rule 3,
        #: 4 or 5, else None: the basis its revalidation may pass to
        #: :meth:`~repro.core.client.PrecursorClient.get`.
        self.refused: Optional[CacheEntry] = None

    # -- clock -------------------------------------------------------------

    def _now_ns(self) -> int:
        if self._clock is None:
            return 0
        return self._clock.now_ns()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> int:
        """Live entry count."""
        return len(self._entries)

    def peek(self, key: bytes) -> Optional[CacheEntry]:
        """The raw entry for ``key`` with no validation or LRU effect.

        Test/chaos introspection only -- serving decisions go through
        :meth:`lookup`.
        """
        return self._entries.get(_digest(key))

    # -- the read path -----------------------------------------------------

    def lookup(self, key: bytes, epoch: int, expected_mac: bytes) -> Optional[bytes]:
        """Serve ``key`` from cache, or None (then the caller revalidates).

        ``epoch`` is the *authoritative* ring epoch and ``expected_mac``
        the caller's freshness claim for the key; rules 1-5 of the
        module docstring decide the outcome.  A served hit refreshes the
        entry's LRU position but never its lease -- leases are granted
        by fills (verified network reads), not by hits, so a hot entry
        still revalidates every ``lease_ns``.  An entry refused by rule
        3, 4 or 5 is dropped all the same, and left in :attr:`refused`
        as the revalidation's basis.
        """
        self.refused = None
        digest = _digest(key)
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        if not entry.intact():
            # Bit-flipped in cache memory: drop it, never serve it.  The
            # read falls through to the verified network path.
            del self._entries[digest]
            self.integrity_drops += 1
            self.misses += 1
            self.revalidations += 1
            return None
        if entry.epoch != epoch:
            # A failover/migration fence bumped the ring epoch after
            # this entry was cached; everything before the fence is
            # suspect (the new primary may have lost the async tail).
            self.epoch_drops += 1
        elif self._now_ns() >= entry.expires_ns:
            self.expirations += 1
        elif bytes(expected_mac) != entry.mac:
            # The claim moved past the cached version (our own newer
            # write, or an advisory-mode adoption of someone else's).
            self.claim_mismatches += 1
        else:
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry.value
        del self._entries[digest]
        self.misses += 1
        self.revalidations += 1
        self.refused = entry
        return None

    # -- fills and invalidation --------------------------------------------

    def fill(
        self,
        key: bytes,
        value: bytes,
        mac: bytes,
        shard: str,
        epoch: int,
        k_operation: bytes = b"",
        ciphertext: bytes = b"",
    ) -> CacheEntry:
        """Cache a *verified* read or acked write under a fresh lease.

        ``k_operation`` and ``ciphertext`` are the value's basis (see
        the module docstring).
        """
        key = bytes(key)
        value = bytes(value)
        mac = bytes(mac)
        k_operation = bytes(k_operation)
        ciphertext = bytes(ciphertext)
        digest = _digest(key)
        entry = CacheEntry(
            key=key,
            value=value,
            mac=mac,
            shard=shard,
            epoch=epoch,
            expires_ns=self._now_ns() + self.lease_ns,
            check=_checksum(key, value, mac, k_operation, ciphertext),
            k_operation=k_operation,
            ciphertext=ciphertext,
        )
        if digest in self._entries:
            del self._entries[digest]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[digest] = entry
        self.fills += 1
        return entry

    def invalidate(self, key: bytes) -> bool:
        """Drop ``key``'s entry (own delete / unknown-outcome mutation)."""
        removed = self._entries.pop(_digest(key), None) is not None
        if removed:
            self.invalidations += 1
        return removed

    def drop_shard(self, shard: str) -> int:
        """Drop every entry owned by ``shard`` (failover hygiene).

        Epoch validation already refuses pre-fence entries lazily; this
        frees their space eagerly when the router *knows* a shard's
        primary changed under it.
        """
        victims = [
            digest
            for digest, entry in self._entries.items()
            if entry.shard == shard
        ]
        for digest in victims:
            del self._entries[digest]
        self.invalidations += len(victims)
        return len(victims)

    def drop_moved(self, owner_of) -> int:
        """Drop every entry whose key's owner is no longer its fill shard.

        The voluntary-migration counterpart of :meth:`drop_shard`: on a
        shard join/leave the epoch fence already refuses *every*
        pre-change entry lazily, but entries whose keys actually moved
        should not sit in the LRU waiting to fail validation one by
        one.  ``owner_of`` maps a key to its owner under the *new* map;
        entries are kept with their full key bytes precisely so this
        recheck is possible.
        """
        victims = [
            digest
            for digest, entry in self._entries.items()
            if owner_of(entry.key) != entry.shard
        ]
        for digest in victims:
            del self._entries[digest]
        self.invalidations += len(victims)
        return len(victims)

    def clear(self) -> int:
        """Drop everything (harness readbacks bypass the cache this way)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for reports and metrics export."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "lease_ns": self.lease_ns,
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "expirations": self.expirations,
            "epoch_drops": self.epoch_drops,
            "claim_mismatches": self.claim_mismatches,
            "integrity_drops": self.integrity_drops,
            "fills": self.fills,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
