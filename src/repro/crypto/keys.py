"""Key generation and session-key material.

The paper distinguishes two key kinds (§3.4):

- ``K_session`` -- a symmetric key shared between a client and the server
  enclave, established during remote attestation, used for transport
  encryption (AES-GCM) of control data.
- ``K_operation`` -- a fresh 256-bit one-time key generated by the client
  for every ``put()``, used to encrypt the payload (Salsa20) and MAC it
  (CMAC).  One-time keys give forward secrecy and revocation without
  re-encryption.

Key material comes from a :class:`KeyGenerator`, which wraps a CSPRNG by
default but accepts a seed for reproducible tests and simulations.

Each :class:`SessionKey` also holds two :class:`KeystreamReservoir`
objects: GCM masks precomputed for its own next IVs and for its peer's.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "KeyGenerator",
    "KeystreamReservoir",
    "SessionKey",
    "RESERVOIR_IVS",
    "RESERVOIR_BLOCKS",
    "RESERVOIR_BYTES",
]

#: IVs one reservoir refill covers.
RESERVOIR_IVS = 8
#: Keystream blocks held per IV: every control segment up to 64 B.
RESERVOIR_BLOCKS = 4
#: Key material one session holds across its two reservoirs: per IV,
#: E_K(J0) plus the keystream blocks.
RESERVOIR_BYTES = 2 * RESERVOIR_IVS * (RESERVOIR_BLOCKS + 1) * 16


class KeyGenerator:
    """Source of one-time keys, session keys and IVs.

    With ``seed=None`` the generator uses ``os.urandom`` (cryptographically
    secure).  With an integer seed it becomes a deterministic SHA-256-based
    expander -- *never* use a seeded generator outside tests/simulation, but
    determinism is essential there for reproducible experiments.
    """

    OPERATION_KEY_SIZE = 32  # 256-bit Salsa20 key (paper §4)
    SESSION_KEY_SIZE = 16  # AES-128-GCM key
    IV_SIZE = 12
    NONCE_SIZE = 8

    def __init__(self, seed: int = None, engine=None):
        self._seed = seed
        self._counter = 0
        #: Crypto engine (name or instance) components built from this
        #: generator should use; ``None`` means the process default.
        #: :class:`~repro.crypto.provider.CryptoProvider` and the session
        #: ciphers pick it up, so one constructor argument threads engine
        #: selection through client, server, sealing and baselines.
        self.engine = engine

    @property
    def deterministic(self) -> bool:
        """True when this generator was seeded (test/simulation mode)."""
        return self._seed is not None

    def _random(self, size: int) -> bytes:
        if self._seed is None:
            return os.urandom(size)
        out = bytearray()
        while len(out) < size:
            self._counter += 1
            out.extend(
                hashlib.sha256(
                    struct.pack(">QQ", self._seed, self._counter)
                ).digest()
            )
        return bytes(out[:size])

    def operation_key(self) -> bytes:
        """A fresh 256-bit one-time payload key (``KeyGen()`` in Alg. 1)."""
        return self._random(self.OPERATION_KEY_SIZE)

    def session_key(self) -> bytes:
        """A fresh 128-bit transport key (established at attestation)."""
        return self._random(self.SESSION_KEY_SIZE)

    def iv(self) -> bytes:
        """A fresh 96-bit GCM IV."""
        return self._random(self.IV_SIZE)

    def nonce(self) -> bytes:
        """A fresh 64-bit Salsa20 nonce."""
        return self._random(self.NONCE_SIZE)


class KeystreamReservoir:
    """GCM masks precomputed for the next IVs of one session direction.

    A GCM message's AES work -- E_K(J0) for the tag and the CTR
    keystream -- depends only on the key and the IV, and transport IVs
    are consecutive (``client_id || counter``), so both ends know them
    before any message exists.  A reservoir holds that work for up to
    :data:`RESERVOIR_IVS` consecutive IVs, :data:`RESERVOIR_BLOCKS`
    keystream blocks each, and one lane pass of the cipher's ``masks``
    refills it.  Using an entry drops it together with every earlier
    one, so no entry is used twice.

    - :meth:`seal` refills when its IV is not held.
    - :meth:`open` takes a one-IV pass when its IV is not held, and
      refills from the successor only once a message authenticates and
      no later IV is held: a forged or replayed frame never costs a
      refill.
    - A message longer than the held blocks takes a one-IV pass.

    ``hits`` counts calls whose IV was held and ``misses`` the others.
    The owner may :meth:`watch` the reservoir: the server mirrors the
    counts into its metrics.
    """

    __slots__ = ("hits", "misses", "_next", "_masks", "_tally")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        #: IV, as an integer, of ``_masks[0]``.
        self._next = 0
        self._masks: List[bytes] = []
        self._tally = None

    def watch(self, tally: Tuple) -> None:
        """Mirror the counts into ``tally``: a hits and a misses counter."""
        self._tally = tally

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if self._tally is not None:
            self._tally[0 if hit else 1].value += 1

    def _take(self, iv: int) -> Optional[bytes]:
        """The mask held for ``iv``, dropped with every earlier entry."""
        index = iv - self._next
        masks = self._masks
        if 0 <= index < len(masks):
            mask = masks[index]
            del masks[: index + 1]
            self._next = iv + 1
            return mask
        return None

    def _refill(self, gcm, first: int) -> None:
        """Masks for the :data:`RESERVOIR_IVS` IVs from ``first`` on."""
        self._masks = gcm.masks(
            [(first + i).to_bytes(12, "big") for i in range(RESERVOIR_IVS)],
            [RESERVOIR_BLOCKS] * RESERVOIR_IVS,
        )
        self._next = first

    def seal(self, gcm, iv: bytes, plaintext: bytes, aad: bytes) -> bytes:
        """``gcm.seal(iv, plaintext, aad)``, its AES work drawn from here."""
        position = int.from_bytes(iv, "big")
        mask = self._take(position)
        if len(plaintext) > 16 * RESERVOIR_BLOCKS:
            self._count(False)
            return gcm.seal(iv, plaintext, aad)
        self._count(mask is not None)
        if mask is None:
            self._refill(gcm, position)
            mask = self._take(position)
        return gcm.seal_masked(mask, plaintext, aad)

    def open(self, gcm, iv: bytes, sealed: bytes, aad: bytes) -> Optional[bytes]:
        """``gcm.open_many([(iv, sealed, aad)])[0]``, its AES work drawn
        from here: the plaintext, or ``None`` when authentication fails."""
        position = int.from_bytes(iv, "big")
        mask = self._take(position)
        if len(sealed) > 16 * (RESERVOIR_BLOCKS + 1):
            mask = None
        self._count(mask is not None)
        if mask is None:
            plaintext = gcm.open_many([(iv, sealed, aad)])[0]
        else:
            plaintext = gcm.open_masked(mask, sealed, aad)
        # Refill only past everything held or already passed, so an
        # authentic but replayed frame never triggers one either.
        if plaintext is not None and self._next + len(self._masks) <= position + 1:
            self._refill(gcm, position + 1)
        return plaintext


@dataclass
class SessionKey:
    """Transport-encryption state for one client/enclave pair.

    Holds the AES-GCM key plus a monotonically increasing IV counter so IVs
    never repeat under the same key within a session.  Both endpoints derive
    IVs from their own counters; the IV always travels with the message.
    Each endpoint's session also holds two keystream reservoirs: one for
    its own next IVs (``seal_reservoir``) and one for its peer's
    (``open_reservoir``).  A new session -- re-attestation, reconnect --
    starts with both empty.
    """

    key: bytes
    client_id: int
    _iv_counter: int = field(default=0, repr=False)
    seal_reservoir: KeystreamReservoir = field(
        default_factory=KeystreamReservoir, init=False, repr=False, compare=False
    )
    open_reservoir: KeystreamReservoir = field(
        default_factory=KeystreamReservoir, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.key) != KeyGenerator.SESSION_KEY_SIZE:
            raise ConfigurationError(
                f"session key must be {KeyGenerator.SESSION_KEY_SIZE} bytes"
            )
        if self.client_id < 0 or self.client_id > 0xFFFFFFFF:
            raise ConfigurationError(
                f"client_id must fit 32 bits, got {self.client_id}"
            )

    def next_iv(self) -> bytes:
        """Derive the next unique 96-bit IV: client_id || counter."""
        self._iv_counter += 1
        return struct.pack(">IQ", self.client_id, self._iv_counter)

    def next_ivs(self, count: int) -> List[bytes]:
        """The next ``count`` IVs in order, as ``count`` :meth:`next_iv` calls."""
        first = self._iv_counter + 1
        self._iv_counter += count
        client_id = self.client_id
        return [
            struct.pack(">IQ", client_id, counter)
            for counter in range(first, first + count)
        ]

    def cipher(self, engine=None):
        """The (engine-cached) AES-GCM cipher for this session's key.

        Repeated calls under one engine return the same object, so the
        key schedule and GHASH tables are built once per session
        instead of once per message.
        """
        from repro.crypto.engine import resolve_engine

        return resolve_engine(engine).gcm(self.key)
