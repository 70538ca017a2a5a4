"""Pluggable crypto engines: ``reference`` (spec-mirroring) vs ``fast``.

Every cryptographic operation on Precursor's functional hot path --
Salsa20 payload encryption, AES-CMAC over ciphertext, AES-GCM transport
sealing -- goes through a :class:`CryptoEngine`.  Two engines ship:

- ``reference`` wraps the from-scratch, specification-mirroring modules
  (:mod:`~repro.crypto.salsa20`, :mod:`~repro.crypto.cmac`,
  :mod:`~repro.crypto.gcm`).  It is the ground truth the test vectors
  run against and stays deliberately readable.
- ``fast`` wraps the optimised kernels of
  :mod:`~repro.crypto.fastcrypto` (diagonal-lane Salsa20 core, T-table
  AES, table-driven GHASH, cached CMAC subkeys).  Its outputs are
  byte-identical to the reference engine's -- :func:`parity_check`
  and the ``tests/test_crypto_engine.py`` matrix enforce this, so the
  two engines interoperate freely (seal with one, open with the other).

Both engines keep a bounded per-key cache of GCM cipher objects, which
fixes the historic per-message key-schedule rebuild: sealing N messages
under one session key now expands the AES key schedule (and, on the
fast engine, the GHASH tables) exactly once.

Selection: :func:`default_engine` resolves, in order, an explicit
:func:`set_default_engine` call, the ``REPRO_CRYPTO_ENGINE`` environment
variable, and finally ``fast``.  :func:`use_engine` scopes an override
(the benchmark harness uses it to time both engines end to end).
"""

from __future__ import annotations

import hmac
import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.crypto import cmac as _cmac_module
from repro.crypto.fastcrypto import (
    FastAesGcm,
    FastCmac,
    FastSalsa20,
    _cmac_many,
    _salsa_many,
)
from repro.crypto.gcm import AesGcm
from repro.crypto.salsa20 import Salsa20
from repro.errors import ConfigurationError

__all__ = [
    "CryptoEngine",
    "ReferenceEngine",
    "FastEngine",
    "available_engines",
    "get_engine",
    "default_engine",
    "set_default_engine",
    "use_engine",
    "resolve_engine",
    "parity_check",
]

_ENV_VAR = "REPRO_CRYPTO_ENGINE"


class _KeyedCache:
    """A tiny bounded per-key object cache (sessions come and go)."""

    def __init__(self, factory, maxsize: int = 512):
        self._factory = factory
        self._maxsize = maxsize
        self._entries: Dict[bytes, object] = {}
        self._lock = threading.Lock()

    def get(self, key: bytes):
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        entry = self._factory(key)
        with self._lock:
            if len(self._entries) >= self._maxsize:
                self._entries.clear()
            self._entries[key] = entry
        return entry


class CryptoEngine:
    """Interface every engine implements; see the module docstring.

    Engines are stateless apart from bounded per-key caches, so one
    shared instance per engine name serves the whole process.
    """

    #: Registry name ("reference" / "fast").
    name = "abstract"

    #: Whether single-message transport calls draw their GCM masks from
    #: the session's keystream reservoirs.  The engine's GCM ciphers then
    #: offer ``masks``/``seal_masked``/``open_masked``
    #: (:class:`~repro.crypto.fastcrypto.FastAesGcm`); the reference
    #: engine stays the per-message spec mirror.
    keystream_reservoirs = False

    def salsa20_encrypt(
        self, key: bytes, nonce: bytes, data: bytes, counter: int = 0
    ) -> bytes:
        """Salsa20 XOR-keystream encryption (decryption is identical)."""
        raise NotImplementedError

    def aes_cmac(self, key: bytes, message: bytes) -> bytes:
        """AES-128-CMAC of ``message`` (32-byte keys are XOR-folded)."""
        raise NotImplementedError

    def salsa20_encrypt_many(self, items) -> list:
        """Salsa20 over ``(key, nonce, data)`` triples from counter 0.

        Byte-identical to one :meth:`salsa20_encrypt` per item, which is
        what this default does; engines may batch the work.
        """
        return [
            self.salsa20_encrypt(key, nonce, data) for key, nonce, data in items
        ]

    def aes_cmac_many(self, items) -> list:
        """AES-128-CMAC over ``(key, message)`` pairs, in order.

        Byte-identical to one :meth:`aes_cmac` per item, which is what
        this default does; engines may batch the work.
        """
        return [self.aes_cmac(key, message) for key, message in items]

    def cmac_verify(self, key: bytes, message: bytes, mac: bytes) -> bool:
        """Constant-time AES-CMAC verification."""
        return hmac.compare_digest(self.aes_cmac(key, message), mac)

    def gcm(self, key: bytes):
        """A cached AES-128-GCM cipher for ``key`` (``seal``/``open``)."""
        raise NotImplementedError


class ReferenceEngine(CryptoEngine):
    """The spec-mirroring primitives, with per-key GCM cipher caching."""

    name = "reference"

    def __init__(self):
        self._gcm_cache = _KeyedCache(AesGcm)

    def salsa20_encrypt(
        self, key: bytes, nonce: bytes, data: bytes, counter: int = 0
    ) -> bytes:
        """Salsa20 via the specification implementation."""
        return Salsa20(key, nonce).encrypt(data, counter)

    def aes_cmac(self, key: bytes, message: bytes) -> bytes:
        """RFC 4493 CMAC via the specification implementation."""
        return _cmac_module.aes_cmac(key, message)

    def gcm(self, key: bytes) -> AesGcm:
        """Cached :class:`~repro.crypto.gcm.AesGcm` for ``key``."""
        return self._gcm_cache.get(bytes(key))


class FastEngine(CryptoEngine):
    """The optimised kernels of :mod:`repro.crypto.fastcrypto`."""

    name = "fast"
    keystream_reservoirs = True

    def __init__(self):
        self._gcm_cache = _KeyedCache(FastAesGcm)
        self._cmac_cache = _KeyedCache(FastCmac)

    def salsa20_encrypt(
        self, key: bytes, nonce: bytes, data: bytes, counter: int = 0
    ) -> bytes:
        """Salsa20 via the unrolled multi-block core."""
        return FastSalsa20(key, nonce).encrypt(data, counter)

    def aes_cmac(self, key: bytes, message: bytes) -> bytes:
        """CMAC with cached key schedule and subkeys."""
        return self._cmac_cache.get(bytes(key)).mac(message)

    def salsa20_encrypt_many(self, items) -> list:
        """Every block of every message in one lane pass, per-lane keys."""
        return _salsa_many(items)

    def aes_cmac_many(self, items) -> list:
        """The messages' CBC chains side by side in the lane AES kernel."""
        return _cmac_many(items)

    def gcm(self, key: bytes) -> FastAesGcm:
        """Cached :class:`~repro.crypto.fastcrypto.FastAesGcm` for ``key``."""
        return self._gcm_cache.get(bytes(key))


_ENGINES = {
    ReferenceEngine.name: ReferenceEngine,
    FastEngine.name: FastEngine,
}
_INSTANCES: Dict[str, CryptoEngine] = {}
_DEFAULT_OVERRIDE: Optional[str] = None


def available_engines() -> List[str]:
    """Registered engine names, sorted."""
    return sorted(_ENGINES)


def get_engine(name: str) -> CryptoEngine:
    """The shared engine instance for ``name``; raises on unknown names."""
    try:
        factory = _ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown crypto engine {name!r} "
            f"(available: {', '.join(available_engines())})"
        ) from None
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = factory()
    return instance


def default_engine() -> CryptoEngine:
    """The process-wide engine: override > ``$REPRO_CRYPTO_ENGINE`` > fast."""
    if _DEFAULT_OVERRIDE is not None:
        return get_engine(_DEFAULT_OVERRIDE)
    return get_engine(os.environ.get(_ENV_VAR) or FastEngine.name)


def set_default_engine(name: Optional[str]) -> None:
    """Pin the default engine (``None`` restores env-var resolution)."""
    global _DEFAULT_OVERRIDE
    if name is not None:
        get_engine(name)  # validate eagerly
    _DEFAULT_OVERRIDE = name


@contextmanager
def use_engine(name: str) -> Iterator[CryptoEngine]:
    """Scope the default engine to ``name`` for a ``with`` block."""
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    set_default_engine(name)
    try:
        yield get_engine(name)
    finally:
        _DEFAULT_OVERRIDE = previous


def resolve_engine(
    engine: Union[None, str, CryptoEngine]
) -> CryptoEngine:
    """Normalise an engine argument: instance, name, or None (default)."""
    if engine is None:
        return default_engine()
    if isinstance(engine, CryptoEngine):
        return engine
    return get_engine(engine)


def parity_check(seed: int = 2021, rounds: int = 8) -> List[str]:
    """Cross-engine parity self-check; returns failure descriptions.

    Encrypts with each engine and decrypts/verifies with the other over
    deterministic pseudo-random payload and transport messages, plus the
    canonical empty/short/block-aligned edge sizes, single Salsa20
    blocks at the edges of the block counter's two words, and one fast
    GCM cipher reused across several AADs.  An empty list
    means the fast path cannot have silently diverged from the reference.
    """
    import hashlib

    ref = get_engine("reference")
    fast = get_engine("fast")
    failures: List[str] = []

    def rand(tag: bytes, size: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < size:
            out.extend(
                hashlib.sha256(
                    tag + seed.to_bytes(8, "big") + counter.to_bytes(8, "big")
                ).digest()
            )
            counter += 1
        return bytes(out[:size])

    sizes = [0, 1, 15, 16, 17, 63, 64, 65, 256, 1024]
    for r in range(rounds):
        sizes.append(37 * (r + 1) + r)
    for size in sizes:
        tag = b"payload-%d" % size
        key32 = rand(tag + b"k", 32)
        nonce = rand(tag + b"n", 8)
        data = rand(tag + b"d", size)
        ct_ref = ref.salsa20_encrypt(key32, nonce, data)
        ct_fast = fast.salsa20_encrypt(key32, nonce, data)
        if ct_ref != ct_fast:
            failures.append(f"salsa20 ciphertext differs at {size} B")
        if fast.salsa20_encrypt(key32, nonce, ct_ref) != data:
            failures.append(f"fast failed to decrypt reference at {size} B")
        mac_ref = ref.aes_cmac(key32, ct_ref)
        mac_fast = fast.aes_cmac(key32, ct_fast)
        if mac_ref != mac_fast:
            failures.append(f"cmac differs at {size} B")
        if not fast.cmac_verify(key32, ct_ref, mac_ref):
            failures.append(f"fast rejects reference cmac at {size} B")
        if not ref.cmac_verify(key32, ct_fast, mac_fast):
            failures.append(f"reference rejects fast cmac at {size} B")

        key16 = rand(tag + b"s", 16)
        iv = rand(tag + b"i", 12)
        aad = rand(tag + b"a", size % 48)
        sealed_ref = ref.gcm(key16).seal(iv, data, aad)
        sealed_fast = fast.gcm(key16).seal(iv, data, aad)
        if sealed_ref != sealed_fast:
            failures.append(f"gcm sealed bytes differ at {size} B")
        try:
            if fast.gcm(key16).open(iv, sealed_ref, aad) != data:
                failures.append(f"fast gcm misdecrypts reference at {size} B")
            if ref.gcm(key16).open(iv, sealed_fast, aad) != data:
                failures.append(f"reference gcm misdecrypts fast at {size} B")
        except Exception as exc:  # pragma: no cover - parity failure detail
            failures.append(f"cross-engine gcm open raised at {size} B: {exc}")

        # Batch APIs: the fused fast kernels must match both the
        # reference loop and their own per-call outputs, and a tampered
        # entry must fail alone (None) without touching its batch-mates.
        batch = [
            (rand(tag + b"bi%d" % j, 12), rand(tag + b"bd%d" % j, size), aad)
            for j in range(3)
        ]
        sealed_many_ref = ref.gcm(key16).seal_many(batch)
        sealed_many_fast = fast.gcm(key16).seal_many(batch)
        if sealed_many_ref != sealed_many_fast:
            failures.append(f"gcm seal_many differs at {size} B")
        percall = [fast.gcm(key16).seal(*entry) for entry in batch]
        if sealed_many_fast != percall:
            failures.append(f"fast seal_many != per-call seal at {size} B")
        opened = [
            (biv, blob, baad)
            for (biv, _bd, baad), blob in zip(batch, sealed_many_fast)
        ]
        tampered = list(opened)
        blob = bytearray(tampered[1][1])
        blob[0] ^= 0x01
        tampered[1] = (tampered[1][0], bytes(blob), tampered[1][2])
        for engine in (ref, fast):
            plains = engine.gcm(key16).open_many(tampered)
            expected = [batch[0][1], None, batch[2][1]]
            if plains != expected:
                failures.append(
                    f"{engine.name} open_many tamper isolation broke "
                    f"at {size} B"
                )
    # One Salsa20 block runs the fast engine's diagonal core, whose two
    # counter words sit in different diagonals: sweep both words' edges.
    for counter in (2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1):
        for key in (rand(b"ctr-k", 32), rand(b"ctr-k", 16)):
            args = (key, rand(b"ctr-n", 8), bytes(64), counter)
            if fast.salsa20_encrypt(*args) != ref.salsa20_encrypt(*args):
                failures.append(f"salsa20 block differs at counter {counter:#x}")
    failures += _lane_parity(ref, fast, rand)
    failures += _reservoir_parity(ref, rand)
    failures += _reused_cipher_parity(ref, rand)
    return failures


def _lane_parity(ref, fast, rand) -> List[str]:
    """Payload batch APIs on both engines against per-call reference.

    One batch mixes message lengths and 16-/32-byte keys; fast-engine
    batches then straddle the lane kernels' scalar fallback
    (``_LANE_MIN``) and their per-pass lane cap (``_LANE_BATCH``).
    """
    from repro.crypto.fastcrypto import _LANE_BATCH, _LANE_MIN
    from repro.crypto.provider import CryptoProvider, EncryptedPayload

    failures: List[str] = []
    mixed = [
        (rand(b"lane-k%d" % j, 16 if j % 2 else 32), rand(b"lane-m%d" % j, size))
        for j, size in enumerate((0, 1, 15, 16, 17, 4096, 17, 16, 1, 0))
    ]
    salsa_items = [(key, rand(b"lane-n", 8), msg) for key, msg in mixed]
    salsa_expected = [ref.salsa20_encrypt(*item) for item in salsa_items]
    cmac_expected = [ref.aes_cmac(*item) for item in mixed]
    for engine in (ref, fast):
        if engine.salsa20_encrypt_many(salsa_items) != salsa_expected:
            failures.append(f"{engine.name} salsa20_encrypt_many differs")
        if engine.aes_cmac_many(mixed) != cmac_expected:
            failures.append(f"{engine.name} aes_cmac_many differs")
    for count in (_LANE_MIN - 1, _LANE_MIN, _LANE_BATCH + 1):
        items = [
            (rand(b"cnt-k%d" % j, 32), rand(b"cnt-m%d" % j, 1 + j % 40))
            for j in range(count)
        ]
        if fast.aes_cmac_many(items) != [fast.aes_cmac(*i) for i in items]:
            failures.append(f"fast aes_cmac_many differs at {count} lanes")
        gcm = fast.gcm(rand(b"cnt-s", 16))
        sealed = [
            (rand(b"cnt-i%d" % j, 12), msg, b"")
            for j, (_key, msg) in enumerate(items)
        ]
        if gcm.seal_many(sealed) != [gcm.seal(*entry) for entry in sealed]:
            failures.append(f"fast gcm seal_many differs at {count} messages")
    for engine in (ref, fast):
        provider = CryptoProvider(engine=engine)
        payloads = provider.payload_encrypt_many(mixed)
        if payloads != [provider.payload_encrypt(*pair) for pair in mixed]:
            failures.append(f"{engine.name} payload_encrypt_many differs")
        bad = payloads[3]
        flipped = bytes([bad.mac[0] ^ 1]) + bad.mac[1:]
        payloads[3] = EncryptedPayload(ciphertext=bad.ciphertext, mac=flipped)
        opened = provider.payload_decrypt_many(
            [(key, payload) for (key, _msg), payload in zip(mixed, payloads)]
        )
        expected = [msg for _key, msg in mixed]
        expected[3] = None
        if opened != expected:
            failures.append(
                f"{engine.name} payload_decrypt_many tamper isolation broke"
            )
    return failures


def _reservoir_parity(ref, rand) -> List[str]:
    """Single-message transport through the keystream reservoirs.

    A fast-engine provider seals 3N+1 sequential messages of 0-80 B,
    one longer than the held blocks and one after an IV jump; each must
    equal the reference engine's per-message seal.  A second endpoint
    opens them all through its own reservoir, and one flipped tag must
    fail at its index only.
    """
    from repro.crypto.keys import RESERVOIR_BLOCKS, RESERVOIR_IVS, SessionKey
    from repro.crypto.provider import CryptoProvider, SealedMessage
    from repro.errors import AuthenticationError

    failures: List[str] = []
    provider = CryptoProvider(engine="fast")
    key = rand(b"res-key", 16)
    reference = ref.gcm(key)
    sealer = SessionKey(key=key, client_id=7)
    opener = SessionKey(key=key, client_id=7)
    long_at, jump_at, flipped = 3, RESERVOIR_IVS + 2, 2 * RESERVOIR_IVS + 1
    sent = []
    for j in range(3 * RESERVOIR_IVS + 1):
        if j == jump_at:
            for _ in range(5):
                sealer.next_iv()  # drawn by calls that bypass the reservoir
        size = 16 * (RESERVOIR_BLOCKS + 1) if j == long_at else (j * 7) % 65
        plaintext, aad = rand(b"res-m%d" % j, size), rand(b"res-a%d" % j, j % 9)
        message = provider.transport_seal(sealer, plaintext, aad)
        if message.sealed != reference.seal(message.iv, plaintext, aad):
            failures.append(f"reservoir seal differs from reference at {j}")
        if j == flipped:
            blob = message.sealed[:-1] + bytes([message.sealed[-1] ^ 1])
            message = SealedMessage(iv=message.iv, sealed=blob)
            plaintext = None
        sent.append((message, plaintext, aad))
    for j, (message, plaintext, aad) in enumerate(sent):
        try:
            opened = provider.transport_open(opener, message, aad)
        except AuthenticationError:
            opened = None
        if opened != plaintext:
            failures.append(f"reservoir open wrong at {j}")
    if not (sealer.seal_reservoir.hits and opener.open_reservoir.hits):
        failures.append("reservoir parity never drew from a reservoir")
    return failures


def _reused_cipher_parity(ref, rand) -> List[str]:
    """One fast GCM cipher meets several AADs, call after call.

    Every size above seals under a key of its own, so no other case
    reaches a cipher's kept post-AAD GHASH states with a second AAD.
    Here one cipher seals and opens the same messages per call, as one
    batch and through a pair of reservoirs, under alternating AADs of
    zero, one and two blocks; every seal must equal the reference's.
    A second key then seals under an AAD the first has kept.
    """
    from repro.crypto.fastcrypto import FastAesGcm
    from repro.crypto.gcm import GcmFailure
    from repro.crypto.keys import KeystreamReservoir

    failures: List[str] = []
    key = rand(b"reuse-key", 16)
    gcm = FastAesGcm(key)
    aads = (b"", rand(b"reuse-a4", 4), b"", rand(b"reuse-a24", 24))
    items = [
        ((0x5E55 + j).to_bytes(12, "big"), rand(b"reuse-m%d" % j, 9 * j), aad)
        for j, aad in enumerate(aads + aads[1:])
    ]
    expected = [ref.gcm(key).seal(*item) for item in items]
    if [gcm.seal(*item) for item in items] != expected:
        failures.append("reused fast gcm seal differs from reference")
    plaintexts = [plaintext for _iv, plaintext, _aad in items]
    sealed = [(iv, blob, aad) for (iv, _pt, aad), blob in zip(items, expected)]
    try:
        opened = [gcm.open(*entry) for entry in sealed]
    except GcmFailure:
        opened = None
    if opened != plaintexts:
        failures.append("reused fast gcm open misdecrypts reference")
    if gcm.seal_many(items) != expected:
        failures.append("reused fast gcm seal_many differs from reference")
    iv, blob, aad = sealed[2]
    tampered = sealed[:2] + [(iv, blob[:-1] + bytes([blob[-1] ^ 1]), aad)]
    opened = gcm.open_many(tampered + sealed[3:])
    if opened != plaintexts[:2] + [None] + plaintexts[3:]:
        failures.append("reused fast gcm open_many tamper isolation broke")
    sealer, opener = KeystreamReservoir(), KeystreamReservoir()
    for j, ((iv, plaintext, aad), blob) in enumerate(zip(items, expected)):
        if sealer.seal(gcm, iv, plaintext, aad) != blob:
            failures.append(f"reused fast gcm reservoir seal differs at {j}")
        if opener.open(gcm, iv, blob, aad) != plaintext:
            failures.append(f"reused fast gcm reservoir open wrong at {j}")
    other = rand(b"reuse-key2", 16)
    if FastAesGcm(other).seal(*items[1]) != ref.gcm(other).seal(*items[1]):
        failures.append("a second fast gcm key took the first key's AAD state")
    return failures
