"""High-level crypto operations used by clients and servers.

:class:`CryptoProvider` bundles the paper's two encryption paths:

- **payload path** (client-side only): Salsa20 encryption of the value
  under a one-time key plus an AES-CMAC over the ciphertext;
- **transport path** (client <-> enclave): AES-128-GCM authenticated
  encryption of control data under the session key
  (``auth-encrypt``/``auth-decrypt`` in the paper's notation, §3.4).

Both paths run on a pluggable :class:`~repro.crypto.engine.CryptoEngine`
(``reference`` or ``fast``; see :mod:`repro.crypto.engine`).  The engine
keeps a bounded per-key cache of GCM cipher objects, so sealing N
messages under one session key expands the AES key schedule once
instead of once per message.

Everything here runs real cryptography; the simulator never calls these on
its hot path (it charges the :class:`~repro.crypto.costmodel.CryptoCostModel`
instead), so correctness and performance modelling stay decoupled.
"""

from __future__ import annotations

import hmac
from typing import NamedTuple

from repro.crypto.engine import resolve_engine
from repro.crypto.gcm import GcmFailure
from repro.crypto.keys import KeyGenerator, SessionKey
from repro.errors import AuthenticationError, IntegrityError

__all__ = ["CryptoProvider", "SealedMessage", "EncryptedPayload"]

# Salsa20 nonce used with one-time keys.  A fixed nonce is safe *only*
# because K_operation never encrypts more than one message (fresh key per
# put(), paper §3.3); re-keying is what provides uniqueness.
_ONE_TIME_NONCE = b"\x00" * 8


class SealedMessage(NamedTuple):
    """Transport-encrypted control data: IV plus GCM ciphertext-and-tag.

    Immutable; a named tuple because every frame builds one on each end.
    """

    iv: bytes
    sealed: bytes

    def size(self) -> int:
        """Total bytes on the wire."""
        return len(self.iv) + len(self.sealed)


class EncryptedPayload(NamedTuple):
    """Client-encrypted value plus its MAC (the untrusted half of a request)."""

    ciphertext: bytes
    mac: bytes

    def size(self) -> int:
        """Total bytes on the wire / in untrusted memory."""
        return len(self.ciphertext) + len(self.mac)


class CryptoProvider:
    """Stateless facade over the payload and transport crypto paths.

    ``engine`` selects the crypto engine by name or instance; ``None``
    falls back to the key generator's engine and then the process-wide
    default (``$REPRO_CRYPTO_ENGINE`` or ``fast``).  The choice is
    resolved once at construction so a provider's behaviour never shifts
    mid-session.
    """

    def __init__(self, keygen: KeyGenerator = None, engine=None):
        self.keygen = keygen if keygen is not None else KeyGenerator()
        if engine is None:
            engine = getattr(self.keygen, "engine", None)
        self.engine = resolve_engine(engine)

    # -- payload path (one-time keys) -------------------------------------

    def payload_encrypt(self, k_operation: bytes, value: bytes) -> EncryptedPayload:
        """Encrypt ``value`` under a one-time key; MAC the ciphertext.

        Mirrors Algorithm 1, lines 2-4: ``*v = E(K_op, v)``,
        ``mac = MAC(K_op, *v)``.
        """
        engine = self.engine
        ciphertext = engine.salsa20_encrypt(k_operation, _ONE_TIME_NONCE, value)
        mac = engine.aes_cmac(k_operation, ciphertext)
        return EncryptedPayload(ciphertext=ciphertext, mac=mac)

    def payload_decrypt(self, k_operation: bytes, payload: EncryptedPayload) -> bytes:
        """Verify the MAC, then decrypt.  Raises on tampering.

        This is the client-side check after a ``get()``: recompute the MAC
        over the fetched ciphertext with the one-time key obtained from the
        (trusted) control data and compare (paper §3.7, "Query data").
        """
        engine = self.engine
        if not engine.cmac_verify(k_operation, payload.ciphertext, payload.mac):
            raise IntegrityError(
                "payload MAC mismatch: untrusted server memory was modified"
            )
        return engine.salsa20_encrypt(
            k_operation, _ONE_TIME_NONCE, payload.ciphertext
        )

    def payload_encrypt_many(self, items) -> list:
        """:meth:`payload_encrypt` over ``(k_operation, value)`` pairs.

        Byte-identical to one call per pair; the engine runs the Salsa20
        and CMAC work of the whole batch together (the fast engine as
        lane passes across the one-time keys).  A single pair takes
        :meth:`payload_encrypt` itself, whose kernels are faster for one
        message than a one-lane pass.
        """
        items = list(items)
        if len(items) == 1:
            return [self.payload_encrypt(*items[0])]
        engine = self.engine
        ciphertexts = engine.salsa20_encrypt_many(
            [(k_operation, _ONE_TIME_NONCE, value) for k_operation, value in items]
        )
        macs = engine.aes_cmac_many(
            [
                (k_operation, ciphertext)
                for (k_operation, _value), ciphertext in zip(items, ciphertexts)
            ]
        )
        return [
            EncryptedPayload(ciphertext=ciphertext, mac=mac)
            for ciphertext, mac in zip(ciphertexts, macs)
        ]

    def payload_decrypt_many(self, items) -> list:
        """:meth:`payload_decrypt` over ``(k_operation, payload)`` pairs.

        Returns the plaintext per entry, or ``None`` where the MAC does
        not verify -- like ``transport_open_many`` nothing raises, so one
        tampered value never hides its batch-mates' results, and a
        failed entry is never decrypted: unauthenticated plaintext does
        not exist.  MACs are compared in constant time.  A single pair
        takes :meth:`payload_decrypt`, as in :meth:`payload_encrypt_many`.
        """
        items = list(items)
        if len(items) == 1:
            try:
                return [self.payload_decrypt(*items[0])]
            except IntegrityError:
                return [None]
        engine = self.engine
        expected = engine.aes_cmac_many(
            [(k_operation, payload.ciphertext) for k_operation, payload in items]
        )
        valid = [
            hmac.compare_digest(mac, payload.mac)
            for mac, (_k_operation, payload) in zip(expected, items)
        ]
        plaintexts = iter(
            engine.salsa20_encrypt_many(
                [
                    (k_operation, _ONE_TIME_NONCE, payload.ciphertext)
                    for (k_operation, payload), ok in zip(items, valid)
                    if ok
                ]
            )
        )
        return [next(plaintexts) if ok else None for ok in valid]

    # -- transport path (session keys) -------------------------------------
    #
    # A call carrying one message draws its AES work from the session's
    # keystream reservoirs (:class:`~repro.crypto.keys.KeystreamReservoir`)
    # on engines that offer them; a multi-message call runs one lane pass
    # over exactly its own blocks and leaves the reservoirs alone.

    def transport_seal(
        self, session: SessionKey, plaintext: bytes, aad: bytes = b""
    ) -> SealedMessage:
        """``auth-encrypt(K_session, plaintext)`` with a fresh per-session IV."""
        iv = session.next_iv()
        gcm = self.engine.gcm(session.key)
        if self.engine.keystream_reservoirs:
            sealed = session.seal_reservoir.seal(gcm, iv, plaintext, aad)
        else:
            sealed = gcm.seal(iv, plaintext, aad)
        return SealedMessage(iv=iv, sealed=sealed)

    def transport_open(
        self, session: SessionKey, message: SealedMessage, aad: bytes = b""
    ) -> bytes:
        """``auth-decrypt(K_session, message)``.

        Raises :class:`AuthenticationError` when the GCM tag does not
        verify -- the sender does not hold the session key, or the message
        was modified in flight.
        """
        gcm = self.engine.gcm(session.key)
        if self.engine.keystream_reservoirs:
            plaintext = session.open_reservoir.open(
                gcm, message.iv, message.sealed, aad
            )
            if plaintext is None:
                raise AuthenticationError("authentication tag mismatch")
            return plaintext
        try:
            return gcm.open(message.iv, message.sealed, aad)
        except GcmFailure as exc:
            raise AuthenticationError(str(exc)) from exc

    def transport_seal_many(
        self, session: SessionKey, messages
    ) -> list:
        """Seal ``(plaintext, aad)`` pairs as one batch, in order.

        IVs are drawn from the session counter in submission order, so
        the resulting :class:`SealedMessage` list is byte-identical to
        calling :meth:`transport_seal` once per pair -- only the work is
        batched (the fast engine runs its fused phase-grouped kernels
        over the whole set).
        """
        ivs = session.next_ivs(len(messages))
        gcm = self.engine.gcm(session.key)
        if len(ivs) == 1 and self.engine.keystream_reservoirs:
            ((plaintext, aad),) = messages
            sealed = [session.seal_reservoir.seal(gcm, ivs[0], plaintext, aad)]
        else:
            sealed = gcm.seal_many(
                [
                    (iv, plaintext, aad)
                    for iv, (plaintext, aad) in zip(ivs, messages)
                ]
            )
        return list(map(SealedMessage, ivs, sealed))

    def transport_open_many(
        self, session: SessionKey, messages
    ) -> list:
        """Open ``(SealedMessage, aad)`` pairs as one batch, in order.

        Returns the plaintext per entry, or ``None`` where the GCM tag
        did not verify.  Unlike :meth:`transport_open` nothing raises on
        tamper: the batched server path must keep processing the intact
        batch-mates and fail only the poisoned frame.
        """
        items = [(iv, sealed, aad) for (iv, sealed), aad in messages]
        gcm = self.engine.gcm(session.key)
        if len(items) == 1 and self.engine.keystream_reservoirs:
            return [session.open_reservoir.open(gcm, *items[0])]
        return gcm.open_many(items)
