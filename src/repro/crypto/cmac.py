"""AES-128-CMAC (RFC 4493 / NIST SP 800-38B), from scratch.

Precursor computes a CMAC over the client-encrypted value
(``sgx_rijndael128_cmac_msg`` in the paper's implementation, §4).  The
client generates the MAC before a ``put()``; after a ``get()`` it recomputes
the MAC over the fetched ciphertext with the one-time key from the control
data and compares -- this is what detects tampering with the server's
untrusted memory.
"""

from __future__ import annotations

from repro.crypto.aes import AES128
from repro.errors import ConfigurationError

__all__ = ["aes_cmac", "cmac_verify"]

_BLOCK = 16
_RB = 0x87


def _shift_left_one(block: bytes) -> bytes:
    """Left-shift a 16-byte string by one bit."""
    as_int = int.from_bytes(block, "big")
    shifted = (as_int << 1) & ((1 << 128) - 1)
    return shifted.to_bytes(16, "big")


def _generate_subkeys(aes: AES128) -> tuple:
    """RFC 4493 subkey generation: K1 for full final blocks, K2 otherwise."""
    l_block = aes.encrypt_block(b"\x00" * _BLOCK)
    k1 = _shift_left_one(l_block)
    if l_block[0] & 0x80:
        k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
    k2 = _shift_left_one(k1)
    if k1[0] & 0x80:
        k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
    return k1, k2


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte AES-CMAC of ``message`` under ``key``.

    Keys longer than 16 bytes (Precursor's one-time keys are 32 bytes for
    Salsa20) are folded to 16 bytes by XORing their halves, mirroring how a
    single client secret feeds both the stream cipher and the MAC without a
    second key exchange.
    """
    if len(key) == 32:
        key = bytes(a ^ b for a, b in zip(key[:16], key[16:]))
    elif len(key) != 16:
        raise ConfigurationError(
            f"CMAC key must be 16 or 32 bytes, got {len(key)}"
        )
    aes = AES128(key)
    k1, k2 = _generate_subkeys(aes)

    n_blocks = max(1, (len(message) + _BLOCK - 1) // _BLOCK)
    complete = len(message) > 0 and len(message) % _BLOCK == 0

    last = message[(n_blocks - 1) * _BLOCK :]
    if complete:
        last = bytes(a ^ b for a, b in zip(last, k1))
    else:
        padded = last + b"\x80" + b"\x00" * (_BLOCK - len(last) - 1)
        last = bytes(a ^ b for a, b in zip(padded, k2))

    x = b"\x00" * _BLOCK
    for i in range(n_blocks - 1):
        block = message[i * _BLOCK : (i + 1) * _BLOCK]
        x = aes.encrypt_block(bytes(a ^ b for a, b in zip(x, block)))
    return aes.encrypt_block(bytes(a ^ b for a, b in zip(x, last)))


def cmac_verify(key: bytes, message: bytes, mac: bytes) -> bool:
    """Constant-time verification of an AES-CMAC tag."""
    expected = aes_cmac(key, message)
    if len(mac) != len(expected):
        return False
    diff = 0
    for a, b in zip(expected, mac):
        diff |= a ^ b
    return diff == 0
