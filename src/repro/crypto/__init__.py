"""Cryptographic substrate.

Precursor's implementation (paper §4) uses:

- **Salsa20** (via Libsodium) for client-side payload encryption under
  per-operation one-time keys;
- **AES-128-GCM** (via the SGX SDK) for transport encryption of control
  data between client and enclave;
- **AES-128-CMAC** (``sgx_rijndael128_cmac_msg``) for the MAC over the
  encrypted payload.

This package implements all three from scratch in pure Python so the
functional layer enforces real confidentiality/integrity, and adds a
cycle-accurate :mod:`cost model <repro.crypto.costmodel>` that the
simulator charges instead of running the (slow) Python primitives on the
hot path.

Two interchangeable engines run the primitives (:mod:`repro.crypto.engine`):
``reference`` -- the readable spec implementations above -- and ``fast`` --
optimised kernels (:mod:`repro.crypto.fastcrypto`) with byte-position-table
AES (sixteen 256-entry tables per round), lane-parallel AES and Salsa20
for batches, and byte-position-table GHASH.  Both produce byte-identical
output; select via ``$REPRO_CRYPTO_ENGINE``, :func:`set_default_engine`
or the ``engine=`` argument threaded through providers and key generators.
"""

from repro.crypto.aes import AES128
from repro.crypto.cmac import aes_cmac
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.engine import (
    CryptoEngine,
    available_engines,
    default_engine,
    get_engine,
    parity_check,
    resolve_engine,
    set_default_engine,
    use_engine,
)
from repro.crypto.gcm import AesGcm, GcmFailure
from repro.crypto.keys import KeyGenerator, SessionKey
from repro.crypto.provider import CryptoProvider, SealedMessage

__all__ = [
    "AES128",
    "aes_cmac",
    "AesGcm",
    "GcmFailure",
    "KeyGenerator",
    "SessionKey",
    "CryptoProvider",
    "SealedMessage",
    "CryptoCostModel",
    "CryptoEngine",
    "available_engines",
    "default_engine",
    "get_engine",
    "parity_check",
    "resolve_engine",
    "set_default_engine",
    "use_engine",
]
