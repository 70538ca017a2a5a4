"""The fast kernels' serial loops and kept state, against the reference.

A ``FastAesGcm`` keeps the GHASH state that each AAD leaves, across
calls and bounded, so a cipher that lives as long as its session hashes
its AAD once.  Here one cipher meets a generated sequence of per-call,
batched and reservoir seals and opens under a small pool of AADs (none,
one block and several), and every output must equal a fresh reference
``AesGcm`` -- and the ``cryptography`` package's ``AESGCM``, when it
imports.  The map stays within its bound and per key, and a MAC is one
CBC chain: ``FastCmac.mac`` against the reference at every length to
200 B and at 4 KiB, and ``_encrypt_int`` against ``AES128`` on drawn
keys and blocks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastcrypto
from repro.crypto.aes import AES128
from repro.crypto.cmac import aes_cmac
from repro.crypto.fastcrypto import FastAesGcm, FastCmac
from repro.crypto.gcm import AesGcm, GcmFailure
from repro.crypto.keys import KeystreamReservoir

try:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover
    HAVE_CRYPTOGRAPHY = False

_KEYS = st.binary(min_size=16, max_size=16)

#: One step of a cipher's life: a path and the messages it carries
#: (AAD index into the pool, plaintext).
_STEPS = st.tuples(
    st.sampled_from(("seal", "many", "reservoir")),
    st.lists(
        st.tuples(st.integers(0, 3), st.binary(max_size=64)),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 3),  # which message of the step gets a flipped tag
)


def _flip(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 1])


@settings(max_examples=30, deadline=None)
@given(
    key=_KEYS,
    long_aad=st.binary(min_size=17, max_size=40),
    steps=st.lists(_STEPS, min_size=1, max_size=8),
)
def test_one_cipher_through_a_sequence_of_calls_matches_fresh_ciphers(
    key, long_aad, steps
):
    aads = (b"", b"\x00\x00\x00\x07", b"resp\x00\x00\x00\x07", long_aad)
    gcm = FastAesGcm(key)
    oracle = AESGCM(key) if HAVE_CRYPTOGRAPHY else None
    sealer, opener = KeystreamReservoir(), KeystreamReservoir()
    counter = 1
    for path, messages, flipped in steps:
        items = []
        for aad_index, plaintext in messages:
            items.append((counter.to_bytes(12, "big"), plaintext, aads[aad_index]))
            counter += 1
        expected = [AesGcm(key).seal(*item) for item in items]
        if oracle is not None:
            assert expected == [oracle.encrypt(*item) for item in items]
        flipped %= len(items)
        plaintexts = [plaintext for _iv, plaintext, _aad in items]
        if path == "seal":
            assert [gcm.seal(*item) for item in items] == expected
            for j, ((iv, plaintext, aad), blob) in enumerate(zip(items, expected)):
                if j == flipped:
                    with pytest.raises(GcmFailure):
                        gcm.open(iv, _flip(blob), aad)
                assert gcm.open(iv, blob, aad) == plaintext
        elif path == "many":
            assert gcm.seal_many(items) == expected
            entries = [
                (iv, _flip(blob) if j == flipped else blob, aad)
                for j, ((iv, _pt, aad), blob) in enumerate(zip(items, expected))
            ]
            plaintexts[flipped] = None
            assert gcm.open_many(entries) == plaintexts
        else:
            for j, ((iv, plaintext, aad), blob) in enumerate(zip(items, expected)):
                assert sealer.seal(gcm, iv, plaintext, aad) == blob
                if j == flipped:
                    assert opener.open(gcm, iv, _flip(blob), aad) is None
                assert opener.open(gcm, iv, blob, aad) == plaintext
        assert len(gcm._after_aad) <= fastcrypto._AAD_STATES


def test_post_aad_states_stay_bounded_and_correct_after_clearing():
    key = bytes(range(16))
    gcm = FastAesGcm(key)
    reference = AesGcm(key)
    bound = fastcrypto._AAD_STATES
    aads = [b"aad-%03d" % j for j in range(3 * bound + 1)]
    for round_ in range(2):  # the second round meets every AAD after a clear
        for j, aad in enumerate(aads):
            iv = (round_ * 1000 + j).to_bytes(12, "big")
            assert gcm.seal(iv, b"v" * j, aad) == reference.seal(iv, b"v" * j, aad)
            assert 1 <= len(gcm._after_aad) <= bound
            assert aad in gcm._after_aad


def test_two_ciphers_keep_their_own_post_aad_states():
    aad = b"\x00\x00\x00\x07"
    first, second = FastAesGcm(b"\x01" * 16), FastAesGcm(b"\x02" * 16)
    iv = bytes(12)
    for gcm, key in ((first, b"\x01" * 16), (second, b"\x02" * 16)):
        assert gcm.seal(iv, b"value", aad) == AesGcm(key).seal(iv, b"value", aad)
    assert first._after_aad[aad] != second._after_aad[aad]
    # Each state is its own cipher's: sealing again through the kept
    # state still matches the reference on both.
    for gcm, key in ((first, b"\x01" * 16), (second, b"\x02" * 16)):
        assert gcm.seal(iv, b"again", aad) == AesGcm(key).seal(iv, b"again", aad)


@pytest.mark.parametrize("key_size", [16, 32])
def test_cmac_matches_the_reference_at_every_length(key_size):
    key = bytes(range(7, 7 + key_size))
    cmac = FastCmac(key)
    message = bytes((13 * i + 5) & 255 for i in range(4096))
    for n in list(range(201)) + [4096]:
        assert cmac.mac(message[:n]) == aes_cmac(key, message[:n]), n


def test_a_mac_is_one_chain_and_no_extra_block(monkeypatch):
    cmac = FastCmac(bytes(16))
    calls = {"chain": 0, "block": 0}
    chain, block = fastcrypto._cbc_chain, fastcrypto._encrypt_int

    def counting_chain(*args):
        calls["chain"] += 1
        return chain(*args)

    def counting_block(*args):
        calls["block"] += 1
        return block(*args)

    monkeypatch.setattr(fastcrypto, "_cbc_chain", counting_chain)
    monkeypatch.setattr(fastcrypto, "_encrypt_int", counting_block)
    lengths = (0, 1, 15, 16, 17, 32, 4096)
    for n in lengths:
        cmac.mac(bytes(n))
    assert calls == {"chain": len(lengths), "block": 0}


@settings(max_examples=60, deadline=None)
@given(key=_KEYS, block=st.binary(min_size=16, max_size=16))
def test_block_kernel_matches_the_reference_cipher(key, block):
    fastcrypto._ensure_round_tables()
    rk = fastcrypto._expand_key_128(key)
    out = fastcrypto._encrypt_int(rk, int.from_bytes(block, "big"))
    assert out.to_bytes(16, "big") == AES128(key).encrypt_block(block)
