"""Crypto engine layer: published vectors on BOTH engines, parity, selection.

The ``fast`` engine re-implements every primitive with different data
structures (byte-position-table and lane AES, lane-parallel Salsa20,
table-driven GHASH), so each one is pinned to the same published vectors
as the readable reference -- a shared bug in both engines cannot hide
behind a parity-only check -- and a randomized cross-engine matrix then
proves the two interoperate on every path the stack uses.
"""

import random

import pytest

from repro.crypto.aes import AES128
from repro.crypto.engine import (
    FastEngine,
    ReferenceEngine,
    available_engines,
    default_engine,
    get_engine,
    parity_check,
    resolve_engine,
    set_default_engine,
    use_engine,
)
from repro.crypto.fastcrypto import FastAES128
from repro.crypto.gcm import GcmFailure
from repro.crypto.keys import KeyGenerator, KeystreamReservoir, SessionKey
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError

ENGINES = ["reference", "fast"]

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

# NIST GCM test case 4: AAD, and a plaintext ending in a partial block.
GCM4_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
GCM4_IV = bytes.fromhex("cafebabefacedbaddecaf888")
GCM4_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
)
GCM4_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
GCM4_SEALED = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    "5bc94fbc3221a5db94fae95ae7121a47"
)


@pytest.fixture(params=ENGINES)
def engine(request):
    return get_engine(request.param)


class TestPublishedVectorsBothEngines:
    """The same external ground truth must hold under either engine."""

    def test_salsa20_ecrypt_set1_vector0(self, engine):
        # ECRYPT Salsa20/20 256-bit "Set 1, vector# 0": encrypting zeros
        # yields the raw keystream.
        key = bytes([0x80] + [0] * 31)
        stream = engine.salsa20_encrypt(key, b"\x00" * 8, b"\x00" * 64)
        assert stream == bytes.fromhex(
            "e3be8fdd8beca2e3ea8ef9475b29a6e7"
            "003951e1097a5c38d23b7a5fad9f6844"
            "b22c97559e2723c7cbbd3fe4fc8d9a07"
            "44652a83e72a9c461876af4d7ef1a117"
        )

    def test_gcm_nist_case_1_empty(self, engine):
        sealed = engine.gcm(b"\x00" * 16).seal(b"\x00" * 12, b"")
        assert sealed == bytes.fromhex("58e2fccefa7e3061367f1d57a4e7455a")

    def test_gcm_nist_case_2_zero_block(self, engine):
        sealed = engine.gcm(b"\x00" * 16).seal(b"\x00" * 12, b"\x00" * 16)
        assert sealed == bytes.fromhex(
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf"
        )

    def test_gcm_nist_case_4_aad_and_partial_block(self, engine):
        gcm = engine.gcm(GCM4_KEY)
        assert gcm.seal(GCM4_IV, GCM4_PT, GCM4_AAD) == GCM4_SEALED
        assert gcm.open(GCM4_IV, GCM4_SEALED, GCM4_AAD) == GCM4_PT
        # Between batch-mates, so the vector is not the batch's first lane.
        other = (b"\x01" * 12, b"m" * 17, b"")
        batch = [other, (GCM4_IV, GCM4_PT, GCM4_AAD), other]
        sealed = gcm.seal_many(batch)
        assert sealed[1] == GCM4_SEALED
        opened = gcm.open_many(
            [(iv, blob, aad) for (iv, _pt, aad), blob in zip(batch, sealed)]
        )
        assert opened == [pt for _iv, pt, _aad in batch]

    def test_gcm_nist_case_4_through_the_reservoirs(self):
        gcm = get_engine("fast").gcm(GCM4_KEY)
        sealer = KeystreamReservoir()
        assert sealer.seal(gcm, GCM4_IV, GCM4_PT, GCM4_AAD) == GCM4_SEALED
        # An opener that authenticates the previous IV's message refills
        # from GCM4_IV, so the vector opens from a held mask.
        previous = (int.from_bytes(GCM4_IV, "big") - 1).to_bytes(12, "big")
        opener = KeystreamReservoir()
        assert opener.open(gcm, previous, gcm.seal(previous, b"p", b""), b"") == b"p"
        assert opener.open(gcm, GCM4_IV, GCM4_SEALED, GCM4_AAD) == GCM4_PT
        assert (opener.hits, opener.misses) == (1, 1)
        tampered = GCM4_SEALED[:-1] + bytes([GCM4_SEALED[-1] ^ 1])
        assert KeystreamReservoir().open(gcm, GCM4_IV, tampered, GCM4_AAD) is None

    @pytest.mark.parametrize(
        "length,expected",
        [
            (0, "bb1d6929e95937287fa37d129b756746"),
            (16, "070a16b46b4d4144f79bdd9dd04a287c"),
            (40, "dfa66747de9ae63030ca32611497c827"),
            (64, "51f0bebf7e3b9d92fc49741779363cfe"),
        ],
    )
    def test_cmac_rfc4493_examples(self, engine, length, expected):
        mac = engine.aes_cmac(RFC4493_KEY, RFC4493_MSG[:length])
        assert mac == bytes.fromhex(expected)
        assert engine.cmac_verify(
            RFC4493_KEY, RFC4493_MSG[:length], mac
        )

    @pytest.mark.parametrize("aes_cls", [AES128, FastAES128])
    def test_aes_fips197_appendix_c(self, aes_cls):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes_cls(key).encrypt_block(plaintext) == expected

    @pytest.mark.parametrize("aes_cls", [AES128, FastAES128])
    def test_aes_all_zero_gfsbox(self, aes_cls):
        out = aes_cls(b"\x00" * 16).encrypt_block(b"\x00" * 16)
        assert out == bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")

    @pytest.mark.parametrize(
        "key,last",
        [
            # FIPS-197 appendix A.1 (expansion) and C.1 (cipher example).
            ("2b7e151628aed2a6abf7158809cf4f3c", "d014f9a8c9ee2589e13f0cc8b6630ca6"),
            ("000102030405060708090a0b0c0d0e0f", "13111d7fe3944a17f307a78b4d2b30c5"),
        ],
    )
    def test_aes_fips197_last_round_key(self, key, last):
        from repro.crypto.fastcrypto import _expand_key_128

        rk = _expand_key_128(bytes.fromhex(key))
        assert len(rk) == 11
        assert rk[0] == int(key, 16)
        assert rk[10] == int(last, 16)


class TestCrossEngineParity:
    """Randomized matrix: outputs byte-identical, artifacts interchange."""

    def test_builtin_parity_check_is_green(self):
        assert parity_check() == []

    def test_randomized_parity_matrix(self):
        rng = random.Random(0xC0FFEE)
        ref, fast = get_engine("reference"), get_engine("fast")
        # Sizes straddle every boundary the kernels special-case: the
        # empty message, sub-block, exact single/multi block, the lane
        # batch edge, and beyond it.
        sizes = [0, 1, 15, 16, 17, 63, 64, 65, 128, 1000, 4096]
        for size in sizes:
            data = rng.randbytes(size)
            k32 = rng.randbytes(32)
            nonce = rng.randbytes(8)
            assert ref.salsa20_encrypt(k32, nonce, data) == \
                fast.salsa20_encrypt(k32, nonce, data)
            assert ref.aes_cmac(k32, data) == fast.aes_cmac(k32, data)
            k16, iv = rng.randbytes(16), rng.randbytes(12)
            aad = rng.randbytes(size % 32)
            sealed = ref.gcm(k16).seal(iv, data, aad)
            assert sealed == fast.gcm(k16).seal(iv, data, aad)
            # Decrypt-with-the-other-engine: wire compatibility.
            assert fast.gcm(k16).open(iv, sealed, aad) == data

    def test_fast_rejects_tampering_like_reference(self):
        for name in ENGINES:
            engine = get_engine(name)
            gcm = engine.gcm(b"k" * 16)
            sealed = bytearray(gcm.seal(b"\x00" * 12, b"payload", aad=b"a"))
            sealed[0] ^= 1
            with pytest.raises(GcmFailure):
                gcm.open(b"\x00" * 12, bytes(sealed), aad=b"a")
            mac = engine.aes_cmac(b"k" * 32, b"msg")
            assert engine.cmac_verify(b"k" * 32, b"msg", mac)
            flipped = mac[:-1] + bytes([mac[-1] ^ 1])
            for bad in (flipped, mac[:-1], b""):
                assert not engine.cmac_verify(b"k" * 32, b"msg", bad), name

    def test_transport_interoperates_across_providers(self):
        # A reference-engine client talking to a fast-engine server: the
        # sealed control data must open on both sides.
        ref_p = CryptoProvider(KeyGenerator(seed=5), engine="reference")
        fast_p = CryptoProvider(KeyGenerator(seed=5), engine="fast")
        key = KeyGenerator(seed=9).session_key()
        session = SessionKey(key=key, client_id=3)
        msg = ref_p.transport_seal(session, b"control-data", aad=b"hdr")
        assert fast_p.transport_open(session, msg, aad=b"hdr") == b"control-data"
        payload = fast_p.payload_encrypt(b"o" * 32, b"value-bytes")
        assert ref_p.payload_decrypt(b"o" * 32, payload) == b"value-bytes"


class TestEngineSelection:
    def test_available_engines(self):
        assert available_engines() == ["fast", "reference"]

    def test_get_engine_is_shared_instance(self):
        assert get_engine("fast") is get_engine("fast")
        assert isinstance(get_engine("reference"), ReferenceEngine)
        assert isinstance(get_engine("fast"), FastEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            get_engine("turbo")
        with pytest.raises(ConfigurationError):
            set_default_engine("turbo")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRYPTO_ENGINE", "reference")
        assert isinstance(default_engine(), ReferenceEngine)
        monkeypatch.setenv("REPRO_CRYPTO_ENGINE", "fast")
        assert isinstance(default_engine(), FastEngine)

    def test_use_engine_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_CRYPTO_ENGINE", raising=False)
        with use_engine("reference") as eng:
            assert isinstance(eng, ReferenceEngine)
            assert default_engine() is eng
        assert isinstance(default_engine(), FastEngine)

    def test_set_default_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRYPTO_ENGINE", "fast")
        set_default_engine("reference")
        try:
            assert isinstance(default_engine(), ReferenceEngine)
        finally:
            set_default_engine(None)
        assert isinstance(default_engine(), FastEngine)

    def test_resolve_engine_accepts_all_forms(self):
        eng = get_engine("reference")
        assert resolve_engine(eng) is eng
        assert resolve_engine("reference") is eng
        assert resolve_engine(None) is default_engine()

    def test_provider_inherits_keygen_engine(self):
        provider = CryptoProvider(KeyGenerator(seed=1, engine="reference"))
        assert isinstance(provider.engine, ReferenceEngine)
        # Explicit argument beats the keygen's choice.
        provider = CryptoProvider(
            KeyGenerator(seed=1, engine="reference"), engine="fast"
        )
        assert isinstance(provider.engine, FastEngine)

    def test_gcm_cipher_cached_per_key(self):
        eng = get_engine("fast")
        assert eng.gcm(b"k" * 16) is eng.gcm(b"k" * 16)
        assert eng.gcm(b"k" * 16) is not eng.gcm(b"q" * 16)
        session = SessionKey(key=b"k" * 16, client_id=1)
        assert session.cipher("fast") is eng.gcm(b"k" * 16)


class TestFastKernelEdges:
    """Boundaries specific to the fast kernels' batching and padding."""

    def test_salsa20_lane_batch_boundary(self):
        # _LANE_BATCH blocks per wide pass: check sizes around the seam.
        from repro.crypto.fastcrypto import _LANE_BATCH, FastSalsa20
        from repro.crypto.salsa20 import Salsa20

        key, nonce = bytes(range(32)), b"\x07" * 8
        for blocks in (1, 2, _LANE_BATCH, _LANE_BATCH + 1):
            n = 64 * blocks + 5
            assert FastSalsa20(key, nonce).keystream(n) == \
                Salsa20(key, nonce).keystream(n)

    def test_salsa20_nonzero_counter(self):
        from repro.crypto.fastcrypto import FastSalsa20
        from repro.crypto.salsa20 import Salsa20

        key, nonce = b"K" * 32, b"N" * 8
        assert FastSalsa20(key, nonce).keystream(200, counter=3) == \
            Salsa20(key, nonce).keystream(200, counter=3)

    def test_salsa20_counter_near_wraparound(self):
        # Counter + lane index crossing 2**32 exercises the per-lane
        # fallback instead of the broadcast ramp.
        from repro.crypto.fastcrypto import FastSalsa20
        from repro.crypto.salsa20 import Salsa20

        key, nonce = b"K" * 32, b"N" * 8
        start = 2**32 - 3
        assert FastSalsa20(key, nonce).keystream(64 * 8, counter=start) == \
            Salsa20(key, nonce).keystream(64 * 8, counter=start)

    @pytest.mark.parametrize("counter", [2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1])
    def test_salsa20_single_block_counter_words(self, counter):
        # One block runs the diagonal core, whose counter words sit in
        # two different diagonals: the high word must carry over too.
        from repro.crypto.fastcrypto import FastSalsa20
        from repro.crypto.salsa20 import Salsa20

        key, nonce = b"K" * 32, b"N" * 8
        assert FastSalsa20(key, nonce).keystream(64, counter=counter) == \
            Salsa20(key, nonce).keystream(64, counter=counter)

    def test_cmac_32_byte_key_folding_matches_reference(self):
        from repro.crypto.cmac import aes_cmac
        from repro.crypto.fastcrypto import FastCmac

        key32 = bytes(range(32))
        for n in (0, 1, 16, 17, 100):
            assert FastCmac(key32).mac(b"z" * n) == aes_cmac(key32, b"z" * n)


ECRYPT_SET1_V0_KEY = bytes([0x80] + [0] * 31)
ECRYPT_SET1_V0_STREAM = bytes.fromhex(
    "e3be8fdd8beca2e3ea8ef9475b29a6e7"
    "003951e1097a5c38d23b7a5fad9f6844"
    "b22c97559e2723c7cbbd3fe4fc8d9a07"
    "44652a83e72a9c461876af4d7ef1a117"
)
RFC4493_MACS = {
    0: "bb1d6929e95937287fa37d129b756746",
    16: "070a16b46b4d4144f79bdd9dd04a287c",
    40: "dfa66747de9ae63030ca32611497c827",
    64: "51f0bebf7e3b9d92fc49741779363cfe",
}


def _mixed_batch(rng, count, sizes=(0, 1, 15, 16, 17, 4096)):
    """``count`` (key, message) pairs cycling sizes and 16/32-byte keys."""
    return [
        (rng.randbytes(16 if j % 3 == 1 else 32), rng.randbytes(sizes[j % len(sizes)]))
        for j in range(count)
    ]


class TestLaneBatchApis:
    """``*_many`` engine/provider calls, the lane kernels behind them."""

    def test_mixed_batch_matches_reference_per_call(self, engine):
        rng = random.Random(41)
        ref = get_engine("reference")
        items = _mixed_batch(rng, 12)
        assert engine.aes_cmac_many(items) == [ref.aes_cmac(*i) for i in items]
        triples = [(key, rng.randbytes(8), msg) for key, msg in items]
        assert engine.salsa20_encrypt_many(triples) == [
            ref.salsa20_encrypt(*t) for t in triples
        ]

    def test_rfc4493_vectors_through_the_lanes(self, engine):
        # Twice over, so the batch is wide enough for the lane kernel.
        lengths = sorted(RFC4493_MACS) * 2
        macs = engine.aes_cmac_many(
            [(RFC4493_KEY, RFC4493_MSG[:n]) for n in lengths]
        )
        assert [m.hex() for m in macs] == [RFC4493_MACS[n] for n in lengths]

    def test_ecrypt_vector_through_the_lanes(self, engine):
        rng = random.Random(43)
        triples = [(rng.randbytes(32), rng.randbytes(8), rng.randbytes(100))
                   for _ in range(5)]
        triples.insert(2, (ECRYPT_SET1_V0_KEY, b"\x00" * 8, b"\x00" * 64))
        out = engine.salsa20_encrypt_many(triples)
        assert out[2] == ECRYPT_SET1_V0_STREAM

    def test_fips197_block_through_the_lanes(self):
        from repro.crypto.fastcrypto import (
            _LANE_MIN,
            _aes_blocks,
            _broadcast_tables,
            _expand_key_128,
        )

        rk = _expand_key_128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        blocks = bytes.fromhex("00112233445566778899aabbccddeeff") * _LANE_MIN
        out = _aes_blocks(rk, _broadcast_tables(rk), blocks)
        assert out == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a") * _LANE_MIN

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("edge", ["min", "batch"])
    def test_lane_counts_straddle_fallback_and_cap(self, edge, offset):
        from repro.crypto.fastcrypto import _LANE_BATCH, _LANE_MIN

        count = (_LANE_MIN if edge == "min" else _LANE_BATCH) + offset
        rng = random.Random(count)
        fast = get_engine("fast")
        items = _mixed_batch(rng, count, sizes=(0, 1, 17, 32, 33))
        assert fast.aes_cmac_many(items) == [fast.aes_cmac(*i) for i in items]
        triples = [(key, b"\x05" * 8, msg) for key, msg in items]
        assert fast.salsa20_encrypt_many(triples) == [
            fast.salsa20_encrypt(*t) for t in triples
        ]
        gcm = fast.gcm(rng.randbytes(16))
        # One-block messages: ``count`` CTR blocks plus ``count`` J0s.
        sealed = [(rng.randbytes(12), msg[:16], b"a") for _key, msg in items]
        assert gcm.seal_many(sealed) == [gcm.seal(*s) for s in sealed]

    def test_cmac_chains_of_uneven_length_finish_on_the_scalar_tail(
        self, monkeypatch
    ):
        # Long chains outlive the short ones: the lane pass shrinks, then
        # the last few chains finish on the scalar kernel, so no lane pass
        # ever runs narrower than _LANE_MIN.
        from repro.crypto import fastcrypto

        widths = []
        lane_aes = fastcrypto._lane_aes

        def recording(x, rks, lanes):
            widths.append(lanes)
            return lane_aes(x, rks, lanes)

        monkeypatch.setattr(fastcrypto, "_lane_aes", recording)
        rng = random.Random(47)
        fast = get_engine("fast")
        items = [(rng.randbytes(32), rng.randbytes(16 * (1 + j % 9) + j % 2))
                 for j in range(24)]
        items += [(rng.randbytes(32), rng.randbytes(4096)) for _ in range(2)]
        macs = fast.aes_cmac_many(items)
        assert widths[0] == len(items) and min(widths) >= fastcrypto._LANE_MIN
        assert len(set(widths)) > 2  # the pass shrank as chains ended
        assert macs == [fast.aes_cmac(*i) for i in items]

    def test_many_rejects_bad_key_sizes(self):
        fast = get_engine("fast")
        with pytest.raises(ConfigurationError):
            fast.aes_cmac_many([(b"k" * 24, b"m")] * 8)
        with pytest.raises(ConfigurationError):
            fast.salsa20_encrypt_many([(b"k" * 24, b"n" * 8, b"m" * 70)])

    def test_payload_many_roundtrip_and_tamper_isolation(self, engine):
        from repro.crypto.provider import EncryptedPayload

        rng = random.Random(53)
        provider = CryptoProvider(engine=engine)
        pairs = [(rng.randbytes(32), rng.randbytes(n))
                 for n in (0, 1, 15, 16, 17, 4096, 32, 33)]
        payloads = provider.payload_encrypt_many(pairs)
        assert payloads == [provider.payload_encrypt(*p) for p in pairs]
        mac = bytearray(payloads[4].mac)
        mac[-1] ^= 0x80
        payloads[4] = EncryptedPayload(payloads[4].ciphertext, bytes(mac))
        opened = provider.payload_decrypt_many(
            [(key, payload) for (key, _v), payload in zip(pairs, payloads)]
        )
        expected = [value for _k, value in pairs]
        expected[4] = None
        assert opened == expected

    def test_empty_batches(self, engine):
        provider = CryptoProvider(engine=engine)
        assert engine.aes_cmac_many([]) == []
        assert engine.salsa20_encrypt_many([]) == []
        assert provider.payload_encrypt_many([]) == []
        assert provider.payload_decrypt_many([]) == []
