"""Key generation, session keys, the crypto provider, and the cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.keys import KeyGenerator, SessionKey
from repro.crypto.provider import CryptoProvider, EncryptedPayload
from repro.errors import AuthenticationError, ConfigurationError, IntegrityError


class TestKeyGenerator:
    def test_operation_key_is_256_bit(self):
        assert len(KeyGenerator().operation_key()) == 32

    def test_session_key_is_128_bit(self):
        assert len(KeyGenerator().session_key()) == 16

    def test_iv_and_nonce_sizes(self):
        gen = KeyGenerator()
        assert len(gen.iv()) == 12
        assert len(gen.nonce()) == 8

    def test_seeded_generator_is_deterministic(self):
        a, b = KeyGenerator(seed=7), KeyGenerator(seed=7)
        assert a.operation_key() == b.operation_key()
        assert a.session_key() == b.session_key()

    def test_different_seeds_differ(self):
        assert KeyGenerator(seed=1).operation_key() != KeyGenerator(
            seed=2
        ).operation_key()

    def test_sequential_keys_differ(self):
        gen = KeyGenerator(seed=7)
        assert gen.operation_key() != gen.operation_key()

    def test_unseeded_keys_differ(self):
        gen = KeyGenerator()
        assert gen.operation_key() != gen.operation_key()
        assert not gen.deterministic
        assert KeyGenerator(seed=0).deterministic


class TestSessionKey:
    def test_iv_uniqueness(self):
        session = SessionKey(key=b"k" * 16, client_id=9)
        ivs = {session.next_iv() for _ in range(100)}
        assert len(ivs) == 100

    def test_ivs_embed_client_id(self):
        a = SessionKey(key=b"k" * 16, client_id=1)
        b = SessionKey(key=b"k" * 16, client_id=2)
        assert a.next_iv() != b.next_iv()

    def test_rejects_bad_key(self):
        with pytest.raises(ConfigurationError):
            SessionKey(key=b"short", client_id=1)

    def test_rejects_bad_client_id(self):
        with pytest.raises(ConfigurationError):
            SessionKey(key=b"k" * 16, client_id=-1)
        with pytest.raises(ConfigurationError):
            SessionKey(key=b"k" * 16, client_id=2**33)


class TestPayloadPath:
    def test_encrypt_decrypt_roundtrip(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        k_op = provider.keygen.operation_key()
        payload = provider.payload_encrypt(k_op, b"the value")
        assert provider.payload_decrypt(k_op, payload) == b"the value"

    def test_ciphertext_hides_plaintext(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        k_op = provider.keygen.operation_key()
        payload = provider.payload_encrypt(k_op, b"confidential!!")
        assert b"confidential" not in payload.ciphertext

    def test_tampered_ciphertext_detected(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        k_op = provider.keygen.operation_key()
        payload = provider.payload_encrypt(k_op, b"the value")
        bad = EncryptedPayload(
            ciphertext=b"\xff" + payload.ciphertext[1:], mac=payload.mac
        )
        with pytest.raises(IntegrityError):
            provider.payload_decrypt(k_op, bad)

    def test_tampered_mac_detected(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        k_op = provider.keygen.operation_key()
        payload = provider.payload_encrypt(k_op, b"the value")
        bad = EncryptedPayload(
            ciphertext=payload.ciphertext, mac=b"\x00" * 16
        )
        with pytest.raises(IntegrityError):
            provider.payload_decrypt(k_op, bad)

    def test_wrong_one_time_key_detected(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        k1 = provider.keygen.operation_key()
        k2 = provider.keygen.operation_key()
        payload = provider.payload_encrypt(k1, b"the value")
        with pytest.raises(IntegrityError):
            provider.payload_decrypt(k2, payload)

    def test_one_time_keys_give_distinct_ciphertexts(self):
        # The paper's traffic-analysis argument: same plaintext, fresh
        # K_operation => unlinkable ciphertexts (§3.3).
        provider = CryptoProvider(KeyGenerator(seed=1))
        p1 = provider.payload_encrypt(provider.keygen.operation_key(), b"same")
        p2 = provider.payload_encrypt(provider.keygen.operation_key(), b"same")
        assert p1.ciphertext != p2.ciphertext
        assert p1.mac != p2.mac


class TestTransportPath:
    def test_seal_open_roundtrip(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        session = SessionKey(key=provider.keygen.session_key(), client_id=3)
        sealed = provider.transport_seal(session, b"control data", aad=b"c3")
        assert provider.transport_open(session, sealed, aad=b"c3") == b"control data"

    def test_wrong_session_key_rejected(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        session = SessionKey(key=provider.keygen.session_key(), client_id=3)
        sealed = provider.transport_seal(session, b"control data")
        with pytest.raises(AuthenticationError):
            provider.transport_open(SessionKey(key=b"x" * 16, client_id=3), sealed)

    def test_wrong_aad_rejected(self):
        provider = CryptoProvider(KeyGenerator(seed=1))
        session = SessionKey(key=provider.keygen.session_key(), client_id=3)
        sealed = provider.transport_seal(session, b"control data", aad=b"a")
        with pytest.raises(AuthenticationError):
            provider.transport_open(session, sealed, aad=b"b")


@settings(max_examples=25, deadline=None)
@given(value=st.binary(min_size=0, max_size=256))
def test_payload_roundtrip_property(value):
    provider = CryptoProvider(KeyGenerator(seed=99))
    k_op = provider.keygen.operation_key()
    assert provider.payload_decrypt(k_op, provider.payload_encrypt(k_op, value)) == value


class TestCostModel:
    def test_costs_scale_with_size(self):
        model = CryptoCostModel()
        assert model.gcm_seal_cycles(1024) > model.gcm_seal_cycles(16)
        assert model.cmac_cycles(1024) > model.cmac_cycles(16)
        assert model.salsa_cycles(1024) > model.salsa_cycles(16)

    def test_small_buffers_dominated_by_setup(self):
        model = CryptoCostModel()
        # At 16 B the per-call overhead must dominate (Fig. 1's message).
        assert model.gcm_setup_cycles > 10 * model.gcm_per_byte_cycles * 16

    def test_reencrypt_throughput_rises_with_buffer_size(self):
        model = CryptoCostModel()
        curve = [
            model.reencrypt_throughput_mbps(size, threads=7.8, ghz=3.4)
            for size in (16, 256, 1024, 4096, 32768)
        ]
        assert curve == sorted(curve)

    def test_figure1_crossover_shape(self):
        """At <=1 KiB crypto stays well below a 40 Gbit line; by 32 KiB it
        approaches it (paper: 36 % below line rate for small packets)."""
        model = CryptoCostModel()
        line_rate = 4700.0  # MB/s, 40 Gbit iperf goodput
        at_1k = model.reencrypt_throughput_mbps(1024, 7.8, 3.4)
        at_32k = model.reencrypt_throughput_mbps(32768, 7.8, 3.4)
        assert at_1k < 0.75 * line_rate
        assert at_32k > 0.9 * line_rate

    def test_rejects_invalid_inputs(self):
        model = CryptoCostModel()
        with pytest.raises(ConfigurationError):
            model.reencrypt_throughput_mbps(0, 6, 3.4)
        with pytest.raises(ConfigurationError):
            CryptoCostModel(gcm_setup_cycles=-1)
