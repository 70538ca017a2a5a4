"""The batch GCM kernels against per-message GCM, on generated batches.

``FastAesGcm.seal_many``/``open_many`` run one AES pass and one GHASH
loop over a whole batch, sharing the GHASH state of an AAD across the
messages that carry it.  Over batches of 1-40 messages of 0-200 B with
AADs of 0-40 B (some shared, some not), a batch must seal byte for byte
as the reference implementation seals each message alone -- and as the
``cryptography`` package's ``AESGCM`` does, when it imports -- open what
it sealed, and fail exactly the one message whose bytes were flipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.fastcrypto import FastAesGcm
from repro.crypto.gcm import AesGcm

try:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover
    HAVE_CRYPTOGRAPHY = False

_AADS = st.lists(st.binary(max_size=40), min_size=1, max_size=3, unique=True)


@st.composite
def _batches(draw):
    """``(key, [(iv, plaintext, aad), ...])`` with distinct IVs."""
    key = draw(st.binary(min_size=16, max_size=16))
    aads = draw(_AADS)  # a few AADs, so batch-mates often share one
    size = draw(st.integers(min_value=1, max_value=40))
    first = draw(st.integers(min_value=0, max_value=2**64 - size))
    items = [
        (
            (first + i).to_bytes(12, "big"),
            draw(st.binary(max_size=200)),
            draw(st.sampled_from(aads)),
        )
        for i in range(size)
    ]
    return key, items


@settings(max_examples=40, deadline=None)
@given(batch=_batches())
def test_seal_many_matches_per_message_seal(batch):
    key, items = batch
    sealed = FastAesGcm(key).seal_many(items)
    reference = AesGcm(key)
    assert sealed == [reference.seal(iv, pt, aad) for iv, pt, aad in items]


@pytest.mark.skipif(not HAVE_CRYPTOGRAPHY, reason="cryptography not installed")
@settings(max_examples=40, deadline=None)
@given(batch=_batches())
def test_seal_many_matches_the_cryptography_oracle(batch):
    key, items = batch
    oracle = AESGCM(key)
    assert FastAesGcm(key).seal_many(items) == [
        oracle.encrypt(iv, pt, aad) for iv, pt, aad in items
    ]


@settings(max_examples=40, deadline=None)
@given(batch=_batches())
def test_open_many_round_trips(batch):
    key, items = batch
    gcm = FastAesGcm(key)
    sealed = gcm.seal_many(items)
    opened = gcm.open_many(
        [(iv, blob, aad) for (iv, _pt, aad), blob in zip(items, sealed)]
    )
    assert opened == [pt for _iv, pt, _aad in items]


@settings(max_examples=40, deadline=None)
@given(batch=_batches(), data=st.data())
def test_one_flipped_byte_fails_that_message_alone(batch, data):
    key, items = batch
    gcm = FastAesGcm(key)
    sealed = gcm.seal_many(items)
    victim = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
    position = data.draw(
        st.integers(min_value=0, max_value=len(sealed[victim]) - 1)
    )
    flip = data.draw(st.integers(min_value=1, max_value=255))
    blob = bytearray(sealed[victim])
    blob[position] ^= flip
    sealed[victim] = bytes(blob)
    opened = gcm.open_many(
        [(iv, blob, aad) for (iv, _pt, aad), blob in zip(items, sealed)]
    )
    assert opened[victim] is None
    assert [o for i, o in enumerate(opened) if i != victim] == [
        pt for i, (_iv, pt, _aad) in enumerate(items) if i != victim
    ]
