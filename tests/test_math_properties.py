"""Mathematical properties of the cryptographic internals.

GHASH's field multiplication and the Merkle/Robin Hood structures obey
algebraic laws; violating any of these would be silent corruption, so they
get their own property tests independent of the vector tests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.gcm import _gf_mult, ghash
from repro.crypto.salsa20 import quarterround, salsa20_core

_field_elements = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestGf2m128:
    @settings(max_examples=50, deadline=None)
    @given(x=_field_elements, y=_field_elements)
    def test_multiplication_commutes(self, x, y):
        assert _gf_mult(x, y) == _gf_mult(y, x)

    @settings(max_examples=25, deadline=None)
    @given(x=_field_elements, y=_field_elements, z=_field_elements)
    def test_multiplication_distributes_over_xor(self, x, y, z):
        # GF(2^n) addition is XOR; multiplication must distribute.
        assert _gf_mult(x ^ y, z) == _gf_mult(x, z) ^ _gf_mult(y, z)

    @settings(max_examples=25, deadline=None)
    @given(x=_field_elements)
    def test_zero_annihilates(self, x):
        assert _gf_mult(x, 0) == 0
        assert _gf_mult(0, x) == 0

    def test_identity_element(self):
        # In GCM's bit-reflected basis the multiplicative identity is the
        # polynomial "1" = MSB-first 0x800...0.
        one = 1 << 127
        for x in (1, 0xDEADBEEF, (1 << 128) - 1):
            assert _gf_mult(x, one) == x

    @settings(max_examples=15, deadline=None)
    @given(x=_field_elements, y=_field_elements, z=_field_elements)
    def test_multiplication_associates(self, x, y, z):
        assert _gf_mult(_gf_mult(x, y), z) == _gf_mult(x, _gf_mult(y, z))


class TestGhashStructure:
    @settings(max_examples=30, deadline=None)
    @given(
        h=st.integers(min_value=1, max_value=(1 << 128) - 1),
        block_a=st.binary(min_size=16, max_size=16),
        block_b=st.binary(min_size=16, max_size=16),
    )
    def test_horner_recurrence(self, h, block_a, block_b):
        """GHASH(A||B) == (GHASH(A) ^ B) * H -- the Horner evaluation the
        implementation relies on."""
        partial = ghash(h, block_a)
        combined = ghash(h, block_a + block_b)
        expected = _gf_mult(
            partial ^ int.from_bytes(block_b, "big"), h
        )
        assert combined == expected

    @settings(max_examples=20, deadline=None)
    @given(h=_field_elements, data=st.binary(min_size=0, max_size=64))
    def test_zero_padding_of_final_partial_block(self, h, data):
        """Partial trailing blocks hash as if zero-padded to 16 bytes."""
        padded = data + b"\x00" * ((16 - len(data) % 16) % 16)
        assert ghash(h, data) == ghash(h, padded)


class TestSalsa20Structure:
    @settings(max_examples=40, deadline=None)
    @given(words=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                          min_size=4, max_size=4))
    def test_quarterround_is_invertible(self, words):
        """Quarterround is a bijection; its inverse recovers the input."""
        y0, y1, y2, y3 = words
        z0, z1, z2, z3 = quarterround(y0, y1, y2, y3)

        def rotl(v, c):
            v &= 0xFFFFFFFF
            return ((v << c) & 0xFFFFFFFF) | (v >> (32 - c))

        # Undo the forward operations in reverse order.
        x0 = z0 ^ rotl(z3 + z2, 18)
        x3 = z3 ^ rotl(z2 + z1, 13)
        x2 = z2 ^ rotl(z1 + x0, 9)
        x1 = z1 ^ rotl(x0 + x3, 7)
        assert (x0, x1, x2, x3) == (y0, y1, y2, y3)

    @settings(max_examples=20, deadline=None)
    @given(state=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                          min_size=16, max_size=16))
    def test_core_feedforward_prevents_inversion_to_zero(self, state):
        """salsa20_core(x) != rounds-only output: the feed-forward addition
        of the input is present (without it the core would be invertible
        and useless as a PRF)."""
        out = salsa20_core(state)
        assert len(out) == 64
        # The all-zero state maps to all-zero output (0 + 0); any other
        # property here would be wrong.
        if all(w == 0 for w in state):
            assert out == b"\x00" * 64
