"""The lane-parallel ChaCha20 against the reference implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import chacha20, chacha20_np
from repro.errors import CryptoError

KEY = bytes(range(32))
NONCE = bytes.fromhex("000000000000004a00000000")


class TestRfcVectors:
    def test_sunscreen(self):
        pt = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        assert chacha20_np.chacha20_xor(KEY, NONCE, pt) == chacha20.chacha20_xor(KEY, NONCE, pt)

    def test_block_boundary_keystream(self):
        for n in (0, 1, 63, 64, 65, 127, 128, 129, 1000):
            assert chacha20_np.chacha20_keystream(KEY, NONCE, n) == chacha20.chacha20_keystream(
                KEY, NONCE, n
            )


@st.composite
def _xor_inputs(draw):
    """Key, nonce, data up to 4 KiB and any counter the data leaves legal."""
    data = draw(st.binary(max_size=4096))
    n_blocks = max(1, (len(data) + 63) // 64)
    counter = draw(st.integers(min_value=0, max_value=0xFFFFFFFF - n_blocks + 1))
    key = draw(st.binary(min_size=32, max_size=32))
    nonce = draw(st.binary(min_size=12, max_size=12))
    return key, nonce, data, counter


class TestEquivalence:
    @given(_xor_inputs())
    @settings(max_examples=40, deadline=None)
    def test_xor_matches_reference(self, inputs):
        key, nonce, data, counter = inputs
        assert chacha20_np.chacha20_xor(key, nonce, data, counter) == chacha20.chacha20_xor(
            key, nonce, data, counter
        )

    def test_all_ones_state_carries_into_guard_bits(self):
        key, nonce, data = b"\xff" * 32, b"\xff" * 12, bytes(range(256)) * 4
        for counter in (0, 0xFFFFFFFF - 15):
            assert chacha20_np.chacha20_xor(key, nonce, data, counter) == chacha20.chacha20_xor(
                key, nonce, data, counter
            )

    def test_64k_matches_reference(self):
        data = bytes(range(256)) * 256
        assert chacha20_np.chacha20_xor(KEY, NONCE, data) == chacha20.chacha20_xor(KEY, NONCE, data)

    def test_involution(self):
        data = b"involutive" * 100
        once = chacha20_np.chacha20_xor(KEY, NONCE, data)
        assert chacha20_np.chacha20_xor(KEY, NONCE, once) == data

    def test_counter_offsets_align(self):
        full = chacha20_np.chacha20_keystream(KEY, NONCE, 256, initial_counter=1)
        tail = chacha20_np.chacha20_keystream(KEY, NONCE, 192, initial_counter=2)
        assert full[64:] == tail


class TestValidation:
    def test_bad_key(self):
        with pytest.raises(CryptoError):
            chacha20_np.chacha20_keystream(b"short", NONCE, 64)

    def test_bad_nonce(self):
        with pytest.raises(CryptoError):
            chacha20_np.chacha20_keystream(KEY, b"short", 64)

    def test_counter_overflow(self):
        with pytest.raises(CryptoError):
            chacha20_np.chacha20_keystream(KEY, NONCE, 128, initial_counter=0xFFFFFFFF)

    def test_empty(self):
        assert chacha20_np.chacha20_xor(KEY, NONCE, b"") == b""
        assert chacha20_np.chacha20_keystream(KEY, NONCE, 0) == b""


class TestAeadUsesFastPath:
    def test_aead_unchanged_semantics(self):
        """Swapping the backend must not change any AEAD output."""
        from repro.crypto import aead
        from repro.crypto.chacha20 import chacha20_xor as reference_xor
        from repro.crypto.hmac_ import hmac_digest

        master, nonce, pt, aad = b"m" * 32, b"n" * 12, b"check me" * 10, b"aad"
        box = aead.seal(master, nonce, pt, aad)
        # Reconstruct what the reference backend would have produced.
        enc_key, mac_key = aead.derive_keys(master)
        expected_ct = reference_xor(enc_key, nonce, pt)
        assert box[12:-32] == expected_ct
        assert aead.open_(master, box, aad) == pt
